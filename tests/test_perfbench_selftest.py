"""The benchmark's self-test, which also fails when a function it traces is
renamed or removed, and its scenario list against the CLI's scheme table."""

import ast
import subprocess
import sys
from pathlib import Path

from cvqss.cli import SCHEMES

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_benchmark_scenarios_cover_the_scheme_table():
    # parsed, not imported: perfbench is not a package on the test path
    tree = ast.parse((ROOT / "perfbench" / "workloads.py").read_text(encoding="utf-8"))
    (bench_schemes,) = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "SCHEMES" for t in node.targets)
    ]
    assert bench_schemes == SCHEMES
