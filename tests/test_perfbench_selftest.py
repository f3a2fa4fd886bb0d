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


def test_the_tracer_wraps_a_public_field_construction():
    """FieldState checks its keys in a real __init__, which the tracer wraps on the class:
    a public construction and a _replace each run under it and count as one call."""
    script = """
import sys
sys.path[:0] = ["perfbench", "src"]
import cvqss.cli
from cvqss.noise import FieldState, NoiseBasis, Quad
from tracer import Tracer

basis = NoiseBasis()
mid = basis.vacuum()
tracer = Tracer()
tracer.install()
try:
    FieldState(basis, 1.0, 2.0, {(mid, Quad.PLUS): 1.0})._replace(mean_plus=3.0)
finally:
    tracer.uninstall()
print(tracer.missing, tracer.summary()["calls"]["noise.FieldState"])
"""
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=ROOT, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[]", "2"]


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
