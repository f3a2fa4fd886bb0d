"""Byte identity of everything the benchmark's workloads compute, as three md5 digests.

The digests are of the repr of every VerifyGrid and ScenarioMix op output
over perfbench seeds 1-3, and of repr((exit code, stdout, stderr)) of
cli.main over every cli_commands(seed) entry for seeds 1-5, in order.  They
are goldens under ROADMAP's golden policy: a change that moves printed
digits on purpose (ROADMAP item 9) updates them, and so does a benchmark
change to perfbench's input generators; any other change keeps them.
"""

import contextlib
import hashlib
import importlib.util
import io
from pathlib import Path

import pytest

from cvqss.cli import main

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    # loaded from its file: perfbench is not a package on the test path
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload, expected", [
    ("VerifyGrid", "f57bb136d846d9af51bb8106bf1f890d"),
    ("ScenarioMix", "fbdfe449f10a2c5af4d6c2d293295610"),
])
def test_in_process_op_outputs_are_unchanged(workloads, workload, expected):
    bench = getattr(workloads, workload)()
    digest = hashlib.md5()
    for seed in (1, 2, 3):
        for entry in bench.inputs(seed):
            digest.update(repr(bench.op(entry)).encode())
    assert digest.hexdigest() == expected


def test_cli_command_outputs_are_unchanged(workloads):
    digest = hashlib.md5()
    for seed in range(1, 6):
        for command in workloads.cli_commands(seed):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(command["argv"])
            digest.update(repr((code, out.getvalue(), err.getvalue())).encode())
    assert digest.hexdigest() == "522bdcff16132e10c21051b8143d0fbc"
