"""The runtime imports only the standard library.

Checked in a fresh interpreter: the test suite itself imports numpy, sympy
and hypothesis, so sys.modules of this process says nothing about cvqss.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
TEST_ONLY = ("numpy", "scipy", "sympy", "mpmath", "hypothesis")


def test_cvqss_and_its_cli_import_no_test_only_package():
    probe = (
        "import sys, cvqss, cvqss.cli; "
        f"print(' '.join(m for m in {TEST_ONLY!r} if m in sys.modules))"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == ""
