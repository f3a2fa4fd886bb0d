"""The runtime imports only the standard library, and little of it.

Checked in a fresh interpreter: the test suite itself imports numpy, sympy
and hypothesis, so sys.modules of this process says nothing about cvqss.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
TEST_ONLY = ("numpy", "scipy", "sympy", "mpmath", "hypothesis")


def _loaded_by_cvqss_cli(names):
    """Those of names that sys.modules holds after a fresh `import cvqss, cvqss.cli`."""
    probe = (
        "import sys, cvqss, cvqss.cli; "
        f"print(' '.join(m for m in {names!r} if m in sys.modules))"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


def test_cvqss_and_its_cli_import_no_test_only_package():
    assert _loaded_by_cvqss_cli(TEST_ONLY) == []


def test_cli_import_path_skips_dataclasses_and_inspect():
    # A bare interpreter loads neither, and together they cost every cvqss
    # child process about 10 ms.  (typing is not checked: site may load it.)
    assert _loaded_by_cvqss_cli(("dataclasses", "inspect")) == []


def test_cli_import_path_skips_json_and_csv():
    # each is needed only by its own --format (and json by --config), so a
    # cvqss child pays for neither at import
    assert _loaded_by_cvqss_cli(("json", "csv")) == []
