"""Every runtime and benchmark module parses as the oldest declared Python.

pyproject.toml promises Python 3.10; the suite runs on a newer interpreter,
so a 3.11-only construct (an except* clause, say) would pass every other
test.  ast.parse's feature_version refuses such syntax.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MIN_PYTHON = (3, 10)
MODULES = sorted((ROOT / "src" / "cvqss").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))


def test_the_declared_minimum_is_the_one_checked():
    declared = re.search(r'requires-python = ">=(\d+)\.(\d+)"', (ROOT / "pyproject.toml").read_text())
    assert tuple(map(int, declared.groups())) == MIN_PYTHON


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_module_parses_as_the_minimum_python(path):
    ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=MIN_PYTHON)
