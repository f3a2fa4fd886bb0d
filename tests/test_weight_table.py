"""optics.WEIGHTS is the one place that computes a knob-free weight of the network.

Read from the source with ast, so no import order or patch can hide a stray
call: math.pi, math.cos and math.sin appear only in the statement that builds
the table, entanglement imports no math, and protocol reads math only for inf.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "cvqss"
MODULES = sorted(SRC.glob("*.py"))
TRIG = {"pi", "cos", "sin"}


def _tree(name):
    return ast.parse((SRC / name).read_text(encoding="utf-8"), name)


def _math_names(node):
    """The names node reads from math: math.x attributes and `from math import x`."""
    names = []
    for n in ast.walk(node):
        if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name) and n.value.id == "math":
            names.append(n.attr)
        elif isinstance(n, ast.ImportFrom) and n.module == "math":
            names.extend(alias.name for alias in n.names)
    return names


def _is_table(stmt):
    return isinstance(stmt, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "WEIGHTS" for t in stmt.targets)


def test_trigonometry_appears_only_in_the_optics_table():
    assert [path.name for path in MODULES].count("optics.py") == 1
    for path in MODULES:
        body = _tree(path.name).body
        tables = [stmt for stmt in body if path.name == "optics.py" and _is_table(stmt)]
        outside = [name for stmt in body if stmt not in tables for name in _math_names(stmt)]
        assert TRIG.isdisjoint(outside), (path.name, sorted(TRIG & set(outside)))
        if path.name == "optics.py":
            (table,) = tables
            assert TRIG <= set(_math_names(table))


def test_entanglement_imports_no_math():
    imported = set()
    for n in ast.walk(_tree("entanglement.py")):
        if isinstance(n, ast.Import):
            imported.update(alias.name for alias in n.names)
        elif isinstance(n, ast.ImportFrom):
            imported.add(n.module)
    assert "math" not in imported
    assert _math_names(_tree("entanglement.py")) == []


def test_protocol_computes_no_weight_of_its_own():
    assert set(_math_names(_tree("protocol.py"))) == {"inf"}
