"""Each of metrics' scoring formulas is written once.

Read from the source with ast, so a renamed or reflowed copy is still found:
the per-class dot product (a comprehension that reads variances[c] for each
(c, w) pair, in its terms or its condition) appears only inside _dot, and the
transfer ratio (one SNR over another, (m * m / v) / (m' * m' / v')) and its
zero-mean refusal only inside _transfer.  _scores and _moments reach them by
calling those functions.
"""

import ast
from pathlib import Path

METRICS = Path(__file__).resolve().parents[1] / "src" / "cvqss" / "metrics.py"


def _owners(is_copy):
    """The top-level definition around each node of metrics for which is_copy holds
    (None for a module-level statement), in source order."""
    tree = ast.parse(METRICS.read_text(encoding="utf-8"), METRICS.name)
    owners = []
    for stmt in tree.body:
        owner = getattr(stmt, "name", None)
        owners += [owner for node in ast.walk(stmt) if is_copy(node)]
    return owners


def _is_class_dot(node):
    """A comprehension whose terms or conditions read variances[c] for a name c it binds."""
    if not isinstance(node, (ast.ListComp, ast.GeneratorExp)):
        return False
    bound = {n.id for g in node.generators for n in ast.walk(g.target) if isinstance(n, ast.Name)}
    return any(
        isinstance(n, ast.Subscript) and isinstance(n.value, ast.Name) and n.value.id == "variances"
        and isinstance(n.slice, ast.Name) and n.slice.id in bound
        for part in [node.elt, *(cond for g in node.generators for cond in g.ifs)]
        for n in ast.walk(part))


def _is_snr(node):
    """m * m / v: a squared mean over a variance."""
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)
            and isinstance(node.left, ast.BinOp) and isinstance(node.left.op, ast.Mult)
            and ast.dump(node.left.left) == ast.dump(node.left.right))


def _is_transfer_ratio(node):
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)
            and _is_snr(node.left) and _is_snr(node.right))


def _reads_zero_mean_message(node):
    return isinstance(node, ast.Name) and node.id == "_ZERO_SECRET_MEAN" and isinstance(
        node.ctx, ast.Load)


def test_the_per_class_dot_product_is_written_only_in_dot():
    assert _owners(_is_class_dot) == ["_dot"]


def test_the_transfer_ratio_is_written_only_in_transfer():
    assert _owners(_is_transfer_ratio) == ["_transfer"]


def test_the_zero_mean_refusal_is_raised_only_in_transfer():
    assert _owners(_reads_zero_mean_message) == ["_transfer"]
