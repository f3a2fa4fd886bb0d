"""Byte-pinned CLI outputs: default-gain runs, a tv-curve sweep, the table and verify."""

from pathlib import Path

import pytest

from cvqss.cli import SCHEMES, main

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    **{
        f"run_{scheme}.csv": ["run", "--scheme", scheme, "--r", "0.5", "--vm-db", "10"]
        for scheme in SCHEMES
    },
    "tv_curve.csv": ["tv-curve", "--r", "0.5", "--vm-db", "20"],
    "table.json": ["table", "--format", "json"],
    "verify.json": ["verify"],
}


@pytest.mark.filterwarnings("ignore:zero output mean")
@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden_file(name, capsys):
    assert main(CASES[name]) == 0
    assert capsys.readouterr().out == (GOLDEN / name).read_text(encoding="utf-8")
