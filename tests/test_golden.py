"""Byte-pinned CLI outputs: default-gain runs, type-2, finite-epsilon and optimal-gain
runs, three tv-curve sweeps, three tables and verify."""

from pathlib import Path

import pytest

from cvqss.cli import SCHEMES, main

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    **{
        f"run_{scheme}.csv": ["run", "--scheme", scheme, "--r", "0.5", "--vm-db", "10"]
        for scheme in SCHEMES
    },
    "run_feedforward_epsilon.csv": [
        "run", "--scheme", "feedforward", "--r", "0.5", "--vm-db", "10", "--epsilon", "0.1"
    ],
    "run_feedforward_type2.csv": ["run", "--scheme", "feedforward", "--r", "0.5", "--source", "type2"],
    "run_psa2_type2.csv": ["run", "--scheme", "psa2", "--r", "0.5", "--source", "type2"],
    "run_feedforward_optimal.csv": [
        "run", "--scheme", "feedforward", "--r", "0.5", "--vm-db", "10", "--gain", "optimal"
    ],
    **{
        f"run_single_quadrature_optimal_{quad}.csv": [
            "run", "--scheme", "single_quadrature", "--r", "0.5", "--vm-db", "10",
            "--gain", "optimal", "--quad", quad,
        ]
        for quad in ("plus", "minus")
    },
    "tv_curve.csv": ["tv-curve", "--r", "0.5", "--vm-db", "20"],
    "tv_curve_type2.csv": ["tv-curve", "--r", "0.5", "--eta", "0.9", "--source", "type2"],
    "tv_curve_pct40.json": [
        "tv-curve", "--squeezing-pct", "40", "--vm-db", "20", "--gains", "0,1,2,2.5,3",
        "--means", "-1.5", "3", "--format", "json",
    ],
    "table.csv": ["table"],
    "table.json": ["table", "--format", "json"],
    "table_r2_vm20.json": ["table", "--r-large", "2", "--vm-db-large", "20", "--format", "json"],
    "verify.json": ["verify"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden_file(name, capsys):
    assert main(CASES[name]) == 0
    assert capsys.readouterr().out == (GOLDEN / name).read_text(encoding="utf-8")


def test_every_golden_file_is_a_case():
    # a golden file without a case would sit in the repo unchecked
    assert sorted(path.name for path in GOLDEN.iterdir()) == sorted(CASES)
