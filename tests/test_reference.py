"""Simulated T_q and V_q against the closed forms evaluated at 60 digits with mpmath.

Every float input (r, v_m, eta, the gain) is taken as an exact binary
value, so the reference carries no rounding of its own: what is left is
the simulation's error.  The closed forms are ff_cp and sp as transcribed
in cvqss.metrics, and the two-PSA conditional variance at a general gain G,
derived from the same optical maps with exact trigonometry:

    V_cv+ = V_cv- = (e^{-2r} (U G - u)^2 + (e^{2r} + 2 v_m) (u G - U)^2) / (16 G),

u = sqrt(2) - 1, U = sqrt(2) + 1; at G = U/u this is psa2_cp's 2 e^{-2r}.
"""

import csv
import json
import math
from pathlib import Path

import pytest

from cvqss import PSA_GAIN_OPTIMAL, reconstruct_2psa, reconstruct_ff, tv_point
from cvqss.metrics import _TWO_SQRT2

from conftest import dealt

mp = pytest.importorskip("mpmath").mp
GOLDEN = Path(__file__).parent / "golden"


def _exact(*values):
    return [mp.mpf(v) for v in values]


def ff_cp(r, v_m, eta, g):
    with mp.workdps(60):
        r, v_m, eta, g = _exact(r, v_m, eta, g)
        x, root2 = mp.exp(-2 * r), mp.sqrt(2)
        signal = (1 + g / root2) ** 2
        noise = ((g / 2 - root2) ** 2 / x + (3 * g / 2) ** 2 * x
                 + (2 - g / root2) ** 2 * v_m + 3 * g * g * (1 - eta) / eta)
        uncancelled = (g - 2 * root2) ** 2
        v_q = x / 18 * (9 * g * g * x + uncancelled / x + 2 * v_m * uncancelled
                        + 12 * g * g * (1 - eta) / eta)
        return 1 / (1 + 2 * x) + signal / (signal + noise), v_q


def sp(r, v_m):
    with mp.workdps(60):
        r, v_m = _exact(r, v_m)
        bulge = mp.cosh(2 * r) + v_m
        return 2 / (1 + bulge), (bulge / 2) ** 2


def psa2_v_q(r, gain):
    with mp.workdps(60):
        r, gain = _exact(r, gain)
        u, U = mp.sqrt(2) - 1, mp.sqrt(2) + 1
        vcv = (mp.exp(-2 * r) * (U * gain - u) ** 2 + mp.exp(2 * r) * (u * gain - U) ** 2) / (
            16 * gain)
        return vcv * vcv


def rel_error(value, ref):
    with mp.workdps(60):
        return abs((mp.mpf(value) - ref) / ref)


# V_q ~ e^{-4r} near perfect reconstruction.  A subtraction V_out - cov^2/V_s
# there cancels to about 3e-6 relative at r = 12; the per-class sum stays
# near 1e-11.


@pytest.mark.parametrize("r", [4.0, 8.0, 12.0])
def test_feedforward_v_q_at_the_cancellation_gain_is_accurate(r):
    psi, shares = dealt(r)
    v_q = tv_point(psi, reconstruct_ff(shares, _TWO_SQRT2, 1.0))[1]
    assert rel_error(v_q, ff_cp(r, 0.0, 1.0, _TWO_SQRT2)[1]) <= 1e-9


@pytest.mark.parametrize("r", [4.0, 8.0, 12.0])
def test_psa2_v_q_at_the_optimal_gain_is_accurate(r):
    psi, shares = dealt(r)
    v_q = tv_point(psi, reconstruct_2psa(shares, PSA_GAIN_OPTIMAL))[1]
    assert rel_error(v_q, psa2_v_q(r, PSA_GAIN_OPTIMAL)) <= 1e-9


def test_the_psa2_reference_is_psa2_cp_at_the_exact_gain():
    with mp.workdps(60):
        gain = (mp.sqrt(2) + 1) / (mp.sqrt(2) - 1)
        for r in (0.0, 0.5, 4.0):
            assert abs(psa2_v_q(r, gain) - (2 * mp.exp(-2 * mp.mpf(r))) ** 2) < mp.mpf(10) ** -50


def _golden_rows(name):
    text = (GOLDEN / name).read_text(encoding="utf-8")
    if name.endswith(".json"):
        rows = json.loads(text)
        return rows if isinstance(rows, list) else [rows]
    return [{k: v if k == "scheme" or v == "" else float(v) for k, v in row.items()}
            for row in csv.DictReader(text.splitlines())]


# The type-1 goldens whose rows have a closed form: feedforward at epsilon = 0
# and single players 1 and 2.  Type-2 rows wait for a proof that the source
# type leaves T_q and V_q unchanged.
REFERENCE_GOLDENS = [
    "run_feedforward.csv",
    "run_feedforward_optimal.csv",
    "run_single_player_1.csv",
    "run_single_player_2.csv",
    "tv_curve.csv",
    "tv_curve_pct40.json",
]


@pytest.mark.parametrize("name", REFERENCE_GOLDENS)
def test_golden_rows_match_the_closed_forms(name):
    rows = _golden_rows(name)
    assert rows
    for row in rows:
        vm_db = row["vm_db"]
        # the CLI's own float v_m, taken as exact
        v_m = 0.0 if vm_db in (None, "") else 10.0 ** (vm_db / 10.0)
        if row["scheme"] == "feedforward":
            ref = ff_cp(row["r"], v_m, row["eta"], row["gain"])
        else:
            assert row["scheme"] in ("single_player_1", "single_player_2")
            ref = sp(row["r"], v_m)
        for column, exact in zip(("t_q", "v_q"), ref):
            assert rel_error(row[column], exact) <= 1e-12, (name, row, column)
    assert all(math.isfinite(row["v_q"]) for row in rows)
