"""Simulated T_q and V_q against the closed forms evaluated at 60 digits with mpmath.

Every float input (r, v_m, eta, the gain) is taken as an exact binary
value, so the reference carries no rounding of its own: what is left is
the simulation's error.  The closed forms are ff_cp and sp as transcribed
in cvqss.metrics, and the two-PSA conditional variance at a general gain G,
derived from the same optical maps with exact trigonometry:

    V_cv+ = V_cv- = (e^{-2r} (U G - u)^2 + (e^{2r} + 2 v_m) (u G - U)^2) / (16 G),

u = sqrt(2) - 1, U = sqrt(2) + 1; at G = U/u this is psa2_cp's 2 e^{-2r}.

Rows without a closed form are checked against the pipeline itself run at 80
digits: the name math rebound to mpmath in noise, optics and metrics, and
optics' table of knob-free weights refilled at 80 digits from its own keys.
That run shares the code's structure but not its rounding.
"""

import csv
import json
import math
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from cvqss import (
    PSA_GAIN_OPTIMAL, DealerConfig, EprSource, NoiseBasis, deal, evaluate, field_from_mode,
    metrics, noise, optics, reconstruct_12, reconstruct_2psa, reconstruct_ff, tv_point,
)
from cvqss.cli import CSV_COLUMNS, DEFAULT_MEANS
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


def psa2_t_q(r):
    """T_q of the two-PSA output at the optimal gain: 2 e^{-2r} added noise per quadrature."""
    with mp.workdps(60):
        return 2 / (1 + 2 * mp.exp(-2 * mp.mpf(r)))


# V_q ~ e^{-4r} near perfect reconstruction.  A subtraction V_out - cov^2/V_s
# there cancels to about 3e-6 relative at r = 12; the per-class sum stays
# near 1e-11.  Coefficients holding cosh r and sinh r would cancel as badly;
# both sources' coefficients are free of r.


@pytest.mark.parametrize("source", EprSource)
@pytest.mark.parametrize("r", [4.0, 8.0, 12.0])
def test_feedforward_v_q_at_the_cancellation_gain_is_accurate(r, source):
    psi, shares = dealt(r, source=source)
    v_q = tv_point(psi, reconstruct_ff(shares, _TWO_SQRT2, 1.0))[1]
    assert rel_error(v_q, ff_cp(r, 0.0, 1.0, _TWO_SQRT2)[1]) <= 1e-9


@pytest.mark.parametrize(
    "g", [1e151, 1e153, 2e153, -3e153, 3.4e153, -1e154, 1.5e154, 2e154, -1.9e154, 1e155, 1e200,
          -1.7e308]
)
@pytest.mark.parametrize("r, v_m, eta", [
    (0.5, 0.0, 1.0), (0.5, 10.0, 0.9), (4.0, 1.0, 0.5), (3.0, 0.0, 1.0), (10.0, 10.0, 0.9),
])
def test_feedforward_closed_form_is_accurate_where_the_gain_squared_overflows(r, v_m, eta, g):
    # ff_cp forms these gains' terms divided by g^2, above 2^510 or where e^{2r}
    # overflows an unscaled sum below it: T_q nears its limit, and V_q is inf
    # only where the exact value lies beyond the largest float
    t_q, v_q = metrics.closed_form("ff_cp", r, v_m, eta, g)
    ref_t, ref_v = ff_cp(r, v_m, eta, g)
    assert rel_error(t_q, ref_t) <= 1e-12
    if ref_v > sys.float_info.max:
        assert v_q == math.inf
    else:
        assert rel_error(v_q, ref_v) <= 1e-12


@pytest.mark.parametrize("source", EprSource)
@pytest.mark.parametrize("r", [4.0, 8.0, 12.0])
def test_psa2_v_q_at_the_optimal_gain_is_accurate(r, source):
    psi, shares = dealt(r, source=source)
    t_q, v_q = tv_point(psi, reconstruct_2psa(shares, PSA_GAIN_OPTIMAL))
    assert rel_error(v_q, psa2_v_q(r, PSA_GAIN_OPTIMAL)) <= 1e-9
    assert rel_error(t_q, psa2_t_q(r)) <= 1e-9


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


# The goldens whose rows have a closed form: feedforward at epsilon = 0,
# two-PSA at its optimal gain without modulation, and single players 1 and 2.
# The type-2 rows take the type-1 closed forms, which the 80-digit pipeline
# below shows to hold for both sources.
REFERENCE_GOLDENS = [
    "run_feedforward.csv",
    "run_feedforward_optimal.csv",
    "run_single_player_1.csv",
    "run_single_player_2.csv",
    "tv_curve.csv",
    "tv_curve_pct40.json",
    "run_feedforward_type2.csv",
    "run_psa2_type2.csv",
    "tv_curve_type2.csv",
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
        elif row["scheme"] == "psa2":
            assert v_m == 0.0 and row["gain"] == PSA_GAIN_OPTIMAL
            ref = psa2_t_q(row["r"]), psa2_v_q(row["r"], row["gain"])
        else:
            assert row["scheme"] in ("single_player_1", "single_player_2")
            ref = sp(row["r"], v_m)
        for column, exact in zip(("t_q", "v_q"), ref):
            assert rel_error(row[column], exact) <= 1e-12, (name, row, column)
    assert all(math.isfinite(row["v_q"]) for row in rows)


# ---------------------------------------------------------------------------
# The pipeline at 80 digits.

# entanglement and protocol compute no weight of their own: every knob-free
# one comes from optics.WEIGHTS, which the fixture refills at 80 digits.
PIPELINE_MODULES = (noise, optics, metrics)
MP_MATH = SimpleNamespace(
    **{name: getattr(mp, name) for name in ("sqrt", "exp", "log", "cosh", "sinh", "isfinite")},
    inf=mp.inf,
)
SCORE_COLUMNS = CSV_COLUMNS[6:]


def weight80(key):
    """optics.WEIGHTS[key] at the working precision: a float key is a splitter's
    reflectivity R, an int key a rotation by that many eighth turns."""
    if type(key) is float:
        return mp.sqrt(1 - mp.mpf(key)), mp.sqrt(key)
    c, s = mp.cos(key * mp.pi / 4), mp.sin(key * mp.pi / 4)
    return c, -s, s, c


@pytest.fixture
def pipeline80(monkeypatch):
    """Every pipeline module computes with mpmath at 80 digits while the test runs."""
    for module in PIPELINE_MODULES:
        monkeypatch.setattr(module, "math", MP_MATH)
    with mp.workdps(80):
        for key in list(optics.WEIGHTS):
            monkeypatch.setitem(optics.WEIGHTS, key, weight80(key))
        yield


def scores(scheme, source, r, v_m=0.0, eta=1.0, gain=0.0, means=DEFAULT_MEANS):
    """The CSV score columns of a fresh deal and reconstruction, as evaluate gives them."""
    basis = NoiseBasis()
    secret = field_from_mode(basis, basis.vacuum(), *means)
    shares = deal(secret, DealerConfig(r, v_m, source))
    if scheme == "feedforward":
        out = reconstruct_ff(shares, gain, eta)
    elif scheme == "psa2":
        out = reconstruct_2psa(shares, gain)
    elif scheme == "mz12":
        out = reconstruct_12(shares)
    else:
        out = shares.share(int(scheme.removeprefix("single_player_")))
    m = evaluate(secret, out)
    return dict(zip(SCORE_COLUMNS, (m.t_plus, m.t_minus, m.t_q, m.vcv_plus, m.vcv_minus,
                                    m.v_q, m.fidelity)))


def test_the_pipeline_runs_at_80_digits(pipeline80):
    # The pipeline's own float constants, such as the 2/3 splitter
    # reflectivity, enter as exact binary values: V_q meets ff_cp to their
    # rounding, about 1e-26 at r = 4, not to 80 digits.
    for source in EprSource:
        v_q = scores("feedforward", source, 4.0, gain=_TWO_SQRT2)["v_q"]
        assert isinstance(v_q, mp.mpf)
        assert rel_error(v_q, ff_cp(4.0, 0.0, 1.0, _TWO_SQRT2)[1]) <= mp.mpf(10) ** -24


@pytest.mark.parametrize("name", ["run_feedforward_type2.csv", "run_psa2_type2.csv",
                                  "tv_curve_type2.csv"])
def test_type2_golden_rows_match_the_80_digit_pipeline(name, pipeline80):
    rows = _golden_rows(name)
    assert rows
    for row in rows:
        v_m = 0.0 if row["vm_db"] in (None, "") else 10.0 ** (row["vm_db"] / 10.0)
        ref = scores(row["scheme"], EprSource.TYPE2, row["r"], v_m, row["eta"], row["gain"])
        for column in SCORE_COLUMNS:
            assert rel_error(row[column], ref[column]) <= 1e-12, (name, row, column)


@pytest.mark.parametrize("r, v_m, eta", [(0.5, 0.0, 1.0), (0.5, 100.0, 0.9), (4.0, 1.0, 0.9)])
def test_both_sources_score_alike_to_60_digits(r, v_m, eta, pipeline80):
    """Type 1's network and type 2's Bloch-Messiah network deal the same state.

    Scores that are exactly zero (mz12's V_cv) come out near 1e-80 from either
    source, so they compare with an absolute floor of 1e-60.
    """
    cases = [("feedforward", g) for g in (1.7, _TWO_SQRT2)] + [
        ("psa2", g) for g in (PSA_GAIN_OPTIMAL, 3.0)] + [
        (scheme, 0.0) for scheme in ("mz12", "single_player_1", "single_player_2",
                                     "single_player_3")]
    for scheme, gain in cases:
        type1, type2 = (scores(scheme, source, r, v_m, eta, gain) for source in EprSource)
        for column in SCORE_COLUMNS:
            assert mp.almosteq(type1[column], type2[column], rel_eps=1e-60, abs_eps=1e-60), (
                scheme, gain, column, type1[column], type2[column])
