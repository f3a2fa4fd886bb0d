"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are fixed here, not calibrated.
"""

import json
import math

import pytest

import cvqss.metrics
from cvqss import (
    EprSource,
    FF_GAIN_OPTIMAL,
    FF_SYMPLECTIC_SCALE,
    ModeKind,
    NoiseBasis,
    PSA_GAIN_OPTIMAL,
    Quad,
    closed_form,
    collaboration_beams,
    crossover_squeezing,
    detect,
    duan_sum,
    duan_sum_normalized,
    epr_type1,
    fidelity,
    is_entangled,
    reconstruct_12,
    reconstruct_2psa,
    reconstruct_ff,
    symplectic_correct,
    tv_point,
    variance,
)
from cvqss.cli import main

from conftest import dealt
from test_protocol import assert_coeffs, mode_ids

P = Quad.PLUS
M = Quad.MINUS
SQRT3 = math.sqrt(3.0)
R_GRID = (0.0, 0.25, 0.5, 1.0, 2.0, 4.0)
VM_GRID = (0.0, 1.0, 100.0)


def _report(num, text):
    print(f"ACCEPTANCE {num:2d} PASS: {text}")


def test_criterion_01_perfect_pair12_reconstruction():
    for source in (EprSource.TYPE1, EprSource.TYPE2):
        for r in R_GRID:
            for v_m in VM_GRID:
                psi, shares = dealt(r, v_m, source)
                out = reconstruct_12(shares)
                assert abs(fidelity(psi, out) - 1.0) <= 1e-12
                t_q, v_q = tv_point(psi, out)
                assert abs(t_q - 2.0) <= 1e-12
                assert abs(v_q) <= 1e-12
    _report(1, "{1,2} reconstruction exact: fidelity 1, (T_q, V_q) = (2, 0)")


def test_criterion_02_psa_scheme_residual_noise():
    for r in R_GRID:
        psi, shares = dealt(r)
        out = reconstruct_2psa(shares, PSA_GAIN_OPTIMAL)
        expected = 2.0 * math.exp(-2.0 * r)
        for quad in Quad:
            assert variance(out, quad) - 1.0 == pytest.approx(expected, abs=1e-9)
        assert fidelity(psi, out) == pytest.approx(
            1.0 / (1.0 + math.exp(-2.0 * r)), abs=1e-9
        )
    _report(2, "two-PSA residual noise 2e^{-2r} and fidelity 1/(1+e^{-2r})")


def test_criterion_03_feedforward_cancellation():
    psi, shares = dealt(r=0.5, v_m=100.0)
    psi_id, s1, s2, m, _ = mode_ids(shares.share1.basis)
    out = reconstruct_ff(shares, FF_GAIN_OPTIMAL, 1.0)
    (det,) = [mm.mid for mm in out.basis.modes_of_kind(ModeKind.DETECTOR_VACUUM)]
    for src in ((s1, M), (s2, M), (m, P), (det, P)):
        assert abs(out.coeff(P, src)) < 1e-12
    assert out.coeff(P, (psi_id, P)) == pytest.approx(SQRT3, abs=1e-12)
    assert out.coeff(M, (psi_id, M)) == pytest.approx(1.0 / SQRT3, abs=1e-12)
    _report(3, "feedforward cancellation at G = 2*sqrt(2): secret scaled by sqrt(3), 1/sqrt(3)")


def test_criterion_04_oracle_equivalence_full_grid():
    gains = [0.5 * k for k in range(17)]
    worst = 0.0
    for r in R_GRID:
        for v_m in VM_GRID:
            psi, shares = dealt(r, v_m)
            for player in (1, 2):
                sim = tv_point(psi, shares.share(player))
                ref = closed_form("sp", r, v_m)
                worst = max(worst, abs(sim[0] - ref[0]), abs(sim[1] - ref[1]))
            for eta in (1.0, 0.9):
                for gain in gains:
                    sim = tv_point(psi, reconstruct_ff(shares, gain, eta))
                    ref = closed_form("ff_cp", r, v_m, eta, gain)
                    worst = max(worst, abs(sim[0] - ref[0]), abs(sim[1] - ref[1]))
    assert worst <= 1e-9
    _report(4, f"simulation matches closed forms on the full grid (max dev {worst:.2e})")


def test_criterion_05_stated_limits():
    psi, shares = dealt(0.0, 100.0)  # 20 dB above shot noise
    assert tv_point(psi, reconstruct_ff(shares, FF_GAIN_OPTIMAL, 1.0)) == pytest.approx(
        (2.0 / 3.0, 4.0), abs=1e-12
    )
    psi, shares = dealt(0.0, 0.0)
    assert tv_point(psi, shares.share1) == pytest.approx((1.0, 0.25), abs=1e-12)
    assert tv_point(psi, shares.share3) == pytest.approx((0.0, 1.0), abs=1e-12)
    psi, shares = dealt(8.0, 0.0)
    t_q, v_q = tv_point(psi, reconstruct_ff(shares, FF_GAIN_OPTIMAL, 1.0))
    assert abs(t_q - 2.0) <= 1e-6 and abs(v_q) <= 1e-6
    _report(5, "classical (2/3, 4) and (1, 1/4) points, ideal (2, 0), player 3 at (0, 1)")


def test_criterion_06_symplectic_correction_fidelity():
    for r in R_GRID:
        psi, shares = dealt(r)
        corrected = symplectic_correct(
            reconstruct_ff(shares, FF_GAIN_OPTIMAL, 1.0), FF_SYMPLECTIC_SCALE
        )
        assert fidelity(psi, corrected) == pytest.approx(
            1.0 / (1.0 + math.exp(-2.0 * r)), abs=1e-9
        )
    _report(6, "corrected feedforward fidelity equals the two-PSA limit")


def test_criterion_07_crossover():
    p = crossover_squeezing()
    assert abs(p - 0.42) <= 0.02
    _report(7, f"single/collaborating crossover at {100 * p:.1f}% squeezing")


def test_criterion_08_entanglement_witness():
    for r in (0.0, 0.1, 0.5, 1.0, 2.0, 5.0):
        basis = NoiseBasis()
        pair = epr_type1(basis, r)
        assert abs(duan_sum(pair) - 4.0 * math.exp(-2.0 * r)) <= 1e-12
        assert is_entangled(pair) == (r > 0.0)
        assert (duan_sum_normalized(pair) < 1.0 - 1e-9) == (r > 0.0)
    _report(8, "Duan witness 4e^{-2r}; entangled exactly when r > 0")


def test_criterion_09_equation_coefficient_regression():
    sqrt2, sqrt6, sqrt24 = math.sqrt(2.0), math.sqrt(6.0), math.sqrt(24.0)
    gain, eta = 1.3, 0.9
    psi, shares = dealt(r=0.5, v_m=100.0)
    basis = shares.share1.basis
    psi_id, s1, s2, m, _ = mode_ids(basis)
    q = 1.0 / (2.0 * sqrt2)

    # shares
    assert_coeffs(shares.share1, P, {
        (psi_id, P): 1 / sqrt2, (s1, P): q, (s1, M): q,
        (s2, P): q, (s2, M): -q, (m, P): 1 / sqrt2,
    })
    assert_coeffs(shares.share2, P, {
        (psi_id, P): 1 / sqrt2, (s1, P): -q, (s1, M): -q,
        (s2, P): -q, (s2, M): q, (m, P): -1 / sqrt2,
    })
    assert_coeffs(shares.share3, P, {
        (s1, P): 0.5, (s1, M): -0.5, (s2, P): 0.5, (s2, M): 0.5, (m, P): -1.0,
    })

    # splitter outputs
    kept, detected = collaboration_beams(shares)
    assert_coeffs(kept, P, {
        (psi_id, P): 1 / SQRT3, (s1, M): -1 / SQRT3,
        (s2, M): 1 / SQRT3, (m, P): -2 / SQRT3,
    })
    assert_coeffs(kept, M, {
        (psi_id, M): 1 / SQRT3, (s1, P): 1 / SQRT3, (s2, P): -1 / SQRT3,
    })
    assert_coeffs(detected, P, {
        (s1, M): 1 / sqrt24, (s2, M): -1 / sqrt24,
        (s1, P): -3 / sqrt24, (s2, P): -3 / sqrt24,
        (psi_id, P): 2 / sqrt24, (m, P): 2 / sqrt24,
    })
    assert_coeffs(detected, M, {
        (s2, P): 1 / sqrt24, (s1, P): -1 / sqrt24,
        (s1, M): -3 / sqrt24, (s2, M): -3 / sqrt24,
        (psi_id, M): 2 / sqrt24, (m, M): -6 / sqrt24,
    })

    # photocurrent
    d = shares.detector
    current = detect(detected, eta, d)
    se = math.sqrt(eta)
    for src, expected in {
        (s1, M): se / sqrt24, (s2, M): -se / sqrt24,
        (s1, P): -3 * se / sqrt24, (s2, P): -3 * se / sqrt24,
        (psi_id, P): 2 * se / sqrt24, (m, P): 2 * se / sqrt24,
        (d, P): math.sqrt(1 - eta),
    }.items():
        assert current.fluct.get(src, 0.0) == pytest.approx(expected, abs=1e-12)

    # reconstructed output (the modulation term's overall sign follows the
    # composition of the share and splitter relations above)
    out = reconstruct_ff(shares, gain, eta)
    det_id = shares.detector
    anti = gain / (2.0 * sqrt6) - 1.0 / SQRT3
    assert_coeffs(out, P, {
        (psi_id, P): 1.0 / SQRT3 + gain / sqrt6,
        (s1, M): anti, (s2, M): -anti,
        (s1, P): -(gain / 2.0) * math.sqrt(1.5),
        (s2, P): -(gain / 2.0) * math.sqrt(1.5),
        (m, P): gain / sqrt6 - 2.0 / SQRT3,
        (det_id, P): gain * math.sqrt((1.0 - eta) / eta),
    })
    assert abs(abs(out.coeff(P, (m, P))) - abs(2.0 / SQRT3 - gain / sqrt6)) <= 1e-12
    assert_coeffs(out, M, {
        (psi_id, M): 1.0 / SQRT3, (s1, P): 1.0 / SQRT3, (s2, P): -1.0 / SQRT3,
    })
    _report(9, "share, splitter, photocurrent and output coefficients match term for term")


def test_criterion_10_verifier_self_test(capsys, monkeypatch):
    assert main(["verify"]) == 0
    capsys.readouterr()

    true_form = cvqss.metrics.closed_form

    def flipped(scheme, r, v_m=0.0, eta=1.0, gain=None):
        t_q, v_q = true_form(scheme, r, v_m, eta, gain)
        return (t_q, -v_q) if scheme == "ff_cp" else (t_q, v_q)

    monkeypatch.setattr(cvqss.metrics, "closed_form", flipped)
    assert main(["verify"]) == 1
    summary = json.loads(capsys.readouterr().out)
    assert summary["failures"][0]["family"] == "feedforward_tv"
    monkeypatch.undo()
    _report(10, "verifier exits 0 pristine and 1 with a flipped-sign fixture")
