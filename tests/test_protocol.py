"""Dealer, Mach-Zehnder, two-PSA and feedforward reconstructions.

The coefficient tables frozen here were derived by hand-expanding the share
and splitter-output relations in the squeezed-mode picture; they pin the
sign and phase conventions of the whole pipeline.
"""

import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvqss import (
    DealerConfig,
    EprSource,
    FF_GAIN_OPTIMAL,
    FF_SYMPLECTIC_SCALE,
    ModeKind,
    NoiseBasis,
    PSA_GAIN_OPTIMAL,
    Quad,
    beam_splitter,
    collaboration_beams,
    deal,
    detect,
    evaluate,
    field_from_mode,
    fidelity,
    lincomb,
    optimal_gain,
    psa_ideal,
    reconstruct_12,
    reconstruct_2psa,
    reconstruct_ff,
    single_quadrature_readout,
    symplectic_correct,
    tv_point,
    variance,
)
from cvqss import cli, metrics, protocol
from cvqss.metrics import _pair, _scores
from cvqss.noise import MAX_SQUEEZING
from cvqss.optics import MAX_INTERACTION, feedforward_mix, phase_shift, psa_type2_pair
from cvqss.protocol import _feedforward_outputs, _psa2_outputs

from conftest import dealt, fields_close, secret_coefficient

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)
SQRT6 = math.sqrt(6.0)
SQRT24 = math.sqrt(24.0)
P = Quad.PLUS
M = Quad.MINUS


def ff_sweep(psi, shares, gains, etas, players=(2, 3), cross=False, epsilon=0.0):
    """The CLI's feedforward sweep: _feedforward_outputs tallied by _pair and
    scored by _scores, one list per eta of one score per gain (with cross, Metrics)."""
    variances = psi.basis._class_variances
    return [_scores(variances, *_pair(psi, outs, cross))
            for outs in _feedforward_outputs(shares, gains, etas, players, epsilon)]


def mode_ids(basis):
    """(secret, sqz1, sqz2, modulation, detectors) mode ids of a dealt basis."""
    vac = list(basis.modes_of_kind(ModeKind.VACUUM))
    sqz = list(basis.modes_of_kind(ModeKind.SQUEEZED))
    mod = list(basis.modes_of_kind(ModeKind.CLASSICAL_MODULATION))
    det = list(basis.modes_of_kind(ModeKind.DETECTOR_VACUUM))
    if sqz:  # type1 dealer: the only plain vacuum is the secret
        return vac[0], sqz[0], sqz[1], mod[0], det
    return vac[0], vac[1], vac[2], mod[0], det


def assert_coeffs(field, quad, expected, atol=1e-12):
    for src in set(field.coeffs(quad)) | set(expected):
        assert field.coeff(quad, src) == pytest.approx(
            expected.get(src, 0.0), abs=atol
        ), f"{quad} coefficient mismatch at {src}"


class TestDeal:
    def test_share_takes_the_player_numbers_only(self):
        _, shares = dealt(r=0.5)
        for i, share in zip((1, 2, 3), (shares.share1, shares.share2, shares.share3)):
            assert shares.share(i) is share
        for bad in (0, -1, 4, True, 1.0, "1", None):
            with pytest.raises(ValueError, match="share must be 1, 2 or 3"):
                shares.share(bad)

    def test_means_split_between_shares_1_and_2(self):
        psi, shares = dealt(r=0.0)
        assert shares.share1.mean_plus == pytest.approx(4.0 / SQRT2, abs=1e-12)
        assert shares.share1.mean_minus == pytest.approx(2.0 / SQRT2, abs=1e-12)
        assert shares.share3.mean_plus == 0.0

    @pytest.mark.parametrize("source", [EprSource.TYPE1, EprSource.TYPE2])
    @pytest.mark.parametrize("r,v_m", [(0.0, 0.0), (0.5, 0.0), (1.0, 100.0)])
    def test_share3_never_carries_the_secret(self, r, v_m, source):
        psi, shares = dealt(r, v_m, source)
        for quad in Quad:
            assert secret_coefficient(shares.share3, psi, quad) == 0.0

    def test_added_noise_is_balanced_between_shares(self):
        psi, shares = dealt(r=0.5, v_m=100.0)
        assert variance(shares.share1, P) == pytest.approx(
            variance(shares.share2, P), abs=1e-12
        )
        assert variance(shares.share1, M) == pytest.approx(
            variance(shares.share2, M), abs=1e-12
        )

    def test_share3_gains_the_full_modulation_power(self):
        psi_clean, clean = dealt(r=0.5, v_m=0.0)
        psi_noisy, noisy = dealt(r=0.5, v_m=100.0)
        bump = variance(noisy.share3, P) - variance(clean.share3, P)
        assert bump == pytest.approx(100.0, abs=1e-12)

    @pytest.mark.parametrize("source", [EprSource.TYPE1, EprSource.TYPE2])
    def test_one_modulation_mode_for_both_sources(self, source):
        # Anticorrelated in X+, correlated in X-: share 3 carries the mode as -X+_m, +X-_m.
        psi, shares = dealt(0.5, 10.0, source)
        (mod,) = psi.basis.modes_of_kind(ModeKind.CLASSICAL_MODULATION)
        assert shares.share3.coeff(P, (mod, P)) == -1.0
        assert shares.share3.coeff(M, (mod, M)) == 1.0
        assert shares.share3.coeff(P, (mod, M)) == 0.0
        assert shares.share3.coeff(M, (mod, P)) == 0.0

    def test_recoverability_structure(self):
        # share1 + share2 is the secret again; share1 - share2 carries none.
        psi, shares = dealt(r=0.7, v_m=10.0)
        summed = lincomb([(1 / SQRT2, shares.share1), (1 / SQRT2, shares.share2)])
        diffed = lincomb([(1 / SQRT2, shares.share1), (-1 / SQRT2, shares.share2)])
        assert fields_close(summed, psi)
        for quad in Quad:
            assert secret_coefficient(diffed, psi, quad) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("r, v_m", [
        ("0.5", 0.0), (None, 0.0), (True, 0.0), (False, 0.0),
        (0.5, "1"), (0.5, None), (0.5, True), (0.5, 1j),
    ])
    def test_squeezing_and_modulation_must_be_real_numbers(self, r, v_m):
        with pytest.raises(ValueError, match="real numbers"):
            DealerConfig(r, v_m)
        with pytest.raises(ValueError, match="real numbers"):
            DealerConfig(0.5)._replace(r=r, v_m=v_m)
        if v_m == 0.0:  # tv-curve checks r as its ScenarioConfig does
            with pytest.raises(ValueError, match="real numbers"):
                cli.tv_curve_records(r, [1.0], [None])

    def test_integer_squeezing_and_modulation_are_accepted(self):
        assert DealerConfig(1, 2) == DealerConfig(1.0, 2.0)
        scores = [tv_point(psi, shares.share1) for psi, shares in (dealt(1, 2), dealt(1.0, 2.0))]
        assert scores[0] == scores[1]

    @pytest.mark.parametrize("source", ["type1", "type2", "bogus", 3, None])
    def test_source_must_be_an_epr_source(self, source):
        with pytest.raises(ValueError, match=r"EprSource\.TYPE1 or EprSource\.TYPE2"):
            DealerConfig(0.5, 0.0, source)
        with pytest.raises(ValueError, match=r"EprSource\.TYPE1 or EprSource\.TYPE2"):
            DealerConfig(0.5)._replace(source=source)

    def test_non_coherent_secret_rejected(self, basis):
        squeezed = field_from_mode(basis, basis.squeezed(0.3))
        with pytest.raises(ValueError, match="coherent"):
            deal(squeezed, DealerConfig(0.5))
        scaled = lincomb([(2.0, field_from_mode(basis, basis.vacuum()))])
        with pytest.raises(ValueError, match="coherent"):
            deal(scaled, DealerConfig(0.5))

    def test_share_coefficients_in_the_squeezed_mode_picture(self):
        psi, shares = dealt(r=0.5, v_m=100.0)
        psi_id, s1, s2, m, _ = mode_ids(shares.share1.basis)
        q = 1.0 / (2.0 * SQRT2)
        assert_coeffs(shares.share1, P, {
            (psi_id, P): 1 / SQRT2, (s1, P): q, (s1, M): q,
            (s2, P): q, (s2, M): -q, (m, P): 1 / SQRT2,
        })
        assert_coeffs(shares.share1, M, {
            (psi_id, M): 1 / SQRT2, (s1, P): -q, (s1, M): q,
            (s2, P): q, (s2, M): q, (m, M): 1 / SQRT2,
        })
        assert_coeffs(shares.share2, P, {
            (psi_id, P): 1 / SQRT2, (s1, P): -q, (s1, M): -q,
            (s2, P): -q, (s2, M): q, (m, P): -1 / SQRT2,
        })
        assert_coeffs(shares.share3, P, {
            (s1, P): 0.5, (s1, M): -0.5, (s2, P): 0.5, (s2, M): 0.5, (m, P): -1.0,
        })
        assert_coeffs(shares.share3, M, {
            (s1, P): 0.5, (s1, M): 0.5, (s2, P): -0.5, (s2, M): 0.5, (m, M): 1.0,
        })


class TestMachZehnder:
    @pytest.mark.parametrize("source", [EprSource.TYPE1, EprSource.TYPE2])
    @pytest.mark.parametrize("r,v_m", [(0.0, 0.0), (0.5, 100.0), (2.0, 1.0)])
    def test_recovers_the_secret_exactly(self, r, v_m, source):
        psi, shares = dealt(r, v_m, source)
        out = reconstruct_12(shares)
        assert fields_close(out, psi)
        assert fidelity(psi, out) == pytest.approx(1.0, abs=1e-12)
        assert variance(out, P) == pytest.approx(1.0, abs=1e-12)
        assert variance(out, M) == pytest.approx(1.0, abs=1e-12)

    def test_leftover_port_carries_no_secret(self):
        psi, shares = dealt(r=0.5, v_m=100.0)
        _, leftover = beam_splitter(shares.share1, shares.share2, 0.5)
        for quad in Quad:
            assert abs(secret_coefficient(leftover, psi, quad)) <= 1e-12


class TestTwoPsa:
    def test_strong_entanglement_recovers_the_secret(self):
        psi, shares = dealt(r=8.0)
        out = reconstruct_2psa(shares, PSA_GAIN_OPTIMAL)
        for quad in Quad:
            assert variance(out, quad) - 1.0 < 2.3e-7
            assert out.mean(quad) == pytest.approx(psi.mean(quad), abs=1e-9)

    @pytest.mark.parametrize("source", [EprSource.TYPE1, EprSource.TYPE2])
    @pytest.mark.parametrize("r", [0.0, 0.25, 0.5, 1.0, 2.0])
    def test_residual_noise_both_sources(self, r, source):
        psi, shares = dealt(r, 0.0, source)
        out = reconstruct_2psa(shares, PSA_GAIN_OPTIMAL)
        for quad in Quad:
            assert variance(out, quad) - variance(psi, quad) == pytest.approx(
                2.0 * math.exp(-2.0 * r), abs=1e-9
            )

    def test_residuals_live_in_the_squeezed_quadratures(self):
        # Type-1 source, optimal gain: the only leftover terms ride on the
        # squeezed components of the two input modes, in both output
        # quadratures.
        psi, shares = dealt(r=0.5)
        psi_id, s1, s2, _, _ = mode_ids(shares.share1.basis)
        out = reconstruct_2psa(shares, PSA_GAIN_OPTIMAL)
        assert_coeffs(out, P, {(psi_id, P): 1.0, (s1, P): -1.0, (s2, P): -1.0})
        assert_coeffs(out, M, {(psi_id, M): 1.0, (s1, P): 1.0, (s2, P): -1.0})

    def test_secret_gain_at_general_setting(self):
        psi, shares = dealt(r=0.5)
        for gain in (1.0, 2.0, PSA_GAIN_OPTIMAL, 9.0):
            out = reconstruct_2psa(shares, gain)
            expected = (math.sqrt(gain) + 1.0 / math.sqrt(gain)) / (2.0 * SQRT2)
            for quad in Quad:
                assert secret_coefficient(out, psi, quad) == pytest.approx(
                    expected, abs=1e-12
                )

    def test_unused_port_is_informationally_empty_with_strong_entanglement(self):
        psi, shares = dealt(r=8.0)
        _, out2 = _psa2_outputs(shares, PSA_GAIN_OPTIMAL, (2, 3))
        m = evaluate(psi, out2)
        assert m.t_plus < 1e-5 and m.t_minus < 1e-5

    def test_fidelity_limit(self):
        psi, shares = dealt(r=0.5)
        out = reconstruct_2psa(shares, PSA_GAIN_OPTIMAL)
        assert fidelity(psi, out) == pytest.approx(0.7310585786300049, abs=1e-9)

    def test_invalid_gain_rejected(self):
        _, shares = dealt(r=0.5)
        with pytest.raises(ValueError):
            reconstruct_2psa(shares, 0.0)

    def test_pair_13_matches_pair_23(self):
        psi, shares = dealt(r=0.5)
        a = reconstruct_2psa(shares, PSA_GAIN_OPTIMAL, players=(2, 3))
        b = reconstruct_2psa(shares, PSA_GAIN_OPTIMAL, players=(1, 3))
        for quad in Quad:
            assert variance(a, quad) == pytest.approx(variance(b, quad), abs=1e-12)
            assert a.mean(quad) == pytest.approx(b.mean(quad), abs=1e-12)

    def test_pair_12_redirected(self):
        _, shares = dealt(r=0.5)
        with pytest.raises(ValueError, match="reconstruct_12"):
            reconstruct_2psa(shares, PSA_GAIN_OPTIMAL, players=(1, 2))


class TestCollaborationBeams:
    def test_splitter_output_coefficients(self):
        psi, shares = dealt(r=0.5, v_m=100.0)
        psi_id, s1, s2, m, _ = mode_ids(shares.share1.basis)
        kept, detected = collaboration_beams(shares)
        assert_coeffs(kept, P, {
            (psi_id, P): 1 / SQRT3, (s1, M): -1 / SQRT3,
            (s2, M): 1 / SQRT3, (m, P): -2 / SQRT3,
        })
        assert_coeffs(kept, M, {
            (psi_id, M): 1 / SQRT3, (s1, P): 1 / SQRT3, (s2, P): -1 / SQRT3,
        })
        assert_coeffs(detected, P, {
            (s1, M): 1 / SQRT24, (s2, M): -1 / SQRT24,
            (s1, P): -3 / SQRT24, (s2, P): -3 / SQRT24,
            (psi_id, P): 2 / SQRT24, (m, P): 2 / SQRT24,
        })
        assert_coeffs(detected, M, {
            (s2, P): 1 / SQRT24, (s1, P): -1 / SQRT24,
            (s1, M): -3 / SQRT24, (s2, M): -3 / SQRT24,
            (psi_id, M): 2 / SQRT24, (m, M): -6 / SQRT24,
        })

    def test_kept_beam_means(self):
        psi, shares = dealt(r=0.5)
        kept, detected = collaboration_beams(shares)
        assert kept.mean_plus == pytest.approx(psi.mean_plus / SQRT3, abs=1e-12)
        assert kept.mean_minus == pytest.approx(psi.mean_minus / SQRT3, abs=1e-12)
        assert detected.mean_plus == pytest.approx(psi.mean_plus / SQRT6, abs=1e-12)


class TestPhotocurrentRegression:
    @pytest.mark.parametrize("eta", [1.0, 0.9])
    def test_detected_current_coefficients(self, eta):
        psi, shares = dealt(r=0.5, v_m=100.0)
        basis = shares.share1.basis
        psi_id, s1, s2, m, _ = mode_ids(basis)
        _, detected = collaboration_beams(shares)
        d = basis.detector()
        current = detect(detected, eta, d)
        se = math.sqrt(eta)
        expected = {
            (s1, M): se / SQRT24, (s2, M): -se / SQRT24,
            (s1, P): -3 * se / SQRT24, (s2, P): -3 * se / SQRT24,
            (psi_id, P): 2 * se / SQRT24, (m, P): 2 * se / SQRT24,
        }
        if eta < 1.0:
            expected[(d, P)] = math.sqrt(1.0 - eta)
        for src in set(current.beam.coeffs_plus) | set(expected):
            assert current.beam.coeffs_plus.get(src, 0.0) == pytest.approx(
                expected.get(src, 0.0), abs=1e-12
            )
        assert current.beam.mean_plus == pytest.approx(se * psi.mean_plus / SQRT6, abs=1e-12)


class TestFeedforward:
    def test_cancellation_at_optimal_gain(self):
        psi, shares = dealt(r=0.5, v_m=100.0)
        psi_id, s1, s2, m, _ = mode_ids(shares.share1.basis)
        out = reconstruct_ff(shares, FF_GAIN_OPTIMAL, 1.0)
        (det,) = out.basis.modes_of_kind(ModeKind.DETECTOR_VACUUM)
        # anti-squeezed, modulation and detector terms all vanish
        for src in ((s1, M), (s2, M), (m, P), (m, M), (det, P)):
            assert abs(out.coeff(P, src)) < 1e-12
        assert out.coeff(P, (psi_id, P)) == pytest.approx(SQRT3, abs=1e-12)
        assert out.coeff(M, (psi_id, M)) == pytest.approx(1 / SQRT3, abs=1e-12)
        assert out.coeff(P, (s1, P)) == pytest.approx(-SQRT3, abs=1e-12)
        assert out.coeff(P, (s2, P)) == pytest.approx(-SQRT3, abs=1e-12)

    def test_zero_gain_returns_the_kept_beam(self):
        psi, shares = dealt(r=0.5, v_m=100.0)
        kept, _ = collaboration_beams(shares)
        out = reconstruct_ff(shares, 0.0, 0.8)
        assert out.mean_plus == kept.mean_plus
        assert dict(out.coeffs_plus) == dict(kept.coeffs_plus)

    @pytest.mark.parametrize("gain", [0.0, 1.0, 2.0, FF_GAIN_OPTIMAL, 4.0])
    def test_output_coefficients_at_general_gain(self, gain):
        psi, shares = dealt(r=0.5, v_m=100.0)
        psi_id, s1, s2, m, _ = mode_ids(shares.share1.basis)
        eta = 0.9
        out = reconstruct_ff(shares, gain, eta)
        (det,) = out.basis.modes_of_kind(ModeKind.DETECTOR_VACUUM)
        anti = gain / (2.0 * SQRT6) - 1.0 / SQRT3
        expected_plus = {
            (psi_id, P): 1.0 / SQRT3 + gain / SQRT6,
            (s1, M): anti,
            (s2, M): -anti,
            (s1, P): -(gain / 2.0) * math.sqrt(1.5),
            (s2, P): -(gain / 2.0) * math.sqrt(1.5),
            (m, P): gain / SQRT6 - 2.0 / SQRT3,
        }
        if gain > 0.0:
            expected_plus[(det, P)] = gain * math.sqrt((1.0 - eta) / eta)
        assert_coeffs(out, P, expected_plus)
        assert_coeffs(out, M, {
            (psi_id, M): 1.0 / SQRT3, (s1, P): 1.0 / SQRT3, (s2, P): -1.0 / SQRT3,
        })

    def test_secret_phase_transfer_is_always_one_over_sqrt3(self):
        for gain in (0.0, 1.0, 3.0):
            psi, shares = dealt(r=1.0, v_m=1.0)
            out = reconstruct_ff(shares, gain, 0.7)
            assert secret_coefficient(out, psi, M) == pytest.approx(
                1.0 / SQRT3, abs=1e-12
            )

    def test_means_are_scaled_like_the_fluctuations(self):
        psi, shares = dealt(r=0.5)
        out = reconstruct_ff(shares, FF_GAIN_OPTIMAL, 1.0)
        assert out.mean_plus == pytest.approx(SQRT3 * psi.mean_plus, abs=1e-12)
        assert out.mean_minus == pytest.approx(psi.mean_minus / SQRT3, abs=1e-12)

    def test_invalid_parameters_rejected(self):
        _, shares = dealt(r=0.5)
        with pytest.raises(ValueError):
            reconstruct_ff(shares, -1.0, 1.0)
        with pytest.raises(ValueError):
            reconstruct_ff(shares, 1.0, 0.0)

    @pytest.mark.parametrize("gain", [0.0, 1.3, FF_GAIN_OPTIMAL])
    def test_pair_13_matches_pair_23(self, gain):
        psi, shares = dealt(r=0.5, v_m=100.0)
        a = reconstruct_ff(shares, gain, 0.9, players=(2, 3))
        b = reconstruct_ff(shares, gain, 0.9, players=(1, 3))
        assert tv_point(psi, a) == pytest.approx(tv_point(psi, b), abs=1e-12)

    def test_finite_mixing_splitter_converges_to_the_limit(self):
        # epsilon = 0 is the exact high-reflectivity limit; finite epsilon
        # attenuates the kept beam and admits oscillator vacuum at sqrt(eps).
        psi, shares = dealt(r=0.5)
        exact = reconstruct_ff(shares, FF_GAIN_OPTIMAL, 1.0)
        leaky = reconstruct_ff(shares, FF_GAIN_OPTIMAL, 1.0, epsilon=1e-6)
        for quad in Quad:
            assert variance(leaky, quad) == pytest.approx(
                variance(exact, quad), abs=1e-5
            )
        worse = reconstruct_ff(shares, FF_GAIN_OPTIMAL, 1.0, epsilon=0.05)
        assert variance(worse, M) > variance(exact, M)
        # only the kept beam is attenuated; the fed-forward signal is not
        kept, detected = collaboration_beams(shares)
        expected_mean = math.sqrt(0.95) * kept.mean_plus + FF_GAIN_OPTIMAL * detected.mean_plus
        assert abs(worse.mean_plus - expected_mean) < 1e-12

    def test_finite_mixing_needs_a_valid_epsilon(self):
        _, shares = dealt(r=0.5)
        with pytest.raises(ValueError):
            reconstruct_ff(shares, 1.0, 1.0, epsilon=1.0)

    def test_reconstructions_share_the_deals_detector(self):
        _, shares = dealt(r=0.5, v_m=100.0)
        basis = shares.share1.basis
        assert basis.kind(shares.detector) is ModeKind.DETECTOR_VACUUM
        size = len(basis)
        outs = [reconstruct_ff(shares, gain, 0.9) for gain in (1.3, FF_GAIN_OPTIMAL)]
        assert len(basis) == size
        for out in outs:
            assert out.coeff(P, (shares.detector, P)) != 0.0

    def test_reconstructions_share_the_deals_oscillator(self):
        # deal declares the oscillator vacuum after the detector: mode 5, in
        # the secret's vacuum class, where a per-call registration put it
        psi, shares = dealt(r=0.5, v_m=100.0)
        basis = psi.basis
        (secret_plus,) = psi.coeffs_plus
        assert (shares.detector, shares.oscillator) == (4, 5) and len(basis) == 6
        assert basis.kind(shares.oscillator) is ModeKind.VACUUM
        assert basis._classes[(5, P)] == basis._classes[secret_plus]
        outs = [reconstruct_ff(shares, gain, 0.9, players, epsilon=0.1)
                for gain in (1.3, FF_GAIN_OPTIMAL) for players in ((2, 3), (1, 3))]
        assert len(basis) == 6
        for out in outs:
            for quad in Quad:
                assert out.coeff(quad, (shares.oscillator, quad)) == math.sqrt(0.1)

    def test_finite_mixing_needs_a_fresh_oscillator_vacuum(self):
        # admitting the secret's own mode as the oscillator would give
        # T_q = 0.772 here instead of 1.070
        psi, shares = dealt(r=0.5)
        t_q, _ = tv_point(psi, reconstruct_ff(shares, 2.0, 1.0, epsilon=0.1))
        assert t_q == pytest.approx(1.0703088477574343, rel=1e-12)
        (secret_mode, _), = psi.coeffs_plus
        kept, detected = collaboration_beams(shares)
        current = detect(detected, 1.0, shares.detector)
        for mode in (secret_mode, shares.detector, 1, None):  # 1 is squeezed
            with pytest.raises(ValueError, match="oscillator"):
                feedforward_mix(kept, current, 2.0, 0.1, mode)


class TestFeedforwardSweep:
    @settings(max_examples=150, deadline=None)
    @given(
        r=st.one_of(st.floats(0.0, 4.0), st.floats(0.0, 20.0)),
        v_m=st.one_of(st.just(0.0), st.floats(0.0, 100.0), st.floats(0.0, 1e6)),
        source=st.sampled_from(EprSource),
        players=st.sampled_from([(2, 3), (1, 3)]),
        eta=st.one_of(st.just(1.0), st.floats(0.0, 1.0, exclude_min=True)),
        gains=st.lists(st.floats(0.0, 8.0), max_size=4).map(
            lambda gs: [0.0, FF_GAIN_OPTIMAL, *gs]
        ),
        means=st.tuples(st.floats(0.5, 10.0), st.floats(-10.0, -0.5)),
    )
    def test_each_entry_is_the_single_gain_reconstruction(
        self, r, v_m, source, players, eta, gains, means
    ):
        psi, shares = dealt(r, v_m, source, means)
        size = len(psi.basis)
        (swept,) = ff_sweep(psi, shares, gains, (eta,), players, cross=True)
        assert len(psi.basis) == size
        assert len(swept) == len(gains)
        for gain, scores in zip(gains, swept):
            field = evaluate(psi, reconstruct_ff(shares, gain, eta, players))
            # no tolerance: the sweep repeats the field path's float operations.
            # repr equality is float equality that also matches nan to nan
            # (an eta near 0 overflows both paths alike)
            fields = ("fidelity", "t_plus", "t_minus", "vcv_plus", "vcv_minus")
            assert repr([getattr(scores, f) for f in fields]) == repr(
                [getattr(field, f) for f in fields]
            )

    @given(
        gains=st.lists(st.floats(0.0, 8.0), max_size=4),
        bad=st.floats(max_value=0.0, exclude_max=True),
        at=st.integers(0, 4),
        epsilon=st.sampled_from([0.0, 0.01]),
    )
    def test_negative_gain_rejected(self, gains, bad, at, epsilon):
        psi, shares = dealt(r=0.5)
        size = len(shares.share1.basis)
        gains.insert(at, bad)
        with pytest.raises(ValueError):
            ff_sweep(psi, shares, gains, (0.9,), cross=True)
        with pytest.raises(ValueError):
            ff_sweep(psi, shares, gains, [1.0, 0.9])
        with pytest.raises(ValueError):
            reconstruct_ff(shares, bad, 0.9, epsilon=epsilon)
        assert len(shares.share1.basis) == size

    @given(
        eta=st.one_of(
            st.floats(max_value=0.0),
            st.floats(min_value=1.0, exclude_min=True),
            st.just(math.nan),
        ),
        epsilon=st.sampled_from([0.0, 0.01]),
    )
    def test_efficiency_outside_unit_interval_rejected(self, eta, epsilon):
        psi, shares = dealt(r=0.5)
        size = len(shares.share1.basis)
        with pytest.raises(ValueError):
            ff_sweep(psi, shares, [0.0, 1.0], (eta,), cross=True)
        with pytest.raises(ValueError):
            ff_sweep(psi, shares, [0.0, 1.0], [1.0, eta])
        with pytest.raises(ValueError):
            reconstruct_ff(shares, 1.0, eta, epsilon=epsilon)
        assert len(shares.share1.basis) == size


class TestFeedforwardTvSweep:
    @settings(max_examples=150, deadline=None)
    @given(
        r=st.one_of(st.floats(0.0, 4.0), st.floats(0.0, 20.0)),
        v_m=st.one_of(st.just(0.0), st.floats(0.0, 100.0), st.floats(0.0, 1e6)),
        source=st.sampled_from(EprSource),
        players=st.sampled_from([(2, 3), (1, 3)]),
        etas=st.lists(
            st.one_of(st.just(1.0), st.floats(0.0, 1.0, exclude_min=True)),
            min_size=1, max_size=3,
        ),
        gains=st.lists(st.floats(0.0, 8.0), max_size=4).map(
            lambda gs: [0.0, FF_GAIN_OPTIMAL, *gs]
        ),
        means=st.tuples(st.floats(0.5, 10.0), st.floats(-10.0, -0.5)),
    )
    def test_each_entry_is_the_single_gain_tv_point(
        self, r, v_m, source, players, etas, gains, means
    ):
        psi, shares = dealt(r, v_m, source, means)
        size = len(psi.basis)
        swept = ff_sweep(psi, shares, gains, etas, players)
        assert len(psi.basis) == size
        assert [len(sweep) for sweep in swept] == [len(gains)] * len(etas)
        for eta, sweep in zip(etas, swept):
            for gain, point in zip(gains, sweep):
                field = tv_point(psi, reconstruct_ff(shares, gain, eta, players))
                # no tolerance, and repr matches nan to nan (an eta near 0
                # overflows both paths alike)
                assert repr(point) == repr(field)

    def test_verify_computes_fidelity_only_in_its_fidelity_family(self, monkeypatch):
        # every fidelity, swept or from a field, goes through metrics._overlap
        calls = []
        overlap = metrics._overlap

        def counted(*args):
            calls.append(args)
            return overlap(*args)

        for module in (metrics, protocol, cli):
            if hasattr(module, "_overlap"):
                monkeypatch.setattr(module, "_overlap", counted)
        r_values = (0.0, 0.5, 2.0)
        summary = cli.verify_grid(r_values)
        assert summary["families"]["feedforward_fidelity"]["count"] == len(r_values)
        # one raw and one corrected fidelity per r; the feedforward_tv points
        # (2 eta x 3 v_m x 17 gains per r) compute none
        assert len(calls) == 2 * len(r_values)


class TestFeedforwardEpsilonSweep:
    """The loop adds the photocurrent to X+ only, so every output of one sweep
    shares its X-, at epsilon > 0 too: the oscillator vacuum enters that X-."""

    @settings(max_examples=100, deadline=None)
    @given(
        r=st.floats(0.0, 4.0),
        v_m=st.one_of(st.just(0.0), st.floats(0.0, 100.0)),
        source=st.sampled_from(EprSource),
        players=st.sampled_from([(2, 3), (1, 3)]),
        eta=st.one_of(st.just(1.0), st.floats(0.0, 1.0, exclude_min=True)),
        epsilon=st.floats(0.0, 0.99, exclude_min=True, exclude_max=True),
        gains=st.lists(st.floats(0.0, 8.0), max_size=3).map(
            lambda gs: [0.0, FF_GAIN_OPTIMAL, *gs]
        ),
        means=st.tuples(st.floats(0.5, 10.0), st.floats(-10.0, -0.5)),
    )
    def test_each_entry_is_the_single_gain_reconstruction(
        self, r, v_m, source, players, eta, epsilon, gains, means
    ):
        psi, shares = dealt(r, v_m, source, means)
        (swept,) = ff_sweep(psi, shares, gains, (eta,), players, cross=True, epsilon=epsilon)
        (points,) = ff_sweep(psi, shares, gains, (eta,), players, epsilon=epsilon)
        assert len(swept) == len(points) == len(gains)
        for gain, scores, point in zip(gains, swept, points):
            out = reconstruct_ff(shares, gain, eta, players, epsilon)
            # no tolerance, and repr matches nan to nan
            assert repr(scores) == repr(evaluate(psi, out))
            assert repr(point) == repr(tv_point(psi, out))


class TestDealOnce:
    """verify, table and tv-curve deal once and score every (r, v_m) from
    that deal's class variances; this pins the facts they rest on."""

    POINTS = [(0.0, 0.0), (0.5, 1.0), (4.0, 100.0)]

    def test_type1_coefficients_do_not_depend_on_r_or_v_m(self):
        layouts = set()
        for r, v_m in self.POINTS:
            _, shares = dealt(r, v_m)
            # keys, their order and the floats; repr tells -0.0 from 0.0
            layouts.add(repr([
                (list(s.coeffs_plus.items()), list(s.coeffs_minus.items()), s.mean_plus,
                 s.mean_minus) for s in shares[:3]
            ] + [shares.detector]))
        assert len(layouts) == 1

    @pytest.mark.parametrize("r, v_m", [*POINTS, (2.0, 0.0), (0.0, 1e6)])
    def test_class_variances_are_those_of_a_fresh_deal(self, r, v_m):
        psi, _ = dealt(0.5, 1.0)
        fresh, _ = dealt(r, v_m)
        assert fresh.basis._classes == psi.basis._classes
        assert repr(psi.basis.class_variances(r, v_m)) == repr(fresh.basis._class_variances)

    @pytest.mark.parametrize("r, v_m, message", [
        (math.nan, 0.0, "finite and nonnegative"),
        (math.inf, 0.0, "finite and nonnegative"),
        (0.5, math.nan, "finite and nonnegative"),
        (0.5, math.inf, "finite and nonnegative"),
        (-1.0, 0.0, "finite and nonnegative"),
        (0.5, -1.0, "finite and nonnegative"),
        pytest.param(0.5, 2**2000, "finite and nonnegative", id="an int no float holds"),
        (True, 0.0, "real numbers"),
        (0.5, "1", "real numbers"),
        (400.0, 0.0, re.escape(repr(MAX_SQUEEZING))),
    ])
    def test_class_variances_reject_what_the_dealer_rejects(self, r, v_m, message):
        psi, _ = dealt(0.5, 1.0)
        for build in (lambda: psi.basis.class_variances(r, v_m), lambda: DealerConfig(r, v_m)):
            with pytest.raises(ValueError, match=message):
                build()


class TestDealerNetwork:
    """deal runs _noise_beams on the deal's own basis; _dealt reuses the
    shares dealt once per source, and runs no network per call."""

    @staticmethod
    def snapshot(shares):
        basis = shares.share1.basis
        return repr((
            [(s.mean_plus, s.mean_minus, list(s.coeffs_plus.items()), list(s.coeffs_minus.items()))
             for s in shares[:3]],
            shares[3:], basis._kinds, [(k, basis.source_variance(k)) for k in basis._classes],
            list(basis._classes.items()), basis._class_variances,
        ))

    @staticmethod
    def basis_with(modes):
        basis = NoiseBasis()
        for kind, x in modes:
            if kind in ("vacuum", "detector"):
                getattr(basis, kind)()
            else:
                getattr(basis, kind)(x)
        return basis

    @settings(max_examples=150, deadline=None)
    @given(
        r=st.one_of(st.just(0.0), st.floats(0.0, 20.0)),
        v_m=st.one_of(st.just(0.0), st.floats(0.0, 1e6)),
        means=st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)),
        source=st.sampled_from(EprSource),
        modes=st.lists(st.tuples(
            st.sampled_from(["vacuum", "squeezed", "modulation", "detector"]), st.floats(0.0, 3.0),
        ), max_size=4),
    )
    def test_equals_the_network_run_on_the_deals_basis(self, r, v_m, means, source, modes):
        config = DealerConfig(r, v_m, source)
        basis, twin = self.basis_with(modes), self.basis_with(modes)
        shares = deal(field_from_mode(basis, basis.vacuum(), *means), config)
        secret = field_from_mode(twin, twin.vacuum(), *means)
        beam1, beam2 = protocol._noise_beams(twin, config)
        share1, share2 = beam_splitter(secret, beam1, 0.5)
        reference = protocol.Shares(share1, share2, beam2, twin.detector(), twin.vacuum())
        assert self.snapshot(shares) == self.snapshot(reference)

    @pytest.mark.parametrize("source", EprSource)
    def test_deals_share_the_templates_dicts_and_modes(self, source):
        # no dict is copied: only share 1 and 2 and the secret get fresh means
        template_secret, template = protocol._dealer(source)
        for means in ((4.0, 2.0), (-1.5, 0.0)):
            secret, shares = protocol._dealt(means, source)
            assert (secret.mean_plus, secret.mean_minus) == means
            assert shares.share3 is template.share3 and shares[3:] == template[3:]
            for fld, owner in zip((secret, *shares[:3]), (template_secret, *template[:3])):
                assert fld.basis is template_secret.basis
                assert fld.coeffs_plus is owner.coeffs_plus
                assert fld.coeffs_minus is owner.coeffs_minus

    @pytest.mark.parametrize("source", EprSource)
    def test_a_second_deal_runs_no_network(self, source, monkeypatch):
        expected = self.snapshot(protocol._dealt((4.0, 2.0), source)[1])
        basis = NoiseBasis()
        secret = field_from_mode(basis, basis.vacuum())

        def refuse(*args):
            raise AssertionError("the dealer network was built again")

        monkeypatch.setattr(protocol, "_noise_beams", refuse)
        monkeypatch.setattr(protocol, "phase_modulate", refuse)
        monkeypatch.setattr(NoiseBasis, "register", refuse)
        assert self.snapshot(protocol._dealt((4.0, 2.0), source)[1]) == expected
        with pytest.raises(AssertionError, match="built again"):
            deal(secret, DealerConfig(1.0, 2.0, source))


class TestDerivedBeamKeys:
    """The algebra builds its beams without FieldState's key check; this
    checks instead that every key it produces is a registered source."""

    @staticmethod
    def assert_registered(field, basis):
        assert field.basis is basis
        for src in [*field.coeffs_plus, *field.coeffs_minus]:
            mid, quad = src
            assert type(mid) is int and type(quad) is Quad, src
            basis.kind(mid)
            basis.source_variance(src)

    @settings(max_examples=100, deadline=None)
    @given(
        r=st.floats(0.0, 20.0),
        v_m=st.one_of(st.just(0.0), st.floats(0.0, 1e6)),
        source=st.sampled_from(EprSource),
        players=st.sampled_from([(2, 3), (1, 3)]),
        psa_gain=st.one_of(st.just(PSA_GAIN_OPTIMAL), st.floats(0.01, 100.0)),
        ff_gain=st.one_of(st.just(0.0), st.just(FF_GAIN_OPTIMAL), st.floats(0.0, 8.0)),
        eta=st.one_of(st.just(1.0), st.floats(0.0, 1.0, exclude_min=True)),
        epsilon=st.floats(0.0, 0.5, exclude_min=True),
        scale=st.one_of(st.just(FF_SYMPLECTIC_SCALE), st.floats(0.1, 10.0)),
    )
    def test_every_pipeline_key_is_a_registered_source(
        self, r, v_m, source, players, psa_gain, ff_gain, eta, epsilon, scale
    ):
        psi, shares = dealt(r, v_m, source)
        basis = psi.basis
        kept, detected = collaboration_beams(shares, players)
        current = detect(detected, eta, shares.detector)
        raw = reconstruct_ff(shares, ff_gain, eta, players)
        beams = [
            *shares[:3],
            reconstruct_12(shares),
            reconstruct_2psa(shares, psa_gain, players),
            raw,
            current.beam,
            feedforward_mix(kept, current, ff_gain, epsilon, shares.oscillator),
            reconstruct_ff(shares, ff_gain, eta, players, epsilon),
            symplectic_correct(raw, scale),
        ]
        for beam in beams:
            self.assert_registered(beam, basis)


class TestSymplecticCorrect:
    def test_unit_scale_is_identity(self, basis):
        fld = field_from_mode(basis, basis.vacuum(), 1.0, 2.0)
        assert fields_close(symplectic_correct(fld, 1.0), fld)

    @pytest.mark.parametrize("r", [0.0, 0.5, 1.0, 2.0])
    def test_corrected_output_noise(self, r):
        psi, shares = dealt(r)
        out = symplectic_correct(
            reconstruct_ff(shares, FF_GAIN_OPTIMAL, 1.0), FF_SYMPLECTIC_SCALE
        )
        for quad in Quad:
            assert variance(out, quad) == pytest.approx(
                1.0 + 2.0 * math.exp(-2.0 * r), abs=1e-9
            )
            assert out.mean(quad) == pytest.approx(psi.mean(quad), abs=1e-12)

    @pytest.mark.parametrize("r", [0.0, 0.5, 1.0, 2.0])
    def test_corrected_fidelity_matches_the_psa_scheme(self, r):
        psi, shares = dealt(r)
        corrected = symplectic_correct(
            reconstruct_ff(shares, FF_GAIN_OPTIMAL, 1.0), FF_SYMPLECTIC_SCALE
        )
        assert fidelity(psi, corrected) == pytest.approx(
            1.0 / (1.0 + math.exp(-2.0 * r)), abs=1e-9
        )

    def test_invalid_scale_rejected(self, basis):
        fld = field_from_mode(basis, basis.vacuum())
        with pytest.raises(ValueError):
            symplectic_correct(fld, 0.0)

    @pytest.mark.parametrize("scale", [1e-200, 1e-160, 7.4e-155, 1.4e154, 1e200])
    def test_a_scale_whose_gain_is_no_positive_finite_float_is_refused_by_name(self, basis, scale):
        # scale^2 underflows to 0 or overflows, or 1/scale^2 overflows: the gain is 1/0, inf or 0
        fld = field_from_mode(basis, basis.vacuum())
        with pytest.raises(ValueError, match=r"scale .* leaves 1/scale\^2 no positive finite float"):
            symplectic_correct(fld, scale)

    @pytest.mark.parametrize("scale", [7.5e-155, 1e154])
    def test_the_extreme_scales_whose_gain_is_a_float_are_taken(self, basis, scale):
        mid = basis.vacuum()
        out = symplectic_correct(field_from_mode(basis, mid), scale)
        s = math.sqrt(1.0 / (scale * scale))
        assert out.coeffs_plus == {(mid, P): s}
        assert out.coeffs_minus == {(mid, M): 1.0 / s}


class TestSingleQuadrature:
    def test_zero_gain_is_share2_homodyne(self):
        psi, shares = dealt(r=0.5)
        est = single_quadrature_readout(shares, 0.0)
        assert est.mean(P) == shares.share2.mean_plus
        assert variance(est, P) == pytest.approx(variance(shares.share2, P), abs=1e-15)

    @pytest.mark.parametrize("gain", [math.nan, math.inf, -math.inf])
    def test_a_non_finite_gain_is_rejected(self, gain):
        # as feedforward_mix and psa_ideal reject theirs: no score can be read off a beam of NaNs
        psi, shares = dealt(r=0.5)
        with pytest.raises(ValueError, match="single-quadrature gain must be finite"):
            single_quadrature_readout(shares, gain)

    def test_strong_entanglement_recovers_the_signal_classically(self):
        # Brute-force gain grid (coarse, then refined around the bracket):
        # the normalized estimator noise approaches the secret's own variance.
        psi, shares = dealt(r=8.0)

        def var_at(g):
            return variance(single_quadrature_readout(shares, g), P)

        coarse = [-2.0 + 4.0 * k / 4000 for k in range(4001)]
        g0 = min(coarse, key=var_at)
        fine = [g0 - 1e-3 + 2e-3 * k / 4000 for k in range(4001)]
        best = min(var_at(g) for g in fine)
        secret_weight = 1.0 / SQRT2  # share 2 carries the secret at 1/sqrt(2)
        normalized = best / secret_weight**2
        assert abs(normalized - variance(psi, P)) < 1e-6

    def test_classical_duplication_bound_without_entanglement(self):
        psi, shares = dealt(r=0.0)
        for gain_p in (-1.0, 0.0, 0.5, 1.0):
            for gain_m in (-1.0, 0.0, 0.5, 1.0):
                est_p = single_quadrature_readout(shares, gain_p)
                est_m = single_quadrature_readout(shares, gain_m)
                t_plus = (est_p.mean(P) ** 2 / variance(est_p, P)) / (psi.mean_plus**2 / 1.0)
                t_minus = (est_m.mean(M) ** 2 / variance(est_m, M)) / (psi.mean_minus**2 / 1.0)
                assert t_plus + t_minus <= 1.0 + 1e-12


class TestClosedFormEquivalence:
    @pytest.mark.parametrize("source", [EprSource.TYPE1, EprSource.TYPE2])
    def test_feedforward_matches_closed_forms_on_a_small_grid(self, source):
        from cvqss import closed_form

        for r in (0.0, 0.5, 2.0):
            for v_m in (0.0, 100.0):
                psi, shares = dealt(r, v_m, source)
                for eta in (1.0, 0.9):
                    for gain in (0.0, 1.5, FF_GAIN_OPTIMAL, 4.0):
                        sim = tv_point(psi, reconstruct_ff(shares, gain, eta))
                        ref = closed_form("ff_cp", r, v_m, eta, gain)
                        assert sim[0] == pytest.approx(ref[0], abs=1e-9)
                        assert sim[1] == pytest.approx(ref[1], abs=1e-9)


NAN, INF = float("nan"), float("inf")


def _shares():
    return dealt(r=0.5)[1]


def _splitter(phase):
    shares = _shares()
    return beam_splitter(shares.share1, shares.share3, 0.5, phase=phase)


def _type2_pair(r):
    shares = _shares()
    return psa_type2_pair(shares.share1, shares.share3, r)


def _mix(gain, epsilon=0.0):
    shares = _shares()
    kept, detected = collaboration_beams(shares)
    current = detect(detected, 1.0, shares.detector)
    return feedforward_mix(kept, current, gain, epsilon, shares.oscillator)


@pytest.mark.parametrize(
    "build",
    [
        lambda: DealerConfig(NAN),
        lambda: DealerConfig(0.5, INF),
        lambda: NoiseBasis().modulation(NAN),
        lambda: NoiseBasis().squeezed(INF),
        lambda: NoiseBasis().register(ModeKind.CLASSICAL_MODULATION, INF, INF),
        lambda: psa_ideal(_shares().share1, NAN),
        lambda: psa_ideal(_shares().share1, INF),
        lambda: reconstruct_2psa(_shares(), NAN),
        lambda: reconstruct_ff(_shares(), NAN),
        lambda: reconstruct_ff(_shares(), INF),
        lambda: ff_sweep(*dealt(r=0.5), [1.0, NAN], (1.0,), cross=True),
        lambda: ff_sweep(*dealt(r=0.5), [1.0, INF], [1.0, 0.9]),
        lambda: symplectic_correct(_shares().share1, NAN),
        lambda: symplectic_correct(_shares().share1, INF),
        lambda: optimal_gain(0.5, 0.0, NAN),
        lambda: optimal_gain(0.5, 0.0, INF),
        lambda: phase_shift(_shares().share1, NAN),
        lambda: phase_shift(_shares().share1, INF),
        lambda: _splitter(NAN),
        lambda: _type2_pair(NAN),
        lambda: _type2_pair(INF),
        lambda: _mix(NAN),
        lambda: _mix(INF),
        lambda: _mix(1.0, NAN),
        lambda: _mix(1.0, INF),
    ],
    ids=[
        "dealer-r-nan", "dealer-vm-inf", "modulation-nan", "squeezed-inf",
        "register-inf", "psa-nan", "psa-inf", "2psa-nan", "ff-nan", "ff-inf",
        "sweep-nan", "tv-sweep-inf", "symplectic-nan", "symplectic-inf", "optimal-gain-eta-nan",
        "optimal-gain-eta-inf", "phase-shift-nan", "phase-shift-inf", "splitter-phase-nan",
        "type2-pair-nan", "type2-pair-inf", "mix-gain-nan", "mix-gain-inf", "mix-epsilon-nan",
        "mix-epsilon-inf",
    ],
)
def test_non_finite_input_is_rejected(build):
    with pytest.raises(ValueError):
        build()


# Each element's knob, with the message that names it.
_KNOBS = [
    pytest.param(lambda x: psa_ideal(_shares().share1, x), "PSA gain must be positive and finite",
                 id="psa"),
    pytest.param(lambda x: symplectic_correct(_shares().share1, x),
                 "scale must be positive and finite", id="symplectic"),
    pytest.param(lambda x: single_quadrature_readout(_shares(), x),
                 "single-quadrature gain must be finite", id="single-quadrature"),
    pytest.param(_mix, "feedforward gain must be finite$", id="mix-gain"),
    pytest.param(_type2_pair, "interaction strength must be finite", id="type2-pair"),
    pytest.param(lambda x: NoiseBasis().register(ModeKind.CLASSICAL_MODULATION, x, x),
                 "noise-mode variances must be finite and nonnegative", id="register"),
    pytest.param(lambda x: reconstruct_ff(_shares(), x),
                 "feedforward gain must be finite and nonnegative", id="loop-gain"),
]


@pytest.mark.parametrize("build, message", _KNOBS)
def test_an_int_no_float_holds_is_refused_by_every_element(build, message):
    # 2**2000 passes a comparison with inf, but not the one with the largest float
    with pytest.raises(ValueError, match=message):
        build(2**2000)


@pytest.mark.parametrize("build, message", _KNOBS)
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -2**2000],
                         ids=["nan", "inf", "-inf", "-int"])
def test_every_knob_ends_at_the_largest_float(build, message, bad):
    with pytest.raises(ValueError, match=message):
        build(bad)


@pytest.mark.parametrize("r", [1000.0, -1000.0, math.nextafter(MAX_INTERACTION, math.inf),
                               -math.nextafter(MAX_INTERACTION, math.inf)])
def test_an_interaction_whose_cosh_overflows_is_refused(r):
    with pytest.raises(ValueError, match=re.escape(repr(MAX_INTERACTION))):
        _type2_pair(r)


def test_the_strongest_interaction_whose_cosh_is_a_float_is_taken(basis):
    assert MAX_INTERACTION == 710.4758600739439
    s, i = basis.vacuum(), basis.vacuum()
    for r in (MAX_INTERACTION, -MAX_INTERACTION):
        out, _ = psa_type2_pair(field_from_mode(basis, s), field_from_mode(basis, i), r)
        assert out.coeffs_plus == {(s, P): math.cosh(r), (i, P): math.sinh(r)}
        assert all(map(math.isfinite, out.coeffs_plus.values()))


def test_a_psa_gain_whose_reciprocal_overflows_is_refused_by_name():
    # the gain is positive, but the deamplifier's 1/G is inf
    with pytest.raises(ValueError, match=r"deamplifier's gain 1/G overflows"):
        reconstruct_2psa(_shares(), 1e-320)


def test_overflowing_squeezing_is_rejected_with_the_limit():
    # the limit is the largest r whose anti-squeezed variance e^{2r} is finite
    above = math.nextafter(MAX_SQUEEZING, math.inf)
    assert math.isfinite(math.exp(2.0 * MAX_SQUEEZING))
    with pytest.raises(OverflowError):
        math.exp(2.0 * above)
    psi, _ = dealt(0.0)
    for build in (
        lambda: deal(psi, DealerConfig(400.0)),
        lambda: DealerConfig(above),
        lambda: NoiseBasis().squeezed(above),
    ):
        with pytest.raises(ValueError, match=re.escape(repr(MAX_SQUEEZING))):
            build()
    NoiseBasis().squeezed(MAX_SQUEEZING)
    DealerConfig(MAX_SQUEEZING)
