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
    FieldState,
    ModeKind,
    NoiseBasis,
    PSA_GAIN_OPTIMAL,
    Quad,
    beam_splitter,
    collaboration_beams,
    deal,
    detect,
    evaluate,
    feedforward_sweep,
    field_from_mode,
    fields_close,
    fidelity,
    lincomb,
    optimal_gain,
    psa_ideal,
    reconstruct_12,
    reconstruct_2psa,
    reconstruct_ff,
    secret_coefficient,
    single_quadrature_readout,
    symplectic_correct,
    tv_point,
    variance,
)
from cvqss.noise import MAX_SQUEEZING
from cvqss.optics import feedforward_mix, phase_shift, psa_type2_pair
from cvqss.protocol import _psa2_outputs

from conftest import dealt

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)
SQRT6 = math.sqrt(6.0)
SQRT24 = math.sqrt(24.0)
P = Quad.PLUS
M = Quad.MINUS


def mode_ids(basis):
    """(secret, sqz1, sqz2, modulation, detectors) mode ids of a dealt basis."""
    vac = [m.mid for m in basis.modes_of_kind(ModeKind.VACUUM)]
    sqz = [m.mid for m in basis.modes_of_kind(ModeKind.SQUEEZED)]
    mod = [m.mid for m in basis.modes_of_kind(ModeKind.CLASSICAL_MODULATION)]
    det = [m.mid for m in basis.modes_of_kind(ModeKind.DETECTOR_VACUUM)]
    if sqz:  # type1 dealer: the only plain vacuum is the secret
        return vac[0], sqz[0], sqz[1], mod[0], det
    return vac[0], vac[1], vac[2], mod[0], det


def assert_coeffs(field, quad, expected, atol=1e-12):
    for src in set(field.coeffs(quad)) | set(expected):
        assert field.coeff(quad, src) == pytest.approx(
            expected.get(src, 0.0), abs=atol
        ), f"{quad} coefficient mismatch at {src}"


class TestDeal:
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

    def test_recoverability_structure(self):
        # share1 + share2 is the secret again; share1 - share2 carries none.
        psi, shares = dealt(r=0.7, v_m=10.0)
        summed = lincomb([(1 / SQRT2, shares.share1), (1 / SQRT2, shares.share2)])
        diffed = lincomb([(1 / SQRT2, shares.share1), (-1 / SQRT2, shares.share2)])
        assert fields_close(summed, psi)
        for quad in Quad:
            assert secret_coefficient(diffed, psi, quad) == pytest.approx(0.0, abs=1e-12)

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
        (det,) = [mm.mid for mm in out.basis.modes_of_kind(ModeKind.DETECTOR_VACUUM)]
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
        (det,) = [mm.mid for mm in out.basis.modes_of_kind(ModeKind.DETECTOR_VACUUM)]
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
        assert basis.mode(shares.detector).kind is ModeKind.DETECTOR_VACUUM
        size = len(basis)
        outs = [reconstruct_ff(shares, gain, 0.9) for gain in (1.3, FF_GAIN_OPTIMAL)]
        assert len(basis) == size
        for out in outs:
            assert out.coeff(P, (shares.detector, P)) != 0.0


def _relabel(fld, old, new):
    """fld with the coefficients of mode old moved onto mode new."""

    def move(coeffs):
        return {(new if mid == old else mid, q): c for (mid, q), c in coeffs.items()}

    return FieldState(
        fld.basis, fld.mean_plus, fld.mean_minus, move(fld.coeffs_plus), move(fld.coeffs_minus)
    )


class TestFeedforwardSweep:
    @settings(max_examples=80, deadline=None)
    @given(
        r=st.floats(0.0, 4.0),
        v_m=st.floats(0.0, 100.0),
        source=st.sampled_from(EprSource),
        players=st.sampled_from([(2, 3), (1, 3)]),
        eta=st.floats(0.05, 1.0),
        epsilon=st.one_of(st.just(0.0), st.floats(1e-6, 0.5)),
        gains=st.lists(st.floats(0.0, 8.0), min_size=1, max_size=5),
    )
    def test_each_entry_is_the_single_gain_reconstruction(
        self, r, v_m, source, players, eta, epsilon, gains
    ):
        _, shares = dealt(r, v_m, source)
        basis = shares.share1.basis
        lo = len(basis)  # the sweep's oscillator vacuum, when epsilon > 0
        swept = feedforward_sweep(shares, gains, eta, players, epsilon)
        assert len(swept) == len(gains)
        assert len(basis) == lo + (epsilon > 0.0)
        for gain, out in zip(gains, swept):
            single = reconstruct_ff(shares, gain, eta, players, epsilon)
            if epsilon > 0.0:
                # each reconstruct_ff call brings its own oscillator vacuum
                single = _relabel(single, len(basis) - 1, lo)
            assert fields_close(out, single, atol=0.0)

    @given(
        gains=st.lists(st.floats(0.0, 8.0), max_size=4),
        bad=st.floats(max_value=0.0, exclude_max=True),
        at=st.integers(0, 4),
        epsilon=st.sampled_from([0.0, 0.01]),
    )
    def test_negative_gain_rejected(self, gains, bad, at, epsilon):
        _, shares = dealt(r=0.5)
        size = len(shares.share1.basis)
        gains.insert(at, bad)
        with pytest.raises(ValueError):
            feedforward_sweep(shares, gains, 0.9, epsilon=epsilon)
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
        _, shares = dealt(r=0.5)
        size = len(shares.share1.basis)
        with pytest.raises(ValueError):
            feedforward_sweep(shares, [0.0, 1.0], eta, epsilon=epsilon)
        assert len(shares.share1.basis) == size


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


class TestSingleQuadrature:
    def test_zero_gain_is_share2_homodyne(self):
        psi, shares = dealt(r=0.5)
        est = single_quadrature_readout(shares, 0.0)
        assert est.mean(P) == shares.share2.mean_plus
        assert variance(est, P) == pytest.approx(variance(shares.share2, P), abs=1e-15)

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
    return feedforward_mix(kept, current, gain, epsilon, kept.basis.vacuum())


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
        lambda: feedforward_sweep(_shares(), [1.0, NAN]),
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
        "sweep-nan", "symplectic-nan", "symplectic-inf", "optimal-gain-eta-nan",
        "optimal-gain-eta-inf", "phase-shift-nan", "phase-shift-inf", "splitter-phase-nan",
        "type2-pair-nan", "type2-pair-inf", "mix-gain-nan", "mix-gain-inf", "mix-epsilon-nan",
        "mix-epsilon-inf",
    ],
)
def test_non_finite_input_is_rejected(build):
    with pytest.raises(ValueError):
        build()


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
