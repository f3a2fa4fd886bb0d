"""Noise-mode registry, field states, and the variance/covariance algebra."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvqss import (
    FieldState,
    ModeKind,
    NoiseBasis,
    Quad,
    covariance,
    field_from_mode,
    fields_close,
    lincomb,
    variance,
)
from cvqss.optics import beam_splitter, phase_shift, psa_ideal, psa_type2_pair

from conftest import dealt


class TestRegistry:
    def test_vacuum_is_shot_noise_reference(self, basis):
        mid = basis.register(ModeKind.VACUUM, 1.0, 1.0)
        fld = field_from_mode(basis, mid)
        assert variance(fld, Quad.PLUS) == 1.0
        assert variance(fld, Quad.MINUS) == 1.0

    def test_minimum_uncertainty_squeezed_mode_accepted(self, basis):
        # r = 0.5: e^{-2r} * e^{2r} = 1
        mid = basis.register(ModeKind.SQUEEZED, math.exp(-1.0), math.exp(1.0))
        assert basis.mode(mid).v_plus == pytest.approx(0.36787944117144233, abs=1e-15)

    def test_classical_modulation_20db_accepted(self, basis):
        mid = basis.register(ModeKind.CLASSICAL_MODULATION, 100.0, 100.0)
        assert basis.mode(mid).kind is ModeKind.CLASSICAL_MODULATION

    def test_negative_variance_rejected(self, basis):
        with pytest.raises(ValueError):
            basis.register(ModeKind.CLASSICAL_MODULATION, -1.0, -1.0)

    def test_non_minimum_uncertainty_squeezed_rejected(self, basis):
        with pytest.raises(ValueError):
            basis.register(ModeKind.SQUEEZED, 0.5, 1.0)

    def test_vacuum_kind_must_have_unit_variance(self, basis):
        with pytest.raises(ValueError):
            basis.register(ModeKind.DETECTOR_VACUUM, 0.9, 1.0)

    def test_ids_are_fresh_and_dense(self, basis):
        assert basis.vacuum() == 0
        assert basis.squeezed(0.3) == 1
        assert len(basis) == 2

    def test_unknown_mode_id_rejected(self, basis):
        with pytest.raises(KeyError):
            field_from_mode(basis, 7)


class TestFieldConstruction:
    def test_vacuum_field(self, basis):
        fld = field_from_mode(basis, basis.vacuum())
        assert variance(fld, Quad.PLUS) == 1.0
        assert variance(fld, Quad.MINUS) == 1.0
        assert fld.mean_plus == 0.0

    def test_squeezed_field_variances(self, basis):
        fld = field_from_mode(basis, basis.squeezed(0.5))
        assert variance(fld, Quad.PLUS) == pytest.approx(0.36787944117144233, abs=1e-15)
        assert variance(fld, Quad.MINUS) == pytest.approx(2.718281828459045, abs=1e-14)

    def test_coherent_secret(self, basis):
        fld = field_from_mode(basis, basis.vacuum(), 4.0, 2.0)
        assert (fld.mean_plus, fld.mean_minus) == (4.0, 2.0)
        assert variance(fld, Quad.PLUS) == 1.0
        assert variance(fld, Quad.MINUS) == 1.0

    def test_stale_mode_reference_rejected(self, basis):
        other = NoiseBasis()
        other.vacuum()
        with pytest.raises(KeyError):
            FieldState(basis, 0.0, 0.0, {(0, Quad.PLUS): 1.0}, {})

    def test_stale_id_rejected_in_either_quadrature(self, basis):
        mid = basis.vacuum()
        with pytest.raises(KeyError, match="unknown noise mode id"):
            FieldState(basis, 0.0, 0.0, {(mid, Quad.PLUS): 1.0}, {(mid + 1, Quad.MINUS): 1.0})

    @pytest.mark.parametrize("quad", ["+", "plus", 0, None])
    def test_non_quad_quadrature_rejected(self, basis, quad):
        # A string "+" key was once read as the MINUS variance: e^{2} instead
        # of e^{-2} for this r = 1 squeezed mode.
        mid = basis.squeezed(1.0)
        assert basis.source_variance((mid, Quad.PLUS)) == math.exp(-2.0)
        with pytest.raises(KeyError, match="unknown noise mode id"):
            FieldState(basis, 0.0, 0.0, {(mid, quad): 1.0}, {})


class TestVariance:
    def test_balanced_mix_of_vacua_stays_at_shot_noise(self, basis):
        a = field_from_mode(basis, basis.vacuum())
        b = field_from_mode(basis, basis.vacuum())
        out, _ = beam_splitter(a, b, 0.5)
        assert variance(out, Quad.PLUS) == pytest.approx(1.0, abs=1e-15)

    def test_share1_variance_noiseless_dealer(self):
        # Hand expansion of share 1 = (secret + entangled beam)/sqrt(2) at
        # r = 0.5: V+ = (1 + cosh 2r)/2 = (1 + 1.5430806348152437)/2.
        psi, shares = dealt(r=0.5)
        assert variance(shares.share1, Quad.PLUS) == pytest.approx(
            1.2715403174076219, abs=1e-12
        )


class TestCovariance:
    def test_independent_vacua(self, basis):
        a = field_from_mode(basis, basis.vacuum())
        b = field_from_mode(basis, basis.vacuum())
        assert covariance(a, b, Quad.PLUS) == 0.0

    def test_perfect_reconstruction_has_full_covariance(self):
        from cvqss import reconstruct_12

        psi, shares = dealt(r=0.5, v_m=100.0)
        out = reconstruct_12(shares)
        assert covariance(psi, out, Quad.PLUS) == pytest.approx(
            variance(psi, Quad.PLUS), abs=1e-12
        )

    def test_parametric_pair_output_covariance(self, basis):
        # Expansion of the pair outputs on vacua at r = 0.5:
        # cov = 2 cosh(r) sinh(r) = sinh(1) = 1.1752011936438014.
        s = field_from_mode(basis, basis.vacuum())
        i = field_from_mode(basis, basis.vacuum())
        s_out, i_out = psa_type2_pair(s, i, 0.5)
        assert covariance(s_out, i_out, Quad.PLUS) == pytest.approx(
            1.1752011936438014, abs=1e-12
        )

    def test_mismatched_bases_rejected(self, basis):
        a = field_from_mode(basis, basis.vacuum())
        other = NoiseBasis()
        b = field_from_mode(other, other.vacuum())
        with pytest.raises(ValueError):
            covariance(a, b, Quad.PLUS)

    def test_symmetric_and_consistent_with_variance(self, basis):
        a = field_from_mode(basis, basis.squeezed(0.3), 1.0, 0.0)
        b = field_from_mode(basis, basis.vacuum())
        mix, _ = beam_splitter(a, b, 0.25)
        assert covariance(mix, a, Quad.MINUS) == pytest.approx(
            covariance(a, mix, Quad.MINUS), abs=1e-15
        )
        assert covariance(mix, mix, Quad.PLUS) == pytest.approx(
            variance(mix, Quad.PLUS), abs=1e-15
        )


finite = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)


def _three_fields():
    basis = NoiseBasis()
    a = field_from_mode(basis, basis.vacuum())
    b = field_from_mode(basis, basis.squeezed(0.4))
    c_mix, _ = beam_splitter(a, b, 0.3)
    return a, b, c_mix


@given(alpha=finite, beta=finite)
def test_covariance_is_bilinear(alpha, beta):
    a, b, c = _three_fields()
    combo = lincomb([(alpha, a), (beta, b)])
    for quad in Quad:
        expected = alpha * covariance(a, c, quad) + beta * covariance(b, c, quad)
        assert covariance(combo, c, quad) == pytest.approx(expected, abs=1e-9)


@given(
    wa=finite, wb=finite, wc=finite, wd=finite,
    r=st.floats(min_value=0.0, max_value=2.0),
)
def test_cauchy_schwarz(wa, wb, wc, wd, r):
    basis = NoiseBasis()
    m1 = basis.vacuum()
    m2 = basis.squeezed(r)
    u = lincomb([
        (wa, field_from_mode(basis, m1)),
        (wb, field_from_mode(basis, m2)),
    ])
    v = lincomb([
        (wc, field_from_mode(basis, m1)),
        (wd, field_from_mode(basis, m2)),
    ])
    for quad in Quad:
        lhs = covariance(u, v, quad) ** 2
        rhs = variance(u, quad) * variance(v, quad)
        assert lhs <= rhs + 1e-9


@settings(max_examples=60)
@given(
    r1=st.floats(min_value=0.0, max_value=2.0),
    r2=st.floats(min_value=0.0, max_value=2.0),
    refl=st.floats(min_value=0.0, max_value=1.0),
    phase=st.floats(min_value=-math.pi, max_value=math.pi),
    theta=st.floats(min_value=-math.pi, max_value=math.pi),
    gain=st.floats(min_value=0.1, max_value=10.0),
)
def test_uncertainty_product_from_passive_and_squeezing_circuits(
    r1, r2, refl, phase, theta, gain
):
    # Any circuit of beam splitters, phase shifts and ideal phase-sensitive
    # amplification acting on vacuum keeps V+ V- >= 1.
    basis = NoiseBasis()
    a = field_from_mode(basis, basis.squeezed(r1))
    b = field_from_mode(basis, basis.squeezed(r2))
    out, _ = beam_splitter(a, b, refl, phase)
    out = phase_shift(out, theta)
    out = psa_ideal(out, gain)
    assert variance(out, Quad.PLUS) * variance(out, Quad.MINUS) >= 1.0 - 1e-9


def test_lincomb_tracks_means(basis):
    a = field_from_mode(basis, basis.vacuum(), 2.0, -1.0)
    b = field_from_mode(basis, basis.vacuum(), 1.0, 3.0)
    combo = lincomb([(2.0, a), (-1.0, b)])
    assert combo.mean_plus == 3.0
    assert combo.mean_minus == -5.0


def test_fields_close_detects_coefficient_mismatch(basis):
    a = field_from_mode(basis, basis.vacuum())
    b = field_from_mode(basis, basis.vacuum())
    assert fields_close(a, a)
    assert not fields_close(a, b)
    assert not fields_close(a, lincomb([(1.0 + 1e-6, a)]))
