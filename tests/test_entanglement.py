"""EPR pair sources and the Duan inseparability witness."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cvqss import (
    DUAN_SEPARABLE_BOUND,
    ModeKind,
    NoiseBasis,
    Quad,
    covariance,
    duan_sum,
    epr_type1,
    epr_type2,
    field_from_mode,
    lincomb,
    phase_modulate,
    psa_type2_pair,
    variance,
)

from conftest import is_entangled


def modulated_type1(basis, r, v_m):
    """A type-1 pair and the modulation mode deal puts on it: +1 on beam 1, -1 on beam 2."""
    beam1, beam2 = epr_type1(basis, r)
    mod = basis.modulation(v_m)
    return (phase_modulate(beam1, mod, +1), phase_modulate(beam2, mod, -1)), mod


class TestType1Source:
    def test_no_squeezing_gives_vacuum_statistics(self, basis):
        for beam in epr_type1(basis, 0.0):
            for quad in Quad:
                assert variance(beam, quad) == pytest.approx(1.0, abs=1e-12)

    def test_individual_beams_look_thermal(self, basis):
        # cosh 2r = 1.5430806348152437 at r = 0.5
        for beam in epr_type1(basis, 0.5):
            for quad in Quad:
                assert variance(beam, quad) == pytest.approx(
                    1.5430806348152437, abs=1e-12
                )

    def test_modulation_correlation_signs(self, basis):
        # Anticorrelated in the amplitude quadrature, correlated in phase;
        # clean-pair parts contribute -/+ sinh 2r, modulation adds -/+ 100.
        (beam1, beam2), _ = modulated_type1(basis, 0.5, 100.0)
        sinh1 = math.sinh(1.0)
        assert covariance(beam1, beam2, Quad.PLUS) == pytest.approx(
            -sinh1 - 100.0, abs=1e-12
        )
        assert covariance(beam1, beam2, Quad.MINUS) == pytest.approx(
            sinh1 + 100.0, abs=1e-12
        )

    def test_negative_inputs_rejected(self, basis):
        with pytest.raises(ValueError):
            epr_type1(basis, -0.1)
        with pytest.raises(ValueError):
            basis.modulation(-1.0)


class TestType2Source:
    def test_no_interaction_gives_independent_vacua(self, basis):
        beam1, beam2 = epr_type2(basis, 0.0)
        assert covariance(beam1, beam2, Quad.PLUS) == 0.0
        assert variance(beam1, Quad.PLUS) == pytest.approx(1.0, abs=1e-15)

    def test_joint_quadrature_variances(self, basis):
        # 2 e^{-2r} = 0.7357588823428847 and 2 e^{2r} = 5.43656365691809 at r = 0.5
        beam1, beam2 = epr_type2(basis, 0.5)
        summed = lincomb([(1.0, beam1), (1.0, beam2)])
        diffed = lincomb([(1.0, beam1), (-1.0, beam2)])
        assert variance(summed, Quad.PLUS) == pytest.approx(
            0.7357588823428847, abs=1e-12
        )
        assert variance(diffed, Quad.PLUS) == pytest.approx(
            5.43656365691809, abs=1e-12
        )

    def test_negative_interaction_rejected(self, basis):
        with pytest.raises(ValueError):
            epr_type2(basis, -0.5)

    def test_bloch_messiah_form_has_no_r_in_its_coefficients(self):
        h = math.sqrt(0.5)
        for r in (0.0, 0.5, 12.0):
            basis = NoiseBasis()
            beam1, beam2 = epr_type2(basis, r)
            assert basis._kinds == [ModeKind.SQUEEZED] * 2
            plus, minus = (0, Quad.PLUS), (0, Quad.MINUS)
            b_plus, b_minus = (1, Quad.PLUS), (1, Quad.MINUS)
            assert beam1.coeffs_plus == {plus: h, b_minus: -h}
            assert beam1.coeffs_minus == {minus: h, b_plus: h}
            assert beam2.coeffs_plus == {plus: h, b_minus: h}
            assert beam2.coeffs_minus == {minus: h, b_plus: -h}
            assert abs(duan_sum((beam1, beam2)) / (4.0 * math.exp(-2.0 * r)) - 1.0) <= 1e-15

    @pytest.mark.parametrize("r", [0.1, 1.0, 4.0])
    def test_same_state_as_the_parametric_interaction(self, r):
        """Every within- and cross-quadrature covariance of the pair equals that of
        the pump-phase-flipped interaction on two vacua, in cosh r and sinh r."""
        def moments(pair):
            basis = pair[0].basis
            rows = [fld.coeffs(q) for fld in pair for q in Quad]
            return [[sum(c * row_b.get(src, 0.0) * basis.source_variance(src)
                         for src, c in row_a.items()) for row_b in rows] for row_a in rows]

        basis = NoiseBasis()
        signal, idler = (field_from_mode(basis, basis.vacuum()) for _ in range(2))
        reference = moments(psa_type2_pair(signal, idler, -r))
        bloch_messiah = moments(epr_type2(NoiseBasis(), r))
        scale = math.cosh(2.0 * r)
        for ref_row, row in zip(reference, bloch_messiah):
            assert row == pytest.approx(ref_row, rel=0.0, abs=1e-15 * scale)


class TestDuanWitness:
    def test_boundary_at_zero_squeezing(self, basis):
        pair = epr_type1(basis, 0.0)
        assert duan_sum(pair) == pytest.approx(DUAN_SEPARABLE_BOUND, abs=1e-12)
        assert not is_entangled(pair)

    def test_half_bound_at_log2_over_2(self, basis):
        # 4 e^{-2r} = 2 when 2r = ln 2.
        pair = epr_type1(basis, math.log(2.0) / 2.0)
        assert duan_sum(pair) == pytest.approx(2.0, abs=1e-12)
        assert is_entangled(pair)

    @pytest.mark.parametrize("r", [0.0, 0.1, 0.5, 1.0, 2.0, 3.5, 5.0])
    def test_closed_form_identity_type1(self, r):
        basis = NoiseBasis()
        pair = epr_type1(basis, r)
        assert abs(duan_sum(pair) - 4.0 * math.exp(-2.0 * r)) <= 1e-12

    @given(r=st.floats(min_value=1e-6, max_value=5.0))
    def test_any_squeezing_entangles_both_sources(self, r):
        basis = NoiseBasis()
        assert is_entangled(epr_type1(basis, r))
        assert is_entangled(epr_type2(basis, r))

    @given(r=st.floats(min_value=0.0, max_value=5.0),
           v_m=st.floats(min_value=0.0, max_value=1000.0))
    def test_modulation_never_changes_the_witness(self, r, v_m):
        basis = NoiseBasis()
        pair, _ = modulated_type1(basis, r, v_m)
        assert duan_sum(pair) == pytest.approx(4.0 * math.exp(-2.0 * r), abs=1e-9)

    def test_modulation_cancels_coefficientwise(self, basis):
        # The witness combinations carry exactly zero weight on the shared
        # modulation mode, not merely zero variance.
        (beam1, beam2), mod = modulated_type1(basis, 0.3, 25.0)
        plus_sum = lincomb([(1.0, beam1), (1.0, beam2)])
        minus_diff = lincomb([(1.0, beam1), (-1.0, beam2)])
        for src in ((mod, Quad.PLUS), (mod, Quad.MINUS)):
            assert abs(plus_sum.coeff(Quad.PLUS, src)) <= 1e-12
            assert abs(minus_diff.coeff(Quad.MINUS, src)) <= 1e-12

    def test_swap_symmetry(self, basis):
        (beam1, beam2), _ = modulated_type1(basis, 0.8, 5.0)
        assert duan_sum((beam2, beam1)) == pytest.approx(duan_sum((beam1, beam2)), abs=1e-12)
