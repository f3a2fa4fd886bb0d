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
    lincomb,
    variance,
)
from cvqss.cli import ScenarioConfig
from cvqss.metrics import closed_form, evaluate, squeezing_pct
from cvqss.noise import MAX_SQUEEZING, left_sum
from cvqss.protocol import DealerConfig
from cvqss.optics import beam_splitter, detect, feedforward_mix, phase_shift, psa_ideal
from cvqss.optics import psa_type2_pair

from conftest import dealt, fields_close


class TestRegistry:
    def test_vacuum_is_shot_noise_reference(self, basis):
        mid = basis.register(ModeKind.VACUUM, 1.0, 1.0)
        fld = field_from_mode(basis, mid)
        assert variance(fld, Quad.PLUS) == 1.0
        assert variance(fld, Quad.MINUS) == 1.0

    def test_minimum_uncertainty_squeezed_mode_accepted(self, basis):
        # r = 0.5: e^{-2r} * e^{2r} = 1
        mid = basis.register(ModeKind.SQUEEZED, math.exp(-1.0), math.exp(1.0))
        v_plus = basis.source_variance((mid, Quad.PLUS))
        assert v_plus == pytest.approx(0.36787944117144233, abs=1e-15)

    def test_classical_modulation_20db_accepted(self, basis):
        mid = basis.register(ModeKind.CLASSICAL_MODULATION, 100.0, 100.0)
        assert basis.kind(mid) is ModeKind.CLASSICAL_MODULATION

    def test_negative_variance_rejected(self, basis):
        message = "noise-mode variances must be finite and nonnegative"
        for v in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match=message):
                basis.register(ModeKind.CLASSICAL_MODULATION, v, v)
        # an int beyond the float range: finite, but no float variance holds it
        with pytest.raises(ValueError, match=message):
            basis.modulation(2**2000)
        assert len(basis) == 0

    @pytest.mark.parametrize("build", [
        lambda basis: basis.modulation("x"),
        lambda basis: basis.modulation(True),
        lambda basis: basis.register(ModeKind.VACUUM, "x", 1.0),
        lambda basis: basis.register(ModeKind.VACUUM, 1.0, True),
    ], ids=["modulation-str", "modulation-bool", "register-str", "register-bool"])
    def test_a_variance_that_is_not_an_int_or_float_is_refused(self, basis, build):
        with pytest.raises(ValueError, match="^noise-mode variances must be real numbers"):
            build(basis)
        assert len(basis) == 0

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
        with pytest.raises(KeyError, match="unknown noise mode id"):
            field_from_mode(basis, 7)

    def test_kind_and_modes_of_kind_read_the_registered_kinds(self, basis):
        ids = [basis.vacuum(), basis.squeezed(0.3), basis.modulation(4.0),
               basis.detector(), basis.vacuum()]
        kinds = [ModeKind.VACUUM, ModeKind.SQUEEZED, ModeKind.CLASSICAL_MODULATION,
                 ModeKind.DETECTOR_VACUUM, ModeKind.VACUUM]
        assert [basis.kind(mid) for mid in ids] == kinds
        assert basis.modes_of_kind(ModeKind.VACUUM) == (ids[0], ids[4])
        assert basis.modes_of_kind(ModeKind.DETECTOR_VACUUM) == (ids[3],)
        with pytest.raises(KeyError, match="unknown noise mode id 7"):
            basis.kind(7)
        with pytest.raises(KeyError, match="unknown noise mode id -1"):
            basis.kind(-1)

    @pytest.mark.parametrize("mid", [0.0, 1.0, False, True])
    def test_non_integer_mode_id_rejected(self, basis, mid):
        # 0.0 used to reach the list index (TypeError) and False read mode 0
        basis.vacuum()
        basis.vacuum()
        with pytest.raises(KeyError, match=f"unknown noise mode id {mid}"):
            basis.kind(mid)
        with pytest.raises(KeyError, match=f"unknown noise mode id {mid}"):
            field_from_mode(basis, mid)


# Every entry point that takes the squeezing parameter r, called with r alone.
R_ENTRY_POINTS = {
    "ScenarioConfig": lambda r: ScenarioConfig("mz12", r),
    "DealerConfig": DealerConfig,
    "class_variances": lambda r: NoiseBasis().class_variances(r, 0.0),
    "squeezing_pct": squeezing_pct,
    "closed_form-sp": lambda r: closed_form("sp", r),
    "squeezed": lambda r: NoiseBasis().squeezed(r),
}


def _answer(call, r):
    try:
        call(r)
    except Exception as exc:
        return type(exc), str(exc)
    return "accepted"


@pytest.mark.parametrize("r", [math.nan, -1.0, True, "x", 2**2000,
                               math.nextafter(MAX_SQUEEZING, math.inf)],
                         ids=["nan", "negative", "bool", "str", "2**2000", "above-limit"])
def test_every_entry_point_taking_r_gives_one_answer_per_bad_r(r):
    answers = {name: _answer(call, r) for name, call in R_ENTRY_POINTS.items()}
    dealer = answers["DealerConfig"]
    assert dealer[0] is ValueError
    assert answers == dict.fromkeys(R_ENTRY_POINTS, dealer)


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

    @pytest.mark.parametrize("mean", [math.nan, math.inf, -math.inf, True, "x", 2**2000],
                             ids=["nan", "inf", "-inf", "True", "str", "2**2000"])
    def test_a_mean_that_is_not_a_finite_int_or_float_is_refused(self, basis, mean):
        mid = basis.vacuum()
        for build in (lambda: field_from_mode(basis, mid, mean, 2.0),
                      lambda: FieldState(basis, 2.0, mean),
                      lambda: field_from_mode(basis, mid)._replace(mean_plus=mean)):
            with pytest.raises(ValueError, match="^field means must be"):
                build()

    def test_an_int_mean_is_accepted(self, basis):
        fld = field_from_mode(basis, basis.vacuum(), 3, -2)
        assert (fld.mean_plus, fld.mean_minus) == (3, -2)


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

    def test_a_field_with_no_sources_has_a_float_zero_variance(self, basis):
        assert repr(variance(FieldState(basis), Quad.PLUS)) == "0.0"

    def test_a_zero_variance_source_adds_nothing_where_its_square_overflows(self):
        # At v_m = 0 the modulation class has variance 0.0.  The type-II pair at r = 400
        # weighs that source by ~e^400, whose square overflows, and inf * 0.0 is NaN.
        psi, shares = dealt(r=0.5)
        a, b = psa_type2_pair(shares.share1, shares.share3, 400.0)
        assert variance(a, Quad.PLUS) == math.inf
        assert covariance(a, a, Quad.PLUS) == math.inf
        assert not math.isnan(covariance(a, b, Quad.PLUS))


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
        mix, _ = beam_splitter(a, b, 2 / 3)
        assert covariance(mix, a, Quad.MINUS) == pytest.approx(
            covariance(a, mix, Quad.MINUS), abs=1e-15
        )
        assert covariance(mix, mix, Quad.PLUS) == pytest.approx(
            variance(mix, Quad.PLUS), abs=1e-15
        )


# Each place two fields meet, given a field a and a field b from another basis.
MEETINGS = {
    "lincomb": lambda a, b: lincomb([(1.0, a), (1.0, b)]),
    "splitter-phase-0": lambda a, b: beam_splitter(a, b, 0.5),
    "splitter-phase-4": lambda a, b: beam_splitter(a, b, 0.5, phase=4),
    "type2-pair": lambda a, b: psa_type2_pair(a, b, 0.5),
    "mix-gain-0": lambda a, b: feedforward_mix(a, detect(b, 0.9, b.basis.detector()), 0.0),
    "mix-gain-1.7": lambda a, b: feedforward_mix(a, detect(b, 0.9, b.basis.detector()), 1.7),
    "evaluate": evaluate,
}


@pytest.mark.parametrize("meet", MEETINGS.values(), ids=MEETINGS)
def test_fields_on_different_bases_never_meet(basis, meet):
    # lincomb owns the check for the optical elements; the metrics make their own
    a = field_from_mode(basis, basis.vacuum(), 1.0, 1.0)
    other = NoiseBasis()
    b = field_from_mode(other, other.vacuum(), 1.0, 1.0)
    with pytest.raises(ValueError, match="different noise bas"):
        meet(a, b)


def test_left_sum_adds_left_to_right_from_its_start():
    # compensated or exact summation would give 1.0 here, on any Python
    assert left_sum([1e16, 1.0, -1e16]) == 0.0
    assert left_sum([1.0, 1e16, -1e16]) == 0.0
    assert repr(left_sum([])) == "0.0"
    assert repr(left_sum([-0.0])) == "0.0"


finite = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)


def _three_fields():
    basis = NoiseBasis()
    a = field_from_mode(basis, basis.vacuum())
    b = field_from_mode(basis, basis.squeezed(0.4))
    c_mix, _ = beam_splitter(a, b, 2 / 3)
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
    refl=st.sampled_from([0.5, 2 / 3]),
    phase=st.integers(-4, 4),
    theta=st.integers(-4, 4),
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


_SOURCES = [(mid, quad) for mid in range(3) for quad in Quad]
_coeffs = st.dictionaries(st.sampled_from(_SOURCES), st.floats(-5.0, 5.0), max_size=6)
_entry = st.one_of(st.just(0.0), finite)


def _field(cp, cm, mean_plus=0.0, mean_minus=0.0):
    basis = NoiseBasis()
    for _ in range(3):
        basis.vacuum()
    return FieldState(basis, mean_plus, mean_minus, cp, cm)


@given(cp=_coeffs, cm=_coeffs, means=st.tuples(finite, finite),
       qmap=st.tuples(_entry, _entry, _entry, _entry))
def test_lincomb_applies_a_quadrature_map(cp, cm, means, qmap):
    fld = _field(cp, cm, *means)
    a, b, c, d = qmap
    out = lincomb([(qmap, fld)])
    assert out.mean_plus == a * fld.mean_plus + b * fld.mean_minus
    assert out.mean_minus == c * fld.mean_plus + d * fld.mean_minus
    for src in _SOURCES:
        xp, xm = fld.coeff(Quad.PLUS, src), fld.coeff(Quad.MINUS, src)
        assert out.coeff(Quad.PLUS, src) == a * xp + b * xm
        assert out.coeff(Quad.MINUS, src) == c * xp + d * xm
    # A zero entry contributes no key, and no output dict holds a zero.
    assert out.coeffs_plus.keys() <= (cp.keys() if a else set()) | (cm.keys() if b else set())
    assert out.coeffs_minus.keys() <= (cp.keys() if c else set()) | (cm.keys() if d else set())
    assert 0.0 not in out.coeffs_plus.values()
    assert 0.0 not in out.coeffs_minus.values()


@given(cp=_coeffs, cm=_coeffs, w=finite)
def test_lincomb_number_weight_is_the_diagonal_map(cp, cm, w):
    fld = _field(cp, cm, 1.5, -0.5)
    by_number = lincomb([(w, fld)])
    by_map = lincomb([((w, 0.0, 0.0, w), fld)])
    assert fields_close(by_number, by_map, atol=0.0)
    assert list(by_number.coeffs_plus) == list(by_map.coeffs_plus)
    assert list(by_number.coeffs_minus) == list(by_map.coeffs_minus)
