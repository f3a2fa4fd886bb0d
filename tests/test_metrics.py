"""Fidelity, transfer coefficients, conditional variances, closed forms."""

import math
from decimal import Decimal, localcontext

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cvqss import (
    EprSource,
    FieldState,
    NoiseBasis,
    FF_GAIN_OPTIMAL,
    PSA_GAIN_OPTIMAL,
    Quad,
    closed_form,
    conditional_variance,
    crossover_squeezing,
    evaluate,
    fidelity,
    fidelity_closed_form,
    field_from_mode,
    lincomb,
    optimal_gain,
    psa_type2_pair,
    r_from_squeezing_pct,
    reconstruct_12,
    reconstruct_2psa,
    reconstruct_ff,
    squeezing_pct,
    transfer_coefficient,
    tv_point,
    variance,
)

from cvqss.cli import verify_grid
from cvqss.metrics import _ff_gain_terms, _square, ff_cp_column
from cvqss.noise import MAX_SQUEEZING, check_finite

from conftest import SECRET_MEANS, dealt

P = Quad.PLUS
M = Quad.MINUS
TWO_SQRT2 = 2.0 * math.sqrt(2.0)


class TestFidelity:
    def test_identity(self, secret):
        assert fidelity(secret, secret) == pytest.approx(1.0, abs=1e-15)

    def test_psa_scheme_value(self):
        # 1/(1 + e^{-1}) = 0.7310585786300049 at r = 0.5
        psi, shares = dealt(r=0.5)
        out = reconstruct_2psa(shares, PSA_GAIN_OPTIMAL)
        assert fidelity(psi, out) == pytest.approx(0.7310585786300049, abs=1e-9)

    def test_feedforward_asymptote_for_zero_mean_secret(self):
        # sqrt(3)/2 = 0.8660254037844386 in the strong-squeezing limit
        psi, shares = dealt(r=8.0, means=(0.0, 0.0))
        out = reconstruct_ff(shares, FF_GAIN_OPTIMAL, 1.0)
        assert fidelity(psi, out) == pytest.approx(0.8660254037844386, abs=1e-6)

    def test_coherent_secret_against_vacuum(self, basis, secret):
        # F(|alpha>, |0>) = e^{-|alpha|^2}; means (4, 2) in X units give |alpha|^2 = 5.
        vacuum = field_from_mode(basis, basis.vacuum())
        assert fidelity(secret, vacuum) == math.exp(-5.0)
        assert fidelity(vacuum, secret) == math.exp(-5.0)

    def test_mean_mismatch_exponent_convention(self, basis):
        # A zero-mean secret against twice the vacuum: no mean penalty, and
        # the prefactor is 2 / sqrt(5 * 5).
        psi = field_from_mode(basis, basis.vacuum(), 0.0, 0.0)
        out = lincomb([(2.0, field_from_mode(basis, basis.vacuum()))])
        assert fidelity(psi, out) == 0.4


    @pytest.mark.parametrize("source", [EprSource.TYPE1, EprSource.TYPE2])
    @pytest.mark.parametrize("r,v_m", [(0.0, 0.0), (0.5, 10.0), (1.5, 100.0)])
    def test_symmetric_when_one_state_is_pure(self, r, v_m, source):
        # The overlap of a pure and a mixed Gaussian does not depend on their order.
        psi, shares = dealt(r, v_m, source)
        for share in (shares.share1, shares.share2, shares.share3):
            swapped = fidelity(share, psi)
            assert swapped == pytest.approx(fidelity(psi, share), rel=1e-12, abs=0.0)
            assert swapped <= 1.0


class TestTransferCoefficient:
    def test_identity(self, secret):
        assert transfer_coefficient(secret, secret, P) == pytest.approx(1.0, abs=1e-15)

    def test_mach_zehnder_is_lossless(self):
        psi, shares = dealt(r=0.5, v_m=100.0)
        out = reconstruct_12(shares)
        assert transfer_coefficient(psi, out, P) == pytest.approx(1.0, abs=1e-12)
        assert transfer_coefficient(psi, out, M) == pytest.approx(1.0, abs=1e-12)

    def test_secretless_share_transfers_nothing(self):
        psi, shares = dealt(r=0.0)
        assert transfer_coefficient(psi, shares.share3, P) == 0.0

    def test_zero_secret_mean_rejected(self):
        psi, shares = dealt(r=0.5, means=(0.0, 2.0))
        with pytest.raises(ValueError, match="zero secret mean"):
            transfer_coefficient(psi, shares.share1, P)


class TestConditionalVariance:
    def test_identity_is_fully_conditioned(self, secret):
        assert conditional_variance(secret, secret, P) == pytest.approx(0.0, abs=1e-15)

    def test_psa_scheme_per_quadrature_value(self):
        # Both quadratures end up at 2 e^{-1} = 0.7357588823428847 for r = 0.5;
        # their product is 4 e^{-2} = 0.5413411329464508.
        psi, shares = dealt(r=0.5)
        out = reconstruct_2psa(shares, PSA_GAIN_OPTIMAL)
        for quad in Quad:
            assert conditional_variance(psi, out, quad) == pytest.approx(
                0.7357588823428847, abs=1e-9
            )
        assert tv_point(psi, out)[1] == pytest.approx(0.5413411329464508, abs=1e-9)

    def test_independent_output_keeps_its_own_variance(self):
        psi, shares = dealt(r=0.3, v_m=2.0)
        expected = variance(shares.share3, P)
        assert conditional_variance(psi, shares.share3, P) == pytest.approx(
            expected, abs=1e-12
        )

    def test_a_zero_variance_class_adds_nothing_where_its_weight_overflows(self):
        # At v_m = 0 the modulation class has variance 0.0.  The type-II pair at r = 400
        # weighs that source by ~e^400, whose square overflows, and inf * 0.0 is NaN.
        psi, shares = dealt(r=0.5)
        out, _ = psa_type2_pair(shares.share1, shares.share3, 400.0)
        for quad in Quad:
            assert conditional_variance(psi, out, quad) == variance(out, quad) == math.inf
        scores = evaluate(psi, out)
        assert (scores.vcv_plus, scores.vcv_minus, scores.v_q) == (math.inf,) * 3


class TestVarianceClasses:
    @staticmethod
    def two_source_secret():
        # a pure state whose X+ is spread over two vacua: V_out - cov^2/V_s is
        # defined for it, but no single source carries the secret
        basis = NoiseBasis()
        a, b = basis.vacuum(), basis.vacuum()
        half = math.sqrt(0.5)
        secret = FieldState(
            basis, 4.0, 2.0, {(a, P): half, (b, P): half}, {(a, Quad.MINUS): 1.0}
        )
        noise = field_from_mode(basis, basis.squeezed(0.5))
        return secret, lincomb([(1.0, secret), (0.7, noise)])

    def test_a_secret_without_one_source_per_quadrature_is_rejected(self):
        secret, out = self.two_source_secret()
        for score in (tv_point, evaluate, lambda s, o: conditional_variance(s, o, P)):
            with pytest.raises(ValueError, match="exactly one noise source"):
                score(secret, out)

    def test_sources_of_one_kind_with_two_variances_stay_apart(self):
        basis = NoiseBasis()
        psi = field_from_mode(basis, basis.vacuum(), *SECRET_MEANS)
        a, b = (field_from_mode(basis, basis.squeezed(r)) for r in (0.3, 1.1))
        out = lincomb([(1.0, psi), (0.7, a), ((0.2, -0.4, 0.1, 0.3), b)])
        for quad in Quad:
            own = set(psi.coeffs(quad))
            exact = math.fsum(
                c * c * basis.source_variance(src)
                for src, c in out.coeffs(quad).items() if src not in own
            )
            assert conditional_variance(psi, out, quad) == pytest.approx(exact, rel=1e-15)
        assert len(basis._class_variances) == 6  # vacuum, and each squeezing apart


class TestTvPoint:
    def test_mach_zehnder_is_ideal(self):
        psi, shares = dealt(r=1.0, v_m=100.0)
        t_q, v_q = tv_point(psi, reconstruct_12(shares))
        assert t_q == pytest.approx(2.0, abs=1e-12)
        assert v_q == pytest.approx(0.0, abs=1e-12)

    def test_noisy_classical_feedforward_point(self):
        psi, shares = dealt(r=0.0, v_m=100.0)
        t_q, v_q = tv_point(psi, reconstruct_ff(shares, FF_GAIN_OPTIMAL, 1.0))
        assert t_q == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert v_q == pytest.approx(4.0, abs=1e-12)

    def test_classical_single_player_star_point(self):
        psi, shares = dealt(r=0.0)
        t_q, v_q = tv_point(psi, shares.share1)
        assert t_q == pytest.approx(1.0, abs=1e-12)
        assert v_q == pytest.approx(0.25, abs=1e-12)

    @pytest.mark.parametrize("means", [(1e-200, 1.0), (1.0, -1e-170), (5e-324, 2.0)])
    def test_secret_mean_whose_square_underflows_is_rejected(self, means):
        # such a mean is nonzero, but the input SNR it gives is exactly 0.0
        psi, shares = dealt(r=0.5, means=means)
        with pytest.raises(ValueError, match="zero secret mean"):
            tv_point(psi, shares.share1)

    @settings(max_examples=150, deadline=None)
    @given(
        r=st.floats(0.0, 4.0),
        v_m=st.floats(0.0, 100.0),
        source=st.sampled_from(EprSource),
        means=st.tuples(*2 * [st.floats(0.1, 5.0) | st.floats(-5.0, -0.1)]),
        output=st.sampled_from(["share1", "share2", "feedforward", "psa2", "mz12"]),
        gain=st.floats(0.0, 8.0),
        eta=st.floats(1e-6, 1.0),
        epsilon=st.just(0.0) | st.floats(0.0, 0.99),
        psa_gain=st.just(PSA_GAIN_OPTIMAL) | st.floats(0.1, 10.0),
    )
    def test_equals_the_per_quadrature_metrics_exactly(
        self, r, v_m, source, means, output, gain, eta, epsilon, psa_gain
    ):
        # tv_point and evaluate score through _scores, the per-quadrature metrics through
        # _moments and _transfer alone: this checks _scores against the per-quadrature API
        psi, shares = dealt(r, v_m, source, means)
        if output == "feedforward":
            out = reconstruct_ff(shares, gain, eta, epsilon=epsilon)
        elif output == "psa2":
            out = reconstruct_2psa(shares, psa_gain)
        elif output == "mz12":
            out = reconstruct_12(shares)
        else:
            out = shares.share(int(output[-1]))
        t = {q: transfer_coefficient(psi, out, q) for q in Quad}
        v = {q: conditional_variance(psi, out, q) for q in Quad}
        # repr equality is float equality that also matches nan to nan
        assert repr(tv_point(psi, out)) == repr((t[P] + t[M], v[P] * v[M]))
        m = evaluate(psi, out)
        assert repr((m.t_plus, m.t_minus, m.vcv_plus, m.vcv_minus)) == repr((t[P], t[M], v[P], v[M]))


# The closed forms' messages: the dealer's, for (r, v_m), and their own, for eta.
_POINT = "squeezing and modulation power must be finite and nonnegative"
_ETA = "closed forms need 0 < eta <= 1"


class TestClosedForms:
    def test_feedforward_ideal_limits(self):
        t_q, v_q = closed_form("ff_cp", 8.0, 0.0, 1.0, TWO_SQRT2)
        assert t_q == pytest.approx(2.0, abs=1e-6)
        assert v_q == pytest.approx(0.0, abs=1e-6)

    def test_feedforward_noisy_classical_limit(self):
        assert closed_form("ff_cp", 0.0, 100.0, 1.0, TWO_SQRT2) == pytest.approx(
            (2.0 / 3.0, 4.0), abs=1e-12
        )

    def test_single_player_classical_limit(self):
        assert closed_form("sp", 0.0, 0.0) == pytest.approx((1.0, 0.25), abs=1e-15)

    def test_psa_scheme_forms(self):
        t_q, v_q = closed_form("psa2_cp", 0.5)
        assert t_q == pytest.approx(2.0 / (1.0 + 2.0 * math.exp(-1.0)), abs=1e-15)
        assert v_q == pytest.approx(4.0 * math.exp(-2.0), abs=1e-15)

    def test_feedforward_requires_gain_and_efficiency(self):
        with pytest.raises(ValueError):
            closed_form("ff_cp", 0.5)
        with pytest.raises(ValueError):
            closed_form("ff_cp", 0.5, 0.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            closed_form("bogus", 0.5)

    @pytest.mark.parametrize("form, args, message", [
        pytest.param(form, args, message, id=f"{form.__name__}-{args!r}")
        for form, args, message in [
            (closed_form, ("ff_cp", 0.5, 0.0, 2.0, 2.8), _ETA),
            (closed_form, ("ff_cp", -0.5, 0.0, 1.0, 2.8), _POINT),
            (closed_form, ("ff_cp", 0.5, -1.0, 1.0, 2.8), _POINT),
            (closed_form, ("sp", 0.5, -3.0), _POINT),
            (closed_form, ("sp", -0.5), _POINT),
            (closed_form, ("psa2_cp", -0.5), _POINT),
            (fidelity_closed_form, ("psa2", -0.5), _POINT),
            (fidelity_closed_form, ("ff", -0.5, (4.0, 2.0)), _POINT),
            (optimal_gain, (0.5, 0.0, 2.0), _ETA),
            (optimal_gain, (0.5, 0.0, -1.0), _ETA),
            (optimal_gain, (0.5, -1.0), _POINT),
            (optimal_gain, (-0.5,), _POINT),
        ]
    ])
    def test_inputs_the_simulation_rejects_are_rejected(self, form, args, message):
        # DealerConfig refuses r < 0 and v_m < 0, the feedforward loop eta outside (0, 1]
        with pytest.raises(ValueError, match=message):
            form(*args)

    @pytest.mark.parametrize("args", [
        ("psa2_cp", 0.5, 0.0, 1.0, 3.0),
        ("psa2_cp", 0.5, 0.0, 1.0, 0.0),
        ("sp", 0.5, 0.0, 1.0, 5.0),
    ], ids=repr)
    def test_a_gain_for_a_formula_that_takes_none_is_rejected(self, args):
        # the pair would otherwise come back as if no gain were given
        with pytest.raises(ValueError, match="closed form takes no gain"):
            closed_form(*args)

    @pytest.mark.parametrize("form, args", [
        (closed_form, ("sp", 400.0)),
        (closed_form, ("ff_cp", 400.0, 0.0, 1.0, 2.0)),
        (closed_form, ("psa2_cp", 400.0)),
        (fidelity_closed_form, ("psa2", 400.0)),
        (optimal_gain, (400.0,)),
    ], ids=lambda v: v.__name__ if callable(v) else repr(v))
    def test_squeezing_beyond_the_dealers_limit_is_rejected(self, form, args):
        # DealerConfig refuses r above MAX_SQUEEZING, where e^{2r} overflows
        with pytest.raises(ValueError, match="squeezing parameter must be at most"):
            form(*args)

    def test_squeezing_up_to_the_dealers_limit_is_accepted(self):
        closed_form("psa2_cp", MAX_SQUEEZING)
        closed_form("ff_cp", MAX_SQUEEZING, 0.0, 1.0, TWO_SQRT2)
        fidelity_closed_form("psa2", MAX_SQUEEZING)
        optimal_gain(MAX_SQUEEZING)

    @pytest.mark.parametrize("value", [True, "1"], ids=["bool", "str"])
    @pytest.mark.parametrize("call", [
        lambda x: closed_form("sp", x),
        lambda x: closed_form("ff_cp", 0.5, 0.0, 1.0, x),
        lambda x: ff_cp_column(0.5, x, 1.0, [2.0]),
        lambda x: ff_cp_column(0.5, 0.0, 1.0, [2.0, x]),
        lambda x: fidelity_closed_form("psa2", x),
        lambda x: fidelity_closed_form("ff", 0.5, (4.0, x)),
        lambda x: optimal_gain(x),
        lambda x: optimal_gain(0.5, 0.0, x),
    ], ids=["sp-r", "ff_cp-gain", "column-vm", "column-gain", "fidelity-r", "fidelity-mean",
            "gain-r", "gain-eta"])
    def test_a_bool_or_a_string_is_refused_as_the_dealer_refuses_it(self, call, value):
        # DealerConfig, class_variances and ScenarioConfig take only ints and floats
        with pytest.raises(ValueError, match="real numbers"):
            call(value)

    def test_psa_and_feedforward_coincide_at_the_cancellation_gain(self):
        # At G = 2 sqrt(2) and eta = 1 the feedforward forms telescope onto
        # the two-PSA ones: same T_q, same V_q product.
        for r in (0.0, 0.5, 1.0, 3.0):
            ff = closed_form("ff_cp", r, 0.0, 1.0, TWO_SQRT2)
            psa = closed_form("psa2_cp", r)
            assert ff == pytest.approx(psa, rel=1e-12, abs=1e-12)


# in and out of the closed forms' domain, without gains large enough to overflow
_ANY_FLOAT = (
    st.floats(0.0, 1.0) | st.floats(-1e3, 1e3) | st.sampled_from([math.nan, math.inf, -math.inf])
)


def ff_cp_transcribed(r, v_m, eta, g):
    """The feedforward closed form written out per gain, one expression per term.

    Where its V_q sum overflows at |g| > 1, it is written out again in a = 1/g and
    b = 1, every term divided by g^2, and V_q multiplied back by g twice.
    """
    t_q, v_q = _ff_cp_written_out(r, v_m, eta, 1.0, g, 1.0)
    if v_q == math.inf and abs(g) > 1.0:
        t_q, v_q = _ff_cp_written_out(r, v_m, eta, 1.0 / g, 1.0, g)
    return t_q, v_q


def _ff_cp_written_out(r, v_m, eta, a, b, f):
    em2r, e2r = math.exp(-2.0 * r), math.exp(2.0 * r)
    sqrt2 = math.sqrt(2.0)
    signal = (a + b / sqrt2) ** 2
    noise = (
        (b / 2.0 - sqrt2 * a) ** 2 * e2r
        + (1.5 * b) ** 2 * em2r
        + (2.0 * a - b / sqrt2) ** 2 * v_m
        + 3.0 * b * b * (1.0 - eta) / eta
    )
    t_q = 1.0 / (1.0 + 2.0 * em2r) + signal / (signal + noise)
    v_q = (em2r / 18.0) * (
        9.0 * b * b * em2r
        + e2r * (b - 2.0 * sqrt2 * a) ** 2
        + 2.0 * v_m * (b - 2.0 * sqrt2 * a) ** 2
        + 12.0 * b * b * (1.0 - eta) / eta
    ) * f * f
    return t_q, v_q


class TestFeedforwardColumn:
    @settings(max_examples=200, deadline=None)
    @given(
        r=st.one_of(st.just(0.0), st.floats(0.0, 20.0), st.floats(0.0, MAX_SQUEEZING)),
        v_m=st.one_of(st.just(0.0), st.floats(0.0, 100.0), st.floats(0.0, 1e6)),
        eta=st.one_of(st.just(1.0), st.floats(0.0, 1.0, exclude_min=True)),
        gains=st.lists(st.floats(-10.0, 10.0) | st.just(TWO_SQRT2), max_size=6),
    )
    # a V_q sum that overflows unscaled (loss / eta) and is redone scaled
    @example(r=0.0, v_m=0.0, eta=3.5502780847687426e-307, gains=[0.5, TWO_SQRT2])
    def test_each_entry_is_the_single_gain_closed_form(self, r, v_m, eta, gains):
        # no tolerance: hoisting the per-column terms changes no float
        # operation; repr equality also matches nan to nan
        column = repr(ff_cp_column(r, v_m, eta, gains))
        assert column == repr([closed_form("ff_cp", r, v_m, eta, g) for g in gains])
        assert column == repr([ff_cp_transcribed(r, v_m, eta, g) for g in gains])

    @settings(max_examples=200, deadline=None)
    @given(
        r=_ANY_FLOAT, v_m=_ANY_FLOAT, eta=_ANY_FLOAT,
        gains=st.lists(_ANY_FLOAT, min_size=1, max_size=4),
    )
    def test_rejects_what_closed_form_rejects(self, r, v_m, eta, gains):
        rejected = False
        for g in gains:
            try:
                closed_form("ff_cp", r, v_m, eta, g)
            except ValueError:
                rejected = True
        if rejected:
            with pytest.raises(ValueError):
                ff_cp_column(r, v_m, eta, gains)
        else:
            ff_cp_column(r, v_m, eta, gains)

    @pytest.mark.parametrize("g", [1e155, -1e155, 1e200, 1.7e308])
    def test_a_square_that_overflows_is_inf(self, g):
        # float ** raises OverflowError where * gives inf, as in closed_form("sp")
        assert _square(g) == math.inf
        column = ff_cp_column(0.5, 0.0, 1.0, [1.0, g])
        assert repr(column) == repr([closed_form("ff_cp", 0.5, 0.0, 1.0, x) for x in (1.0, g)])

    @pytest.mark.parametrize("grid, columns", [
        ({}, 36),
        ({"r_values": (0.5,), "vm_values": (0.0,), "eta_values": (1.0,)}, 1),
        ({"r_values": (0.0, 1.0, 4.0), "vm_values": (0.0, 1.0), "eta_values": (1.0, 0.9, 0.5),
          "gains": (0.0, 8, 2.5)}, 18),
    ])
    def test_one_verify_grid_forms_the_gain_terms_once(self, grid, columns):
        _ff_gain_terms.cache_clear()
        assert verify_grid(**grid)["pass"] is True
        info = _ff_gain_terms.cache_info()
        assert (info.misses, info.hits) == (1, columns - 1)

    @pytest.mark.parametrize("r, v_m, eta", [(0.5, 0.0, 1.0), (0.5, 10.0, 0.9), (4.0, 100.0, 0.5)])
    def test_gains_equal_as_keys_share_the_memo_without_moving_a_digit(self, r, v_m, eta):
        # -0.0 and 0.0, and 8 and 8.0, are equal keys: each tuple is served the
        # other's terms, and its column stays repr-equal to a cold cache's
        def column(gains, after=()):
            _ff_gain_terms.cache_clear()
            for earlier in after:
                ff_cp_column(r, v_m, eta, earlier)
            return repr(ff_cp_column(r, v_m, eta, gains)), _ff_gain_terms.cache_info().hits

        signed, unsigned = [-0.0, 8, 2.5], [0.0, 8.0, 2.5]
        assert column(signed, after=[unsigned]) == (column(signed)[0], 1)
        assert column(unsigned, after=[signed]) == (column(unsigned)[0], 1)
        assert column(signed)[1] == 0

    @pytest.mark.parametrize("g", [8, 3, 2 ** 520, -(2 ** 600)])
    def test_an_int_gain_scores_as_its_float(self, g):
        # the memo keys on floats, so an int and its float share terms; an int
        # above 2^510, squared exactly, would overflow its conversion to float
        def cold(r, v_m, eta, gain):
            _ff_gain_terms.cache_clear()
            return repr(closed_form("ff_cp", r, v_m, eta, gain))

        for point in ((0.5, 0.0, 1.0), (4.0, 100.0, 0.5)):
            assert cold(*point, g) == cold(*point, float(g))

    @pytest.mark.parametrize("g", [1e155, -1e155, 1e200, 1.7e308])
    def test_a_gain_whose_square_overflows_scores_without_nan(self, g):
        # the terms are formed divided by g^2, and V_q's factor is g, taken twice
        *terms, f = _ff_gain_terms((g,))[0]
        assert all(map(math.isfinite, terms)) and f == g
        for r, v_m, eta in ((0.5, 0.0, 1.0), (0.5, 10.0, 0.9), (4.0, 0.0, 0.5)):
            t_q, v_q = closed_form("ff_cp", r, v_m, eta, g)
            assert 0.0 < t_q < 2.0 and v_q == math.inf


class TestFidelityClosedForm:
    def test_psa_at_zero_squeezing(self):
        assert fidelity_closed_form("psa2", 0.0) == pytest.approx(0.5, abs=1e-15)

    def test_feedforward_asymptote(self):
        assert fidelity_closed_form("ff", 8.0, (0.0, 0.0)) == pytest.approx(
            0.8660254037844386, abs=1e-6
        )

    def test_feedforward_decays_with_displacement(self):
        values = [
            fidelity_closed_form("ff", 0.5, (a, a / 2.0)) for a in (0.0, 2.0, 4.0, 8.0, 16.0)
        ]
        assert all(b < a for a, b in zip(values, values[1:]))
        assert values[-1] < 1e-3

    def test_matches_simulation_at_the_cancellation_gain(self):
        for r in (0.0, 0.5, 1.5):
            psi, shares = dealt(r)
            out = reconstruct_ff(shares, FF_GAIN_OPTIMAL, 1.0)
            assert fidelity(psi, out) == pytest.approx(
                fidelity_closed_form("ff", r, SECRET_MEANS), abs=1e-9
            )

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError):
            fidelity_closed_form("bogus", 0.5)


class TestOptimalGain:
    def test_strong_squeezing_approaches_the_cancellation_gain(self):
        assert optimal_gain(8.0) == pytest.approx(TWO_SQRT2, abs=1e-6)

    def test_finite_squeezing_sits_below_it(self):
        for r in (0.0, 0.25, 0.5, 1.0):
            assert optimal_gain(r) < TWO_SQRT2 - 1e-6

    def test_no_squeezing_values(self):
        # At r = 0 the transfer optimum is 2 sqrt(2) / 4 = 1/sqrt(2), with T_q = 5/6.
        g = optimal_gain(0.0)
        assert g == math.sqrt(0.5)
        assert closed_form("ff_cp", 0.0, 0.0, 1.0, g)[0] == pytest.approx(
            5.0 / 6.0, abs=1e-9
        )

    def test_strong_noise_pushes_back_toward_the_cancellation_gain(self):
        g = optimal_gain(0.0, 100.0)
        assert g == pytest.approx(2.7868326150562464, abs=1e-6)
        assert abs(g - TWO_SQRT2) < 0.05

    def test_min_vq_objective_has_closed_form(self):
        # dV_q/dG = 0 at G = 2 sqrt(2) / (1 + 9 e^{-4r}).
        for r in (0.0, 0.3, 1.0, 2.5):
            expected = TWO_SQRT2 / (1.0 + 9.0 * math.exp(-4.0 * r))
            assert optimal_gain(r, objective="min_vq") == pytest.approx(
                expected, rel=1e-12
            )

    @settings(max_examples=200)
    @given(
        r=st.floats(0.0, 8.0),
        v_m=st.one_of(st.just(0.0), st.floats(0.0, 100.0)),
        eta=st.floats(0.05, 1.0),
    )
    def test_formula_gains_are_optimal(self, r, v_m, eta):
        # Nudging either formula gain never improves its objective.
        for objective, sign, idx in (("max_tq", -1.0, 0), ("min_vq", 1.0, 1)):
            g = optimal_gain(r, v_m, eta, objective)
            assert 0.0 <= g < TWO_SQRT2
            best = sign * closed_form("ff_cp", r, v_m, eta, g)[idx]
            for nudged in (g - 1e-6, g + 1e-6):
                value = sign * closed_form("ff_cp", r, v_m, eta, nudged)[idx]
                assert value >= best

    @pytest.mark.parametrize("r, v_m, eta", [(0.0, 0.0, 1.0), (0.5, 10.0, 0.9), (2.0, 1.0, 0.3)])
    def test_formulas_as_stated(self, r, v_m, eta):
        e2r, em2r, loss = math.exp(2.0 * r), math.exp(-2.0 * r), (1.0 - eta) / eta
        loud = TWO_SQRT2 * (e2r + 2.0 * v_m)
        assert optimal_gain(r, v_m, eta, "max_tq") == pytest.approx(
            loud / (e2r + 3.0 * em2r + 2.0 * v_m + 4.0 * loss), rel=1e-12
        )
        assert optimal_gain(r, v_m, eta, "min_vq") == pytest.approx(
            loud / (e2r + 9.0 * em2r + 2.0 * v_m + 12.0 * loss), rel=1e-12
        )

    def test_zero_efficiency_rejected(self):
        with pytest.raises(ValueError):
            optimal_gain(0.5, eta=0.0)

    def test_unknown_objective_rejected(self):
        with pytest.raises(ValueError):
            optimal_gain(0.5, objective="hope")


class TestCrossover:
    def test_location(self):
        p = crossover_squeezing()
        assert abs(p - 0.42) <= 0.02
        # analytically 1 - 1/sqrt(3)
        assert p == pytest.approx(1.0 - 1.0 / math.sqrt(3.0), abs=1e-12)

    def test_collaboration_dominates_at_high_squeezing(self):
        r = r_from_squeezing_pct(0.99)
        g = optimal_gain(r, objective="min_vq")
        assert closed_form("ff_cp", r, 0.0, 1.0, g)[0] > closed_form("sp", r)[0]

    def test_single_player_wins_without_squeezing(self):
        g = optimal_gain(0.0)
        assert closed_form("ff_cp", 0.0, 0.0, 1.0, g)[0] < closed_form("sp", 0.0)[0]

    def test_exact_root_is_correctly_rounded(self):
        with localcontext() as ctx:
            ctx.prec = 50
            exact = 1 - 1 / Decimal(3).sqrt()
        assert crossover_squeezing() == float(exact)

        def imbalance(r):
            g = optimal_gain(r, 0.0, 1.0, objective="min_vq")
            return closed_form("ff_cp", r, 0.0, 1.0, g)[0] - closed_form("sp", r, 0.0)[0]

        root = math.log(3.0) / 4.0
        assert imbalance(root - 1e-12) < 0.0 < imbalance(root + 1e-12)


class TestMonotonicity:
    def test_more_squeezing_never_hurts_the_collaborators(self):
        r_grid = [0.0, 0.25, 0.5, 1.0, 2.0, 4.0]
        t_values = [
            closed_form("ff_cp", r, 0.0, 1.0, optimal_gain(r))[0] for r in r_grid
        ]
        v_values = [
            closed_form("ff_cp", r, 0.0, 1.0, optimal_gain(r, objective="min_vq"))[1]
            for r in r_grid
        ]
        assert all(b >= a - 1e-12 for a, b in zip(t_values, t_values[1:]))
        assert all(b <= a + 1e-12 for a, b in zip(v_values, v_values[1:]))


class TestSqueezingScale:
    def test_roundtrip(self):
        for p in (0.0, 0.3, 0.42, 0.99):
            assert squeezing_pct(r_from_squeezing_pct(p)) == pytest.approx(p, abs=1e-12)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            r_from_squeezing_pct(1.0)

    @pytest.mark.parametrize("bad", ["x", None, True])
    def test_a_fraction_that_is_no_real_number_is_rejected(self, bad):
        with pytest.raises(ValueError, match="squeezing fraction must be real"):
            r_from_squeezing_pct(bad)

    @pytest.mark.parametrize(
        "r, message",
        [(-1.0, _POINT), (-1000.0, _POINT), (math.nan, _POINT), (math.inf, _POINT),
         (True, "must be real numbers"), ("x", "must be real numbers"),
         (math.nextafter(MAX_SQUEEZING, math.inf), "squeezing parameter must be at most")],
    )
    def test_a_squeezing_parameter_the_dealer_refuses_is_refused(self, r, message):
        with pytest.raises(ValueError, match=message):
            squeezing_pct(r)

    def test_the_dealers_extreme_squeezing_parameters_are_taken(self):
        assert squeezing_pct(0.0) == 0.0
        assert squeezing_pct(MAX_SQUEEZING) == 1.0


class TestMetricsRecord:
    def test_ranges_on_protocol_outputs(self):
        for r in (0.0, 0.5, 2.0):
            for v_m in (0.0, 100.0):
                psi, shares = dealt(r, v_m)
                for out in (
                    reconstruct_12(shares),
                    reconstruct_ff(shares, FF_GAIN_OPTIMAL, 0.9),
                    shares.share1,
                ):
                    m = evaluate(psi, out)
                    assert 0.0 <= m.t_q <= 2.0 + 1e-12
                    assert m.v_q >= -1e-12
                    assert m.fidelity <= 1.0 + 1e-12

    @settings(max_examples=40, deadline=None)
    @given(
        r=st.floats(0.0, 4.0),
        v_m=st.floats(0.0, 1e4),
        source=st.sampled_from(EprSource),
        players=st.sampled_from(((1, 3), (2, 3))),
        gain=st.floats(0.1, 8.0),
        eta=st.floats(0.1, 1.0, exclude_max=True),
        epsilon=st.floats(1e-6, 0.5),
    )
    def test_both_scoring_branches_store_one_tv_pair(
        self, r, v_m, source, players, gain, eta, epsilon
    ):
        # evaluate stores t_q and v_q as fields, and tv_point returns its own pair:
        # both must be the sum and the product of the stored per-quadrature scores
        psi, shares = dealt(r, v_m, source)
        outs = (
            reconstruct_12(shares),
            reconstruct_2psa(shares, gain, players),
            reconstruct_ff(shares, gain, eta, players, epsilon),
            shares.share(players[0]),
        )
        for out in outs:
            m = evaluate(psi, out)
            assert m.t_q == m.t_plus + m.t_minus
            assert m.v_q == m.vcv_plus * m.vcv_minus
            assert repr(tv_point(psi, out)) == repr((m.t_q, m.v_q))

    def test_symplectic_invariance_of_the_tv_pair(self):
        # The T-V point does not move under symplectic rescaling of the
        # output, unlike the fidelity.
        from cvqss import symplectic_correct

        psi, shares = dealt(r=0.7)
        out = reconstruct_ff(shares, FF_GAIN_OPTIMAL, 1.0)
        scaled = symplectic_correct(out, 1.9)
        assert tv_point(psi, scaled) == pytest.approx(tv_point(psi, out), abs=1e-12)


NAN, INF = float("nan"), float("inf")
HUGE = 2**2000  # an int beyond the float range: finite, but no float holds it


@pytest.mark.parametrize(
    "build",
    [
        lambda: closed_form("ff_cp", NAN, 0.0, 1.0, 1.0),
        lambda: closed_form("ff_cp", INF, 0.0, 1.0, 1.0),
        lambda: closed_form("ff_cp", 0.5, NAN, 1.0, 1.0),
        lambda: closed_form("ff_cp", 0.5, INF, 1.0, 1.0),
        lambda: closed_form("ff_cp", 0.5, 0.0, NAN, 1.0),
        lambda: closed_form("ff_cp", 0.5, 0.0, 1.0, NAN),
        lambda: closed_form("ff_cp", 0.5, 0.0, 1.0, -INF),
        lambda: closed_form("sp", NAN),
        lambda: closed_form("psa2_cp", INF),
        lambda: fidelity_closed_form("psa2", NAN),
        lambda: fidelity_closed_form("ff", INF, SECRET_MEANS),
        lambda: fidelity_closed_form("ff", 0.5, (NAN, 2.0)),
        lambda: fidelity_closed_form("ff", 0.5, (4.0, INF)),
        lambda: optimal_gain(NAN),
        lambda: optimal_gain(INF),
        lambda: optimal_gain(0.5, NAN),
        lambda: optimal_gain(0.5, INF),
        lambda: check_finite("parameters", HUGE),
        lambda: check_finite("parameters", 1.0, -HUGE),
        lambda: closed_form("ff_cp", 0.5, 0.0, 1.0, HUGE),
        lambda: closed_form("ff_cp", 0.5, HUGE, 1.0, 1.0),
        lambda: closed_form("sp", 0.5, HUGE),
        lambda: ff_cp_column(0.5, 0.0, 1.0, [2.0, -HUGE]),
        lambda: fidelity_closed_form("ff", 0.5, (4.0, HUGE)),
        lambda: optimal_gain(0.5, HUGE),
    ],
    ids=[
        "ff-r-nan", "ff-r-inf", "ff-vm-nan", "ff-vm-inf", "ff-eta-nan", "ff-gain-nan",
        "ff-gain-inf", "sp-r-nan", "psa2-r-inf", "fidelity-psa2-r-nan", "fidelity-ff-r-inf",
        "fidelity-ff-mean-nan", "fidelity-ff-mean-inf", "gain-r-nan", "gain-r-inf",
        "gain-vm-nan", "gain-vm-inf", "check-huge", "check-minus-huge", "ff-gain-huge",
        "ff-vm-huge", "sp-vm-huge", "column-gain-huge", "fidelity-ff-mean-huge", "gain-vm-huge",
    ],
)
def test_non_finite_closed_form_input_is_rejected(build):
    with pytest.raises(ValueError):
        build()
