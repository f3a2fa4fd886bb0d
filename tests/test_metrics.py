"""Fidelity, transfer coefficients, conditional variances, closed forms."""

import math
from decimal import Decimal, localcontext

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvqss import (
    EprSource,
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
    r_from_squeezing_pct,
    reconstruct_12,
    reconstruct_2psa,
    reconstruct_ff,
    squeezing_pct,
    transfer_coefficient,
    tv_point,
    variance,
)

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

    @settings(max_examples=100, deadline=None)
    @given(
        r=st.floats(0.0, 4.0),
        v_m=st.floats(0.0, 100.0),
        source=st.sampled_from(EprSource),
        means=st.tuples(*2 * [st.floats(0.1, 5.0) | st.floats(-5.0, -0.1)]),
        output=st.sampled_from(["share1", "share2", "feedforward"]),
        gain=st.floats(0.0, 8.0),
        eta=st.floats(0.05, 1.0),
    )
    def test_equals_the_per_quadrature_metrics_exactly(
        self, r, v_m, source, means, output, gain, eta
    ):
        psi, shares = dealt(r, v_m, source, means)
        if output == "feedforward":
            out = reconstruct_ff(shares, gain, eta)
        else:
            out = shares.share(int(output[-1]))
        t = {q: transfer_coefficient(psi, out, q) for q in Quad}
        v = {q: conditional_variance(psi, out, q) for q in Quad}
        assert tv_point(psi, out) == (t[P] + t[M], v[P] * v[M])
        m = evaluate(psi, out)
        assert (m.t_plus, m.t_minus, m.vcv_plus, m.vcv_minus) == (t[P], t[M], v[P], v[M])


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

    def test_psa_and_feedforward_coincide_at_the_cancellation_gain(self):
        # At G = 2 sqrt(2) and eta = 1 the feedforward forms telescope onto
        # the two-PSA ones: same T_q, same V_q product.
        for r in (0.0, 0.5, 1.0, 3.0):
            ff = closed_form("ff_cp", r, 0.0, 1.0, TWO_SQRT2)
            psa = closed_form("psa2_cp", r)
            assert ff == pytest.approx(psa, rel=1e-12, abs=1e-12)


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

    def test_symplectic_invariance_of_the_tv_pair(self):
        # The T-V point does not move under symplectic rescaling of the
        # output, unlike the fidelity.
        from cvqss import symplectic_correct

        psi, shares = dealt(r=0.7)
        out = reconstruct_ff(shares, FF_GAIN_OPTIMAL, 1.0)
        scaled = symplectic_correct(out, 1.9)
        assert tv_point(psi, scaled) == pytest.approx(tv_point(psi, out), abs=1e-12)


NAN, INF = float("nan"), float("inf")


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
    ],
    ids=[
        "ff-r-nan", "ff-r-inf", "ff-vm-nan", "ff-vm-inf", "ff-eta-nan", "ff-gain-nan",
        "ff-gain-inf", "sp-r-nan", "psa2-r-inf", "fidelity-psa2-r-nan", "fidelity-ff-r-inf",
        "fidelity-ff-mean-nan", "fidelity-ff-mean-inf", "gain-r-nan", "gain-r-inf",
        "gain-vm-nan", "gain-vm-inf",
    ],
)
def test_non_finite_closed_form_input_is_rejected(build):
    with pytest.raises(ValueError):
        build()
