"""Exact proofs, in sympy, of where the collaborating pair starts to win.

The closed forms are re-transcribed here from their formulas in x = e^{-2r}
rather than imported from cvqss, so these tests check the algebra behind
crossover_squeezing's root and do not share its code.
"""

import pytest

sp = pytest.importorskip("sympy")

x = sp.symbols("x", positive=True)
SQRT2 = sp.sqrt(2)

# P and D of the factorisation stated in crossover_squeezing's docstring.
P = 3 * x**5 - 3 * x**4 - 15 * x**3 - 6 * x**2 - 2 * x - 1
D = (x + 1) ** 2 * (2 * x + 1) * (9 * x**4 + 18 * x**3 + 6 * x**2 + 2 * x + 1)


def ff_cp_tq(g):
    """T_q of the feedforward pair at gain g, eta = 1 and no modulation."""
    signal = (1 + g / SQRT2) ** 2
    noise = (g / 2 - SQRT2) ** 2 / x + (3 * g / 2) ** 2 * x
    return 1 / (1 + 2 * x) + signal / (signal + noise)


def sp_tq():
    """T_q of a single player holding a secret-bearing share, no modulation."""
    return 2 / (1 + (1 / x + x) / 2)


def optimal_gain(quiet_weight):
    """2 sqrt(2) loud / (loud + quiet): weight 1 for max T_q, 3 for min V_q."""
    loud, quiet = 1 / x, 3 * quiet_weight * x
    return 2 * SQRT2 * loud / (loud + quiet)


def test_min_vq_pair_beats_a_single_player_exactly_for_x_below_one_over_sqrt3():
    imbalance = sp.together(ff_cp_tq(optimal_gain(3)) - sp_tq())
    assert sp.cancel(imbalance - 2 * (3 * x**2 - 1) * P / D) == 0
    # P < 0 on (0, 1]: negative at 0 and no real root in (0, 1].
    assert P.subs(x, 0) == -1
    assert all(not (0 < root <= 1) for root in sp.real_roots(sp.Poly(P, x)))
    # D > 0 for x > 0: every coefficient is positive.
    assert all(c > 0 for c in sp.Poly(sp.expand(D), x).coeffs())
    assert sp.solve(3 * x**2 - 1, x) == [1 / sp.sqrt(3)]


def test_max_tq_pair_crosses_unit_transfer_at_the_same_point():
    excess = ff_cp_tq(optimal_gain(1)) - 1
    assert sp.cancel(excess + (3 * x**2 - 1) / ((x + 1) ** 2 * (2 * x + 1))) == 0
