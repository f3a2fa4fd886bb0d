"""The single-player closed form derived from an exact model of the dealer.

The model is written here from the optics, not from cvqss.optics: every beam
is its pair of quadratures (X+, X-), each a sympy expression in the secret
means and in independent unit-variance noise symbols, and every element is
its quadrature map.  Both dealers are built as deal builds them.  T and V_cv
then follow from their definitions, so closed_form("sp"), transcribed by
hand in cvqss.metrics, is checked against a derivation that shares none of
its code.
"""

import math

import pytest

from cvqss import closed_form

sp = pytest.importorskip("sympy")

r, v_m = sp.symbols("r v_m", nonnegative=True)
MEANS = sp.symbols("m_plus m_minus", positive=True)
H = 1 / sp.sqrt(2)  # a 1:1 splitter's amplitude weights


def mode(name, v_plus, v_minus):
    """A fresh mode with these quadrature variances, and its two noise symbols."""
    n_plus, n_minus = sp.symbols(f"{name}_plus {name}_minus")
    return (sp.sqrt(v_plus) * n_plus, sp.sqrt(v_minus) * n_minus), (n_plus, n_minus)


def rotate(beam, theta):
    """Phase shift a -> e^{i theta} a."""
    x_plus, x_minus = beam
    c, s = sp.cos(theta), sp.sin(theta)
    return c * x_plus - s * x_minus, s * x_plus + c * x_minus


def quarter_turn(beam):
    """The exact quarter wave: X+ -> -X-, X- -> X+."""
    x_plus, x_minus = beam
    return -x_minus, x_plus


def splitter(a, b, phase=0):
    """1:1 splitter, b phase-shifted first: (a + e^{i phase} b, a - e^{i phase} b)/sqrt(2)."""
    b = rotate(b, phase)
    return (tuple(H * p + H * q for p, q in zip(a, b)),
            tuple(H * p - H * q for p, q in zip(a, b)))


def modulate(beam, modulation, sign_plus):
    """A phase-modulator pair's share of one classical mode: sign_plus in X+, + in X-."""
    (x_plus, x_minus), (m_plus, m_minus) = beam, modulation
    return x_plus + sign_plus * m_plus, x_minus + m_minus


def dealt(source):
    """Secret quadratures, its noise symbols, the three shares and every noise symbol."""
    vacuum, secret_noise = mode("s", 1, 1)
    secret = tuple(m + x for m, x in zip(MEANS, vacuum))
    a, a_noise = mode("a", sp.exp(-2 * r), sp.exp(2 * r))
    b, b_noise = mode("b", sp.exp(-2 * r), sp.exp(2 * r))
    if source == "type1":
        out1, out2 = splitter(a, b, sp.pi / 2)
        beam1, beam2 = rotate(out1, -sp.pi / 4), rotate(out2, sp.pi / 4)
    else:
        beam1, beam2 = splitter(a, quarter_turn(b))
    modulation, m_noise = mode("mod", v_m, v_m)
    share1, share2 = splitter(secret, modulate(beam1, modulation, +1))
    shares = (share1, share2, modulate(beam2, modulation, -1))
    return secret, secret_noise, shares, (*secret_noise, *a_noise, *b_noise, *m_noise)


def scores(source, share):
    """(T_q, V_q) of one share from the definitions: T = SNR_out / SNR_secret and
    V_cv = V_out - cov^2 / V_secret, per quadrature."""
    secret, secret_noise, shares, noises = dealt(source)
    quiet = {n: 0 for n in noises}
    t_q, v_q = 0, 1
    for x_s, x_o, own in zip(secret, shares[share - 1], secret_noise):
        x_s, x_o = sp.expand(x_s), sp.expand(x_o)
        v_s, v_o = (sum(x.coeff(n) ** 2 for n in noises) for x in (x_s, x_o))
        cov = x_o.coeff(own) * x_s.coeff(own)  # the secret's one noise symbol
        t_q += (x_o.subs(quiet) ** 2 / v_o) / (x_s.subs(quiet) ** 2 / v_s)
        v_q *= v_o - cov**2 / v_s
    return sp.simplify(t_q), sp.simplify(v_q)


def single_player_closed_form():
    """closed_form("sp")'s formula, transcribed."""
    bulge = sp.cosh(2 * r) + v_m
    return 2 / (1 + bulge), (bulge / 2) ** 2


CASES = [(source, share) for source in ("type1", "type2") for share in (1, 2, 3)]


@pytest.fixture(scope="module")
def derived():
    return {case: scores(*case) for case in CASES}


def _vanishes(expr):
    return sp.simplify(sp.expand(expr.rewrite(sp.exp))) == 0


@pytest.mark.parametrize("source, share", CASES, ids=[f"{s}-share{i}" for s, i in CASES])
def test_a_single_players_scores_are_derived_exactly(derived, source, share):
    t_q, v_q = derived[source, share]
    if share == 3:  # the share without the secret: no transfer, noise (cosh 2r + v_m) each
        expected = (0, (sp.cosh(2 * r) + v_m) ** 2)
    else:
        expected = single_player_closed_form()
    assert _vanishes(t_q - expected[0])
    assert _vanishes(v_q - expected[1])


@pytest.mark.parametrize("r_value, vm_value", [(0.0, 0.0), (0.3, 0.0), (1.0, 2.5), (4.0, 100.0)])
def test_closed_form_sp_evaluates_the_derived_scores(derived, r_value, vm_value):
    point = {r: sp.Float(r_value, 40), v_m: sp.Float(vm_value, 40)}
    got = closed_form("sp", r_value, vm_value)
    for case in CASES:
        if case[1] == 3:
            continue
        for value, expr in zip(got, derived[case]):
            exact = float(sp.N(expr.subs(point), 30))
            assert math.isclose(value, exact, rel_tol=1e-13)
