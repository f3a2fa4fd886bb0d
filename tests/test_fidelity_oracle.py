"""fidelity against an independent covariance-matrix overlap built with numpy.

The reference reads only the fields' means and noise coefficients:
sigma_ij = sum_k c_ik c_jk v_k over the sources k, S = sigma_s + sigma_out,
d = the difference of the means, and F = 2/sqrt(det S) exp(-d^T S^-1 d / 2)
for a pure secret.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvqss import (
    FF_SYMPLECTIC_SCALE,
    DealerConfig,
    EprSource,
    NoiseBasis,
    deal,
    evaluate,
    fidelity,
    field_from_mode,
    phase_shift,
    psa_ideal,
    reconstruct_12,
    reconstruct_2psa,
    reconstruct_ff,
    symplectic_correct,
)

np = pytest.importorskip("numpy")

REL = 1e-12
MEAN = st.floats(-8.0, 8.0).filter(lambda m: abs(m) > 0.1)


def _sigma(fld):
    sources = list(dict.fromkeys([*fld.coeffs_plus, *fld.coeffs_minus]))
    c = np.array(
        [[fld.coeffs_plus.get(s, 0.0) for s in sources],
         [fld.coeffs_minus.get(s, 0.0) for s in sources]]
    )
    v = np.array([fld.basis.source_variance(s) for s in sources])
    return (c * v) @ c.T


def cross_covariance(fld):
    """<dX+ dX-> of one beam."""
    cm = fld.coeffs_minus
    return sum(
        c * cm[src] * fld.basis.source_variance(src)
        for src, c in fld.coeffs_plus.items() if src in cm
    )


def numpy_overlap(secret, out):
    s = _sigma(secret) + _sigma(out)
    d = np.array([secret.mean_plus - out.mean_plus, secret.mean_minus - out.mean_minus])
    return float(2.0 / np.sqrt(np.linalg.det(s)) * np.exp(-0.5 * d @ np.linalg.solve(s, d)))


def assert_matches_oracle(secret, out):
    f = fidelity(secret, out)
    ref = numpy_overlap(secret, out)
    assert math.isclose(f, ref, rel_tol=REL, abs_tol=0.0), (f, ref)


@settings(max_examples=60, deadline=None)
@given(
    r=st.floats(0.0, 3.0),
    v_m=st.floats(0.0, 100.0),
    source=st.sampled_from(list(EprSource)),
    players=st.sampled_from([(2, 3), (1, 3)]),
    eta=st.floats(0.5, 1.0),
    gain=st.floats(0.0, 6.0),
    psa_gain=st.floats(0.2, 10.0),
    epsilon=st.one_of(st.just(0.0), st.floats(0.01, 0.5)),
    means=st.tuples(MEAN, MEAN),
)
def test_dealt_shares_and_reconstructions(
    r, v_m, source, players, eta, gain, psa_gain, epsilon, means
):
    basis = NoiseBasis()
    secret = field_from_mode(basis, basis.vacuum(), *means)
    shares = deal(secret, DealerConfig(r, v_m, source))
    ff = reconstruct_ff(shares, gain, eta, players, epsilon)
    outs = (
        shares.share1,
        shares.share2,
        shares.share3,
        reconstruct_12(shares),
        reconstruct_2psa(shares, psa_gain, players),
        ff,
        symplectic_correct(ff, FF_SYMPLECTIC_SCALE),
    )
    for out in outs:
        assert_matches_oracle(secret, out)
        assert evaluate(secret, out).fidelity == fidelity(secret, out)


@settings(max_examples=60, deadline=None)
@given(alpha=st.tuples(MEAN, MEAN), beta=st.tuples(st.floats(-8.0, 8.0), st.floats(-8.0, 8.0)))
def test_coherent_pairs(alpha, beta):
    # In X units a coherent state |a> has means (2 Re a, 2 Im a), so
    # |a - b|^2 is a quarter of the squared distance between the means.
    basis = NoiseBasis()
    a = field_from_mode(basis, basis.vacuum(), *alpha)
    b = field_from_mode(basis, basis.vacuum(), *beta)
    dist2 = ((alpha[0] - beta[0]) ** 2 + (alpha[1] - beta[1]) ** 2) / 4.0
    assert math.isclose(fidelity(a, b), math.exp(-dist2), rel_tol=REL, abs_tol=0.0)
    assert_matches_oracle(a, b)


@settings(max_examples=60, deadline=None)
@given(
    secret_means=st.tuples(MEAN, MEAN),
    out_means=st.tuples(st.floats(-8.0, 8.0), st.floats(-8.0, 8.0)),
    gain=st.floats(1.5, 10.0),
    theta=st.sampled_from([-3, -1, 1, 3]),
)
def test_displaced_state_with_a_cross_covariance(secret_means, out_means, gain, theta):
    basis = NoiseBasis()
    secret = field_from_mode(basis, basis.vacuum(), *secret_means)
    out = phase_shift(psa_ideal(field_from_mode(basis, basis.vacuum(), *out_means), gain), theta)
    # <dX+ dX-> = sin cos (G - 1/G) at odd eighth turns, where sin cos = +-1/2,
    # is far from zero here.
    assert abs(cross_covariance(out)) > 0.05
    assert_matches_oracle(secret, out)
    # The rotated squeezed state is pure too, so it may stand as the secret.
    assert_matches_oracle(out, secret)
    assert fidelity(out, out) == pytest.approx(1.0, rel=REL)
