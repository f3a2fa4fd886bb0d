import pytest

from cvqss import (
    COEFF_ATOL, DUAN_SEPARABLE_BOUND, DealerConfig, EprSource, NoiseBasis, Quad, deal, duan_sum,
    field_from_mode,
)

SECRET_MEANS = (4.0, 2.0)


@pytest.fixture
def basis():
    return NoiseBasis()


@pytest.fixture
def secret(basis):
    return field_from_mode(basis, basis.vacuum(), *SECRET_MEANS)


def dealt(r, v_m=0.0, source=EprSource.TYPE1, means=SECRET_MEANS):
    """Fresh basis, coherent secret, and dealt shares in one call."""
    b = NoiseBasis()
    psi = field_from_mode(b, b.vacuum(), *means)
    return psi, deal(psi, DealerConfig(r, v_m, source))


def fields_close(a, b, atol=COEFF_ATOL):
    """True when means and every fluctuation coefficient agree within atol."""
    if a.basis is not b.basis:
        return False
    if abs(a.mean_plus - b.mean_plus) > atol or abs(a.mean_minus - b.mean_minus) > atol:
        return False
    for quad in Quad:
        for src in set(a.coeffs(quad)) | set(b.coeffs(quad)):
            if abs(a.coeff(quad, src) - b.coeff(quad, src)) > atol:
                return False
    return True


def secret_coefficient(out, secret, quad):
    """Weight of the secret's own noise mode inside an output quadrature."""
    (src,) = secret.coeffs(quad)
    return out.coeff(quad, src)


def is_entangled(pair):
    """The Duan witness below its separable bound."""
    return duan_sum(pair) < DUAN_SEPARABLE_BOUND - 1e-9
