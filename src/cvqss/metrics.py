"""Figures of merit computed two ways: from simulated fields and from closed forms.

Fidelity, per-quadrature signal transfer coefficients T and conditional
variances V_cv, and the T-V summary pair (T_q = T+ + T-, V_q = V+_cv V-_cv).
The closed-form expressions act as independent oracles for the simulation
and vice versa.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .noise import FieldState, Quad, covariance, cross_covariance, variance

_SQRT2 = math.sqrt(2.0)
_SQRT3 = math.sqrt(3.0)
_ZERO_SECRET_MEAN = "signal transfer undefined for a zero secret mean; use a displaced secret"


@dataclass(frozen=True)
class Metrics:
    """All figures of merit for one (secret, output) pair.

    t_* are signal transfer coefficients (output SNR over input SNR) and
    vcv_* conditional variances (output noise not explained by the input).
    """

    fidelity: float
    t_plus: float
    t_minus: float
    vcv_plus: float
    vcv_minus: float

    @property
    def t_q(self) -> float:
        return self.t_plus + self.t_minus

    @property
    def v_q(self) -> float:
        return self.vcv_plus * self.vcv_minus


def fidelity(secret: FieldState, out: FieldState) -> float:
    """Overlap of a pure Gaussian secret, such as a coherent one, with a Gaussian output.

    F = 2/sqrt(det S) exp(-d^T S^-1 d / 2), S = sigma_s + sigma_out the sum
    of the covariance matrices and d the difference of the means; for two
    coherent states this is exp(-|alpha - beta|^2).
    """
    vs_p, vs_m = variance(secret, Quad.PLUS), variance(secret, Quad.MINUS)
    vo_p, vo_m = variance(out, Quad.PLUS), variance(out, Quad.MINUS)
    return _overlap(secret, out, vs_p, vs_m, vo_p, vo_m)


def _overlap(
    secret: FieldState, out: FieldState, vs_p: float, vs_m: float, vo_p: float, vo_m: float
) -> float:
    """fidelity's formula given both beams' quadrature variances.

    The prefactor is written 2 sqrt(det sigma_s / det S): for the pure
    secrets the formula applies to, det sigma_s = 1 and this is 2/sqrt(det S).
    """
    cs = cross_covariance(secret)
    a, b = vs_p + vo_p, vs_m + vo_m
    c = cs + cross_covariance(out)
    det = a * b - c * c
    dp = secret.mean_plus - out.mean_plus
    dm = secret.mean_minus - out.mean_minus
    k = (b * dp * dp - 2.0 * c * dp * dm + a * dm * dm) / (2.0 * det)
    return 2.0 * math.exp(-k) * math.sqrt((vs_p * vs_m - cs * cs) / det)


def transfer_coefficient(secret: FieldState, out: FieldState, quad: Quad) -> float:
    """T = SNR_out / SNR_secret for one quadrature, SNR = <X>^2 / V."""
    ms = secret.mean(quad)
    if ms == 0.0:
        raise ValueError(_ZERO_SECRET_MEAN)
    mo = out.mean(quad)
    snr_secret = ms * ms / variance(secret, quad)
    snr_out = mo * mo / variance(out, quad)
    return snr_out / snr_secret


def conditional_variance(secret: FieldState, out: FieldState, quad: Quad) -> float:
    """V_cv = V_out - |<dX_s dX_out>|^2 / V_s: output noise the input does not explain."""
    cov = covariance(secret, out, quad)
    return variance(out, quad) - cov * cov / variance(secret, quad)


def _transfer_and_cv(
    secret: FieldState, out: FieldState, quad: Quad
) -> tuple[float, float, float, float]:
    """(T, V_cv, V_s, V_out) of one quadrature with each variance computed once.

    The arithmetic is that of transfer_coefficient and conditional_variance,
    so the results are bit-identical to theirs.
    """
    ms = secret.mean(quad)
    if ms == 0.0:
        raise ValueError(_ZERO_SECRET_MEAN)
    mo = out.mean(quad)
    vs, vo = variance(secret, quad), variance(out, quad)
    cov = covariance(secret, out, quad)
    return (mo * mo / vo) / (ms * ms / vs), vo - cov * cov / vs, vs, vo


def tv_point(secret: FieldState, out: FieldState) -> tuple[float, float]:
    """(T_q, V_q) for the T-V diagram; ideal reconstruction sits at (2, 0)."""
    t_plus, vcv_plus, _, _ = _transfer_and_cv(secret, out, Quad.PLUS)
    t_minus, vcv_minus, _, _ = _transfer_and_cv(secret, out, Quad.MINUS)
    return t_plus + t_minus, vcv_plus * vcv_minus


def evaluate(secret: FieldState, out: FieldState) -> Metrics:
    """Compute the full metrics record for one (secret, output) pair."""
    t_plus, vcv_plus, vs_p, vo_p = _transfer_and_cv(secret, out, Quad.PLUS)
    t_minus, vcv_minus, vs_m, vo_m = _transfer_and_cv(secret, out, Quad.MINUS)
    return Metrics(
        fidelity=_overlap(secret, out, vs_p, vs_m, vo_p, vo_m),
        t_plus=t_plus,
        t_minus=t_minus,
        vcv_plus=vcv_plus,
        vcv_minus=vcv_minus,
    )


# ---------------------------------------------------------------------------
# Closed forms.  v_m is the classical modulation power (e^{2s} in squeezing
# notation); v_m = 0 means no added noise.


def _require_finite(*values: float) -> None:
    if not all(map(math.isfinite, values)):
        raise ValueError("parameters must be finite numbers")


def closed_form(
    scheme: str, r: float, v_m: float = 0.0, eta: float = 1.0, gain: float | None = None
) -> tuple[float, float]:
    """Closed-form (T_q, V_q) for a scheme at the given parameters.

    Schemes: "ff_cp" (feedforward, collaborating players; needs gain and
    eta), "psa2_cp" (two-PSA scheme at its optimal gain), "sp" (a single
    player measuring a secret-bearing share directly).

    The two-PSA scheme has equal conditional variances 2 e^{-2r} in both
    quadratures, so its V_q product is 4 e^{-4r}.
    """
    _require_finite(r, v_m, eta, 0.0 if gain is None else gain)
    em2r = math.exp(-2.0 * r)
    if scheme == "psa2_cp":
        return 2.0 / (1.0 + 2.0 * em2r), (2.0 * em2r) ** 2
    if scheme == "sp":
        bulge = math.cosh(2.0 * r) + v_m
        return 2.0 / (1.0 + bulge), (bulge / 2.0) ** 2
    if scheme == "ff_cp":
        if gain is None:
            raise ValueError("feedforward closed form needs a gain")
        if eta <= 0.0:
            raise ValueError("feedforward closed form undefined at zero efficiency")
        e2r = math.exp(2.0 * r)
        g = gain
        signal = (1.0 + g / _SQRT2) ** 2
        noise = (
            (g / 2.0 - _SQRT2) ** 2 * e2r
            + (1.5 * g) ** 2 * em2r
            + (2.0 - g / _SQRT2) ** 2 * v_m
            + 3.0 * g * g * (1.0 - eta) / eta
        )
        t_q = 1.0 / (1.0 + 2.0 * em2r) + signal / (signal + noise)
        v_q = (em2r / 18.0) * (
            9.0 * g * g * em2r
            + e2r * (g - 2.0 * _SQRT2) ** 2
            + 2.0 * v_m * (g - 2.0 * _SQRT2) ** 2
            + 12.0 * g * g * (1.0 - eta) / eta
        )
        return t_q, v_q
    raise ValueError(f"unknown scheme {scheme!r}")


def fidelity_closed_form(
    scheme: str, r: float, means: tuple[float, float] = (0.0, 0.0)
) -> float:
    """Closed-form fidelity limits for the two reconstruction schemes.

    "psa2": 1 / (1 + e^{-2r}), independent of the secret.  "ff": the
    uncorrected feedforward output at the cancellation gain has means
    sqrt(3) m+ and m-/sqrt(3) and variances 3 (1 + 2x) and (1 + 2x)/3,
    x = e^{-2r}, so its overlap with the secret saturates below 1 and falls
    off as exp(-((2 - sqrt(3))/2) (m+^2/(2 + 3x) + m-^2/(2 + x))).
    """
    _require_finite(r, *means)
    em2r = math.exp(-2.0 * r)
    if scheme == "psa2":
        return 1.0 / (1.0 + em2r)
    if scheme == "ff":
        mp, mm = means
        k = ((2.0 - _SQRT3) / 2.0) * (
            mp * mp / (2.0 + 3.0 * em2r) + mm * mm / (2.0 + em2r)
        )
        return math.exp(-k) * math.sqrt(3.0 / ((2.0 + em2r) * (2.0 + 3.0 * em2r)))
    raise ValueError(f"unknown scheme {scheme!r}")


# ---------------------------------------------------------------------------
# Exact optima of the closed forms.


def optimal_gain(
    r: float, v_m: float = 0.0, eta: float = 1.0, objective: str = "max_tq"
) -> float:
    """Feedforward gain optimising a closed-form objective, in closed form.

    "max_tq" maximises the information transfer sum; "min_vq" minimises the
    conditional-variance product.  Both objectives weigh the noise that
    cancels at 2 sqrt(2), loud = e^{2r} + 2 v_m, against the noise that
    grows with the gain, quiet; the stationarity condition is linear in g
    (the g^2 terms cancel), so each has the single optimum

        g = 2 sqrt(2) loud / (loud + quiet),

    with quiet = 3 e^{-2r} + 4 (1 - eta)/eta for "max_tq" and three times
    that for "min_vq".  Both approach 2 sqrt(2) for strong squeezing or
    strong added noise; with finite squeezing and no noise the transfer
    optimum sits strictly below it.
    """
    if objective not in ("max_tq", "min_vq"):
        raise ValueError(f"unknown objective {objective!r}")
    _require_finite(r, v_m, eta)
    if not 0.0 < eta < math.inf:
        raise ValueError("feedforward closed form undefined at zero efficiency")
    quiet = 3.0 * math.exp(-2.0 * r) + 4.0 * (1.0 - eta) / eta
    if objective == "min_vq":
        quiet *= 3.0
    loud = math.exp(2.0 * r) + 2.0 * v_m
    return 2.0 * _SQRT2 / (1.0 + quiet / loud)


def squeezing_pct(r: float) -> float:
    """Squeezing as a fraction: 1 - e^{-2r} (0.4 means V+ = 0.6 shot noise)."""
    return 1.0 - math.exp(-2.0 * r)


def r_from_squeezing_pct(p: float) -> float:
    if not 0.0 <= p < 1.0:
        raise ValueError("squeezing fraction must be in [0, 1)")
    return -0.5 * math.log(1.0 - p)


def crossover_squeezing() -> float:
    """Squeezing fraction where collaborating players start beating singles.

    The pair runs the feedforward loop at its minimum-noise gain (which is
    also the cancellation gain 2 sqrt(2) in the strong-squeezing limit).
    With x = e^{-2r},

        T_q^CP - T_q^SP = 2 (3x^2 - 1) P(x) / D(x),
        P(x) = 3x^5 - 3x^4 - 15x^3 - 6x^2 - 2x - 1,
        D(x) = (x + 1)^2 (2x + 1) (9x^4 + 18x^3 + 6x^2 + 2x + 1).

    P < 0 < D on (0, 1] (P's real roots are about -1.53, -0.48 and 2.95),
    so the only crossover is x = 1/sqrt(3): r = ln 3 / 4, squeezing
    1 - 1/sqrt(3).  Below it a single player learns more than the pair, so
    they would measure the secret-bearing share directly instead.
    """
    # The float nearest 1 - 1/sqrt(3); 1 - sqrt(3)/3 rounds one ulp above it.
    return (_SQRT3 - 1.0) / _SQRT3
