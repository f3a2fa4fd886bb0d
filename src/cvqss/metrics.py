"""Figures of merit computed two ways: from simulated fields and from closed forms.

Fidelity, per-quadrature signal transfer coefficients T and conditional
variances V_cv, and the T-V summary pair (T_q = T+ + T-, V_q = V+_cv V-_cv).
The closed-form expressions act as independent oracles for the simulation
and vice versa.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .noise import FieldState, Quad, covariance, variance

_SQRT2 = math.sqrt(2.0)
_SQRT3 = math.sqrt(3.0)
_ZERO_SECRET_MEAN = "signal transfer undefined for a zero secret mean; use a displaced secret"


@dataclass(frozen=True)
class Metrics:
    """All figures of merit for one (secret, output) pair.

    t_* are signal transfer coefficients (output SNR over input SNR),
    vcv_* conditional variances (output noise not explained by the input),
    k_* the Gaussian mean-mismatch exponents entering the fidelity, and
    gamma their sum.
    """

    fidelity: float
    t_plus: float
    t_minus: float
    vcv_plus: float
    vcv_minus: float
    k_plus: float
    k_minus: float

    @property
    def t_q(self) -> float:
        return self.t_plus + self.t_minus

    @property
    def v_q(self) -> float:
        return self.vcv_plus * self.vcv_minus

    @property
    def gamma(self) -> float:
        return self.k_plus + self.k_minus


def _mean_mismatch(secret: FieldState, out: FieldState, quad: Quad) -> float:
    """Exponent k for one quadrature of the coherent-secret fidelity.

    k = <X_s>^2 (1 - <X_s>/<X_out>)^2 / (4 V_s + 4 V_out), taken as 0 when
    the secret mean vanishes.  A zero output mean against a nonzero secret
    mean has no finite gain ratio; the displacement-only limit
    <X_s>^2 / (4 V_s + 4 V_out) is used instead and a warning emitted.
    """
    ms = secret.mean(quad)
    if ms == 0.0:
        return 0.0
    denom = 4.0 * (variance(secret, quad) + variance(out, quad))
    mo = out.mean(quad)
    if mo == 0.0:
        warnings.warn(
            "zero output mean against a nonzero secret mean; "
            "using the displacement-only fidelity limit",
            stacklevel=3,
        )
        return ms * ms / denom
    return ms * ms * (1.0 - ms / mo) ** 2 / denom


def fidelity(secret: FieldState, out: FieldState) -> float:
    """Overlap of a coherent secret with a Gaussian output state.

    F = 2 exp(-(k+ + k-)) sqrt(V+_s V-_s / ((V+_s + V+_out)(V-_s + V-_out)))
    equals 1 exactly when the means match and the output is again a unit-
    variance coherent state.
    """
    k = _mean_mismatch(secret, out, Quad.PLUS) + _mean_mismatch(secret, out, Quad.MINUS)
    return _overlap(secret, out, k)


def _overlap(secret: FieldState, out: FieldState, k: float) -> float:
    """fidelity's formula for a given mean-mismatch exponent sum k = k+ + k-."""
    vs_p, vs_m = variance(secret, Quad.PLUS), variance(secret, Quad.MINUS)
    vo_p, vo_m = variance(out, Quad.PLUS), variance(out, Quad.MINUS)
    return (
        2.0
        * math.exp(-k)
        * math.sqrt(vs_p * vs_m / ((vs_p + vo_p) * (vs_m + vo_m)))
    )


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


def _transfer_and_cv(secret: FieldState, out: FieldState, quad: Quad) -> tuple[float, float]:
    """(T, V_cv) of one quadrature with each variance computed once.

    The arithmetic is that of transfer_coefficient and conditional_variance,
    so the results are bit-identical to theirs.
    """
    ms = secret.mean(quad)
    if ms == 0.0:
        raise ValueError(_ZERO_SECRET_MEAN)
    mo = out.mean(quad)
    vs, vo = variance(secret, quad), variance(out, quad)
    cov = covariance(secret, out, quad)
    return (mo * mo / vo) / (ms * ms / vs), vo - cov * cov / vs


def tv_point(secret: FieldState, out: FieldState) -> tuple[float, float]:
    """(T_q, V_q) for the T-V diagram; ideal reconstruction sits at (2, 0)."""
    t_plus, vcv_plus = _transfer_and_cv(secret, out, Quad.PLUS)
    t_minus, vcv_minus = _transfer_and_cv(secret, out, Quad.MINUS)
    return t_plus + t_minus, vcv_plus * vcv_minus


def evaluate(secret: FieldState, out: FieldState) -> Metrics:
    """Compute the full metrics record for one (secret, output) pair."""
    k_plus = _mean_mismatch(secret, out, Quad.PLUS)
    k_minus = _mean_mismatch(secret, out, Quad.MINUS)
    t_plus, vcv_plus = _transfer_and_cv(secret, out, Quad.PLUS)
    t_minus, vcv_minus = _transfer_and_cv(secret, out, Quad.MINUS)
    return Metrics(
        fidelity=_overlap(secret, out, k_plus + k_minus),
        t_plus=t_plus,
        t_minus=t_minus,
        vcv_plus=vcv_plus,
        vcv_minus=vcv_minus,
        k_plus=k_plus,
        k_minus=k_minus,
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
    uncorrected feedforward output is symplectically scaled, so the fidelity
    saturates below 1 and decays with the secret's displacement through the
    exponent gamma.
    """
    _require_finite(r, *means)
    em2r = math.exp(-2.0 * r)
    if scheme == "psa2":
        return 1.0 / (1.0 + em2r)
    if scheme == "ff":
        mp, mm = means
        gamma = ((2.0 - _SQRT3) / 12.0) * (
            mp * mp / (2.0 + 3.0 * em2r) + 9.0 * mm * mm / (2.0 + em2r)
        )
        return math.exp(-gamma) * math.sqrt(3.0 / ((2.0 + em2r) * (2.0 + 3.0 * em2r)))
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

    Solves T_q^SP(r) = T_q^CP(r) by bisection, the access structure running
    the feedforward loop at its minimum-noise gain (which is also the
    cancellation gain 2 sqrt(2) in the strong-squeezing limit).  Below the
    returned fraction a single player learns more than the pair, so they
    would measure the secret-bearing share directly instead.
    """

    def imbalance(r: float) -> float:
        g = optimal_gain(r, 0.0, 1.0, objective="min_vq")
        t_cp, _ = closed_form("ff_cp", r, 0.0, 1.0, g)
        t_sp, _ = closed_form("sp", r, 0.0)
        return t_cp - t_sp

    lo, hi = 1e-9, 2.0
    if not imbalance(lo) < 0.0 < imbalance(hi):
        raise RuntimeError("crossover bracket lost; closed forms changed?")
    while True:
        mid = 0.5 * (lo + hi)
        # Once the midpoint rounds onto an end of the bracket, every further
        # step reassigns that end to itself (imbalance(lo) < 0 <= imbalance(hi)).
        if mid == lo or mid == hi:
            return squeezing_pct(mid)
        if imbalance(mid) < 0.0:
            lo = mid
        else:
            hi = mid
