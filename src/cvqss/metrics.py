"""Figures of merit computed two ways: from simulated fields and from closed forms.

Fidelity, per-quadrature signal transfer coefficients T and conditional
variances V_cv, and the T-V summary pair (T_q = T+ + T-, V_q = V+_cv V-_cv).
Second moments sum squared coefficients per variance class; V_cv sums every
source but the secret's own, so it takes no V_out - cov^2/V_s difference.
The closed forms are transcribed by hand; only "sp" is yet derived apart from
the simulation (by the tests), so the rest cross-check it but are not oracles.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from collections.abc import Sequence
from itertools import compress

from .noise import FieldState, Quad, check_finite, check_point, check_real, left_sum
from .noise import variance

_SQRT2 = math.sqrt(2.0)
_SQRT3 = math.sqrt(3.0)
_TWO_SQRT2 = 2.0 * _SQRT2
_ZERO_SECRET_MEAN = "signal transfer undefined for a zero secret mean; use a displaced secret"


class Metrics(namedtuple("Metrics", "t_plus t_minus t_q vcv_plus vcv_minus v_q fidelity")):
    """All figures of merit for one (secret, output) pair, in the CLI's column order.

    t_* are signal transfer coefficients (output SNR over input SNR), vcv_*
    conditional variances (output noise not explained by the input), and
    t_q = t_plus + t_minus, v_q = vcv_plus * vcv_minus their T-V summary.
    """

    __slots__ = ()


# One quadrature of a (secret, output) pair: (secret mean, secret variance,
# output mean, output variance).
Moments = tuple[float, float, float, float]

# One quadrature of a (secret, output) pair by variance class: (secret mean,
# a^2 for the secret's coefficient a on its one source, output mean, c^2 for
# the output's on that source, the source's class, and the output's other
# c_k^2 summed per class: (class id, weight) pairs in class-id order for the
# classes it weighs), which _moments scores under any class variances.
Tally = tuple[float, float, float, float, int, list]


def _dot(weights: list[tuple[int, float]], variances: Sequence[float]) -> float:
    """Weights times class variances; a zero-variance class adds nothing, even at an inf weight."""
    return left_sum([w * v for c, w in weights if (v := variances[c])])


def _sparse(dense: list[float]) -> list[tuple[int, float]]:
    """Per-class sums as (class id, weight) pairs, without the 0.0 weights: each
    would only add + 0.0 to a dot product, and a sum from 0.0 is never -0.0."""
    return list(compress(enumerate(dense), dense))


def _tally(secret: FieldState, out: FieldState, quad: Quad) -> Tally:
    if secret.basis is not out.basis:
        raise ValueError("fields live on different noise bases")
    if len(secret.coeffs(quad)) != 1:
        raise ValueError("the secret must have exactly one noise source per quadrature")
    ((own, a),) = secret.coeffs(quad).items()
    classes, weights, own2 = out.basis._classes, [0.0] * len(out.basis._class_variances), 0.0
    for src, c in out.coeffs(quad).items():
        if src == own:
            own2 = c * c
        else:
            weights[classes[src]] += c * c
    return secret.mean(quad), a * a, out.mean(quad), own2, classes[own], _sparse(weights)


def _cross(secret: FieldState, out: FieldState) -> list[tuple[int, float]]:
    """Both beams' X+ X- coefficient products summed per class, for _overlap."""
    if secret.basis is not out.basis:
        raise ValueError("fields live on different noise bases")
    classes, dense = out.basis._classes, [0.0] * len(out.basis._class_variances)
    for fld in (secret, out):
        cm = fld.coeffs_minus
        for src, c in fld.coeffs_plus.items():
            if src in cm:
                dense[classes[src]] += c * cm[src]
    return _sparse(dense)


def _moments(tally: Tally, variances: Sequence[float]) -> tuple[Moments, float]:
    """A tallied quadrature's moments under these class variances, and its
    V_cv: the output's weights alone.  V_out adds the secret's source back."""
    ms, a2, mo, own2, own, weights = tally
    vcv = _dot(weights, variances)
    return (ms, a2 * variances[own], mo, vcv + own2 * variances[own]), vcv


def _transfer(moments: Moments) -> float:
    ms, vs, mo, vo = moments
    if ms * ms == 0.0:  # also a mean so small that its square underflows
        raise ValueError(_ZERO_SECRET_MEAN)
    return (mo * mo / vo) / (ms * ms / vs)


def _scores(variances: Sequence[float], pluses: list[Tally], minus: Tally, crosses=None) -> list:
    """(T_q, V_q) of each X+ tally in pluses paired with one X- tally under
    these class variances; given each one's _cross weights, its Metrics.  Each
    X+ tally's overlap is formed before its zero-mean check."""
    mm, vcv_minus = _moments(minus, variances)
    t_minus = _transfer(mm)
    scored = []
    for tally, cw in zip(pluses, crosses or [None] * len(pluses)):
        mp, vcv = _moments(tally, variances)
        if cw is not None:
            overlap = _overlap(mp, mm, _dot(cw, variances))
        t_plus = _transfer(mp)
        t_q, v_q = t_plus + t_minus, vcv * vcv_minus
        scored.append((t_q, v_q) if cw is None
                      else Metrics(t_plus, t_minus, t_q, vcv, vcv_minus, v_q, overlap))
    return scored


def _pair(secret: FieldState, outs: list[FieldState], cross: bool = False) -> tuple:
    """_scores' arguments after the variances for outputs that share one X-, as the
    outputs of one feedforward loop do: each one's X+ tally (and _cross weights)
    and the first one's X- tally."""
    return ([_tally(secret, o, Quad.PLUS) for o in outs], _tally(secret, outs[0], Quad.MINUS),
            [_cross(secret, o) for o in outs] if cross else None)


def fidelity(secret: FieldState, out: FieldState) -> float:
    """Overlap tr(rho_s rho_out) of two Gaussian states: their fidelity when either is pure.

    F = 2/sqrt(det S) exp(-d^T S^-1 d / 2), S = sigma_s + sigma_out the sum
    of the covariance matrices and d the difference of the means; for two
    coherent states this is exp(-|alpha - beta|^2).  It reads totals only,
    so any pure state may stand as the secret.
    """
    variances = out.basis._class_variances
    if all(len(secret.coeffs(quad)) == 1 for quad in Quad):
        plus, minus = (_moments(_tally(secret, out, quad), variances)[0] for quad in Quad)
    else:  # no one source to keep apart: plain totals
        plus, minus = ((secret.mean(q), variance(secret, q), out.mean(q), variance(out, q))
                       for q in Quad)
    return _overlap(plus, minus, _dot(_cross(secret, out), variances))


def _overlap(plus: Moments, minus: Moments, cross: float) -> float:
    """fidelity's formula; cross is the summed X+/X- covariance of both beams.

    Exact when at least one of the two states is pure; neither is assumed
    to be the pure one.
    """
    ms_p, vs_p, mo_p, vo_p = plus
    ms_m, vs_m, mo_m, vo_m = minus
    a, b = vs_p + vo_p, vs_m + vo_m
    det = a * b - cross * cross
    dp = ms_p - mo_p
    dm = ms_m - mo_m
    k = (b * dp * dp - 2.0 * cross * dp * dm + a * dm * dm) / (2.0 * det)
    # sqrt(1 / det), not 1 / sqrt(det): the two differ in the last digit of printed fidelities
    return 2.0 * math.exp(-k) * math.sqrt(1.0 / det)


def _quadrature_score(secret: FieldState, out: FieldState, quad: Quad, variances) -> tuple:
    """(T, V_cv) of one quadrature under these class variances: transfer_coefficient
    and conditional_variance at any (r, v_m)."""
    moments, vcv = _moments(_tally(secret, out, quad), variances)
    return _transfer(moments), vcv


def transfer_coefficient(secret: FieldState, out: FieldState, quad: Quad) -> float:
    """T = SNR_out / SNR_secret for one quadrature, SNR = <X>^2 / V."""
    return _quadrature_score(secret, out, quad, out.basis._class_variances)[0]


def conditional_variance(secret: FieldState, out: FieldState, quad: Quad) -> float:
    """V_cv = V_out - |<dX_s dX_out>|^2 / V_s: output noise the input does not explain.

    For a secret with one source s in quad that is sum_k c_k^2 v_k over the
    output's other sources k, summed per class; other secrets raise ValueError.
    """
    return _moments(_tally(secret, out, quad), out.basis._class_variances)[1]


def _regression_gain(a: FieldState, b: FieldState, quad: Quad, variances) -> float:
    """The g minimising var(a + g b) in quad under these class variances, which is
    quadratic in g: -cov(a, b) / var(b).  + 0.0 turns the -0.0 of an uncorrelated
    pair into the gain 0.0."""
    ca, cb, classes = a.coeffs(quad), b.coeffs(quad), b.basis._classes
    cov = left_sum(c * ca[src] * variances[classes[src]] for src, c in cb.items() if src in ca)
    return -cov / left_sum(c * c * variances[classes[src]] for src, c in cb.items()) + 0.0


def tv_point(secret: FieldState, out: FieldState) -> tuple[float, float]:
    """(T_q, V_q) for the T-V diagram; ideal reconstruction sits at (2, 0)."""
    return _scores(out.basis._class_variances, *_pair(secret, [out]))[0]


def evaluate(secret: FieldState, out: FieldState) -> Metrics:
    """Compute the full metrics record for one (secret, output) pair."""
    return _scores(out.basis._class_variances, *_pair(secret, [out], cross=True))[0]


# ---------------------------------------------------------------------------
# Closed forms.  v_m is the classical modulation power (e^{2s} in squeezing
# notation); v_m = 0 means no added noise.


def _require_domain(r: float, v_m: float = 0.0, eta: float = 1.0, *free: float) -> None:
    """The domain where the simulation runs: a point (r, v_m) the dealer takes,
    0 < eta <= 1 and finite free values, all real numbers."""
    check_point(r, v_m)
    check_real("closed-form parameters", eta)
    if not 0.0 < eta <= 1.0:
        raise ValueError("closed forms need 0 < eta <= 1")
    check_finite("closed-form parameters", *free)


def closed_form(
    scheme: str, r: float, v_m: float = 0.0, eta: float = 1.0, gain: float | None = None
) -> tuple[float, float]:
    """Closed-form (T_q, V_q) for a scheme at the given parameters.

    Schemes: "ff_cp" (feedforward, collaborating players; needs gain and
    eta, see ff_cp_column), "psa2_cp" (two-PSA scheme at its optimal gain),
    "sp" (a single player measuring a secret-bearing share directly); the
    last two take no gain.

    The two-PSA scheme has equal conditional variances 2 e^{-2r} in both
    quadratures, so its V_q product is 4 e^{-4r}.
    """
    if scheme == "ff_cp":
        if gain is None:
            raise ValueError("feedforward closed form needs a gain")
        (point,) = ff_cp_column(r, v_m, eta, (gain,))
        return point
    if scheme not in ("psa2_cp", "sp"):
        raise ValueError(f"unknown scheme {scheme!r}")
    if gain is not None:
        raise ValueError(f"the {scheme!r} closed form takes no gain")
    _require_domain(r, v_m, eta)
    em2r = math.exp(-2.0 * r)
    if scheme == "psa2_cp":
        return 2.0 / (1.0 + 2.0 * em2r), (2.0 * em2r) ** 2
    bulge = math.cosh(2.0 * r) + v_m
    return 2.0 / (1.0 + bulge), _square(bulge / 2.0)


def _square(x: float) -> float:
    try:
        return x ** 2
    except OverflowError:  # float ** raises where * would give inf
        return math.inf


def _gain_terms(g: float, scaled: bool) -> tuple[float, ...]:
    """g's terms and V_q's factor f = 1.0; scaled, the terms over g^2 and f = g.  V_q takes
    f twice, as g * g alone overflows from |g| ~ 1.34e154."""
    a, b, f = (1.0 / g, 1.0, g) if scaled else (1.0, g, 1.0)
    return (_square(a + b / _SQRT2), _square(b / 2.0 - _SQRT2 * a), _square(1.5 * b),
            _square(2.0 * a - b / _SQRT2), 3.0 * b * b, _square(b - _TWO_SQRT2 * a),
            9.0 * b * b, 12.0 * b * b, f)


@functools.lru_cache(maxsize=1)
def _ff_gain_terms(gains: tuple[float, ...]) -> tuple[tuple[float, ...], ...]:
    """Each gain's terms, scaled above 2^510 (where 12 g^2 nears the largest float) so T_q
    meets its finite limit.  Memoised for the last gains, as floats: only 0.0 and -0.0 are
    equal keys, and a signed zero meets only squares and sums with a nonzero float."""
    return tuple(_gain_terms(g, abs(g) > 2.0 ** 510) for g in gains)


def ff_cp_column(
    r: float, v_m: float, eta: float, gains: Sequence[float]
) -> list[tuple[float, float]]:
    """closed_form("ff_cp", r, v_m, eta, g) for each gain g in gains.

    The domain check and the terms that depend only on (r, v_m, eta) run once
    per column, those that depend only on g once per run of columns over one
    tuple of gains; every float operation is closed_form's, in its order.  A gain
    above 1 whose unscaled sums overflow (e^{2r} can, below 2^510) is redone scaled.
    """
    _require_domain(r, v_m, eta, *gains)
    gains = tuple(map(float, gains))
    em2r = math.exp(-2.0 * r)
    e2r = math.exp(2.0 * r)
    t_squeezed = 1.0 / (1.0 + 2.0 * em2r)
    v_scale = em2r / 18.0
    two_vm = 2.0 * v_m
    loss = 1.0 - eta
    inf = math.inf
    column = []
    for g, terms in zip(gains, _ff_gain_terms(gains)):
        while True:
            signal, at_e2r, at_em2r, at_vm, at_loss, uncancelled, at_em2r_v, at_loss_v, f = terms
            total = signal + (at_e2r * e2r + at_em2r * em2r + at_vm * v_m + at_loss * loss / eta)
            bracket = (at_em2r_v * em2r + e2r * uncancelled + two_vm * uncancelled
                       + at_loss_v * loss / eta)
            # term by term the bracket is 4 times the noise, so it overflows where total does
            if bracket < inf or f != 1.0 or abs(g) <= 1.0:
                break
            terms = _gain_terms(g, True)
        column.append((t_squeezed + signal / total, v_scale * bracket * f * f))
    return column


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
    _require_domain(r, 0.0, 1.0, *means)
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
    _require_domain(r, v_m, eta)
    quiet = 3.0 * math.exp(-2.0 * r) + 4.0 * (1.0 - eta) / eta
    if objective == "min_vq":
        quiet *= 3.0
    loud = math.exp(2.0 * r) + 2.0 * v_m
    return _TWO_SQRT2 / (1.0 + quiet / loud)


def squeezing_pct(r: float) -> float:
    """Squeezing as a fraction: 1 - e^{-2r} (0.4 means V+ = 0.6 shot noise)."""
    check_point(r, 0.0)
    return 1.0 - math.exp(-2.0 * r)


def r_from_squeezing_pct(p: float) -> float:
    """squeezing_pct's inverse: -ln(1 - p) / 2, + 0.0 so that p = 0 gives r = 0.0, not -0.0."""
    check_real("squeezing fraction", p)
    if not 0.0 <= p < 1.0:
        raise ValueError("squeezing fraction must be in [0, 1)")
    return -0.5 * math.log(1.0 - p) + 0.0


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
