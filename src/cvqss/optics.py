"""Linear optical and parametric components as exact maps on field states.

Sign and phase conventions are load-bearing here: the dealer and
reconstruction pipelines rely on them to make the entanglement and
classical-noise terms cancel coefficient for coefficient, and the
regression tests pin them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .noise import (
    FieldState,
    ModeKind,
    NoiseBasis,
    Quad,
    Source,
    _prune,
    lincomb,
)


def phase_shift(fld: FieldState, theta: float) -> FieldState:
    """Optical phase shift a -> exp(i theta) a.

    Rotates the quadratures: X+ -> cos(theta) X+ - sin(theta) X-,
    X- -> sin(theta) X+ + cos(theta) X-.
    """
    c, s = math.cos(theta), math.sin(theta)
    cp: dict[Source, float] = {}
    cm: dict[Source, float] = {}
    for src, w in fld.coeffs_plus.items():
        cp[src] = cp.get(src, 0.0) + c * w
        cm[src] = cm.get(src, 0.0) + s * w
    for src, w in fld.coeffs_minus.items():
        cp[src] = cp.get(src, 0.0) - s * w
        cm[src] = cm.get(src, 0.0) + c * w
    return FieldState(
        fld.basis,
        c * fld.mean_plus - s * fld.mean_minus,
        s * fld.mean_plus + c * fld.mean_minus,
        _prune(cp),
        _prune(cm),
    )


def beam_splitter(
    a: FieldState, b: FieldState, reflectivity: float, phase: float = 0.0
) -> tuple[FieldState, FieldState]:
    """Two-port beam splitter of power reflectivity R.

    Input b acquires the given phase before a real orthogonal mix:

        out1 = sqrt(1-R) a + sqrt(R)   e^{i phase} b
        out2 = sqrt(R)   a - sqrt(1-R) e^{i phase} b

    For phase in {0, pi} the coefficient weight sum(c^2) per quadrature is
    conserved across the two outputs.
    """
    if not 0.0 <= reflectivity <= 1.0:
        raise ValueError("reflectivity must be in [0, 1]")
    if a.basis is not b.basis:
        raise ValueError("fields live on different noise bases")
    t = math.sqrt(1.0 - reflectivity)
    r = math.sqrt(reflectivity)
    bp = phase_shift(b, phase) if phase != 0.0 else b
    return lincomb([(t, a), (r, bp)]), lincomb([(r, a), (-t, bp)])


def psa_ideal(fld: FieldState, gain: float) -> FieldState:
    """Noiseless phase-sensitive amplifier: X+ scaled by sqrt(G), X- by 1/sqrt(G).

    Symplectic (the two scale factors multiply to one), applied to means and
    fluctuation coefficients alike.
    """
    if gain <= 0.0:
        raise ValueError("PSA gain must be positive")
    s = math.sqrt(gain)
    return FieldState(
        fld.basis,
        s * fld.mean_plus,
        fld.mean_minus / s,
        {src: s * c for src, c in fld.coeffs_plus.items()},
        {src: c / s for src, c in fld.coeffs_minus.items()},
    )


def psa_type2_pair(
    signal: FieldState, idler: FieldState, r: float
) -> tuple[FieldState, FieldState]:
    """Traveling-wave type-II parametric interaction on a signal/idler pair.

    Quadrature form of a_s,out = a_s cosh r + a_i^dag sinh r (and s <-> i):

        X+_s,out = cosh(r) X+_s + sinh(r) X+_i
        X-_s,out = cosh(r) X-_s - sinh(r) X-_i

    Negative r is the pump-phase-flipped interaction.
    """
    if signal.basis is not idler.basis:
        raise ValueError("fields live on different noise bases")
    ch, sh = math.cosh(r), math.sinh(r)
    s_plus = lincomb([(ch, signal), (sh, idler)])
    i_plus = lincomb([(ch, idler), (sh, signal)])
    s_minus = lincomb([(ch, signal), (-sh, idler)])
    i_minus = lincomb([(ch, idler), (-sh, signal)])
    basis = signal.basis
    s_out = FieldState(
        basis, s_plus.mean_plus, s_minus.mean_minus, s_plus.coeffs_plus, s_minus.coeffs_minus
    )
    i_out = FieldState(
        basis, i_plus.mean_plus, i_minus.mean_minus, i_plus.coeffs_plus, i_minus.coeffs_minus
    )
    return s_out, i_out


def psa_gain_phase(r: float, phi: float) -> float:
    """Phase-dependent power gain cosh(2r) + sinh(2r) cos(phi).

    Oscillates between exp(2r) at phi = 0 and exp(-2r) at phi = pi.
    """
    return math.cosh(2.0 * r) + math.sinh(2.0 * r) * math.cos(phi)


@dataclass(frozen=True)
class OpoParams:
    """Below-threshold OPO cavity: damping rates, pump coupling, sideband frequency.

    kappa_f, kappa_b, kappa_l are the front-mirror, back-mirror and
    intracavity-loss damping rates; gamma the parametric gain coefficient;
    omega the analysis sideband frequency in the same rate units.
    """

    kappa_f: float
    kappa_b: float = 0.0
    kappa_l: float = 0.0
    gamma: float = 0.0
    omega: float = 0.0

    def __post_init__(self) -> None:
        if self.kappa_f <= 0.0:
            raise ValueError("front-mirror damping rate must be positive")
        if self.kappa_b < 0.0 or self.kappa_l < 0.0:
            raise ValueError("damping rates must be nonnegative")
        if abs(self.gamma) >= self.kappa:
            raise ValueError("cavity at or above threshold: |gamma| must be < total damping")

    @property
    def kappa(self) -> float:
        return self.kappa_f + self.kappa_b + self.kappa_l


def opo_transfer(p: OpoParams) -> tuple[complex, complex]:
    """Frequency-domain quadrature transfer of the front-mirror input.

        t+ = (kappa_f - i w + gamma) / (i w + kappa - gamma)
        t- = (kappa_f - i w - gamma) / (i w + kappa + gamma)

    With a lossless single-ended cavity (kappa_b = kappa_l = 0) at w = 0 this
    reduces to the ideal PSA: t+ = sqrt(G) = (kappa_f + gamma)/(kappa_f - gamma)
    and t- = 1/sqrt(G).
    """
    w = p.omega
    t_plus = complex(p.kappa_f + p.gamma, -w) / complex(p.kappa - p.gamma, w)
    t_minus = complex(p.kappa_f - p.gamma, -w) / complex(p.kappa + p.gamma, w)
    return t_plus, t_minus


def phase_modulate(fld: FieldState, mode: int, sign_plus: int) -> FieldState:
    """Add one unit of a shared classical modulation mode to a beam.

    The amplitude quadrature picks up sign_plus * dX+_m and the phase
    quadrature +dX-_m, so the two beams of a modulator pair (called with
    sign_plus = +1 and -1 on the same mode) end up anticorrelated in X+ and
    correlated in X-.
    """
    if sign_plus not in (+1, -1):
        raise ValueError("sign_plus must be +1 or -1")
    if fld.basis.mode(mode).kind is not ModeKind.CLASSICAL_MODULATION:
        raise ValueError("phase modulators require a classical_modulation mode")
    cp = dict(fld.coeffs_plus)
    cm = dict(fld.coeffs_minus)
    kp = (mode, Quad.PLUS)
    km = (mode, Quad.MINUS)
    cp[kp] = cp.get(kp, 0.0) + float(sign_plus)
    cm[km] = cm.get(km, 0.0) + 1.0
    return FieldState(fld.basis, fld.mean_plus, fld.mean_minus, _prune(cp), _prune(cm))


@dataclass(frozen=True)
class Photocurrent:
    """Direct detection of a beam's amplitude quadrature.

    mean is the detected sideband signal sqrt(eta) <X+>; fluct the detected
    fluctuation sqrt(eta) dX+ + sqrt(1-eta) dX+_d with dX+_d the vacuum
    admixed by an imperfect detector.
    """

    basis: NoiseBasis
    mean: float
    fluct: dict[Source, float]
    eta: float


def detect(fld: FieldState, eta: float, d_mode: int) -> Photocurrent:
    """Detect the amplitude quadrature with efficiency eta.

    d_mode must be a detector_vacuum mode (deal declares one per set of
    shares); it models the vacuum noise entering through the detector's
    loss port.
    """
    if not 0.0 <= eta <= 1.0:
        raise ValueError("detection efficiency must be in [0, 1]")
    if fld.basis.mode(d_mode).kind is not ModeKind.DETECTOR_VACUUM:
        raise ValueError("detect requires a detector_vacuum mode")
    se = math.sqrt(eta)
    sl = math.sqrt(1.0 - eta)
    fluct = {src: se * c for src, c in fld.coeffs_plus.items()}
    if sl != 0.0:
        key = (d_mode, Quad.PLUS)
        fluct[key] = fluct.get(key, 0.0) + sl
    return Photocurrent(fld.basis, se * fld.mean_plus, _prune(fluct), eta)


def feedforward_mix(
    b: FieldState,
    current: Photocurrent,
    total_gain: float,
    epsilon: float = 0.0,
    lo_mode: int | None = None,
) -> FieldState:
    """Feed a detected photocurrent forward onto a beam's amplitude quadrature.

    total_gain is the whole-loop gain G = eta * K(w) * <X+_c>, with the
    bright-carrier prefactor <X+_c> absorbed into it (the carrier itself is
    not modelled at the sideband level, so it must be nonzero by assumption).
    The kept beam's phase quadrature is untouched; its amplitude mean and
    coefficients gain G times the detected beam's, plus
    G sqrt((1-eta)/eta) of detector vacuum.

    By default the local-oscillator mixing splitter is taken in its exact
    high-reflectivity limit.  Passing epsilon > 0, with a fresh vacuum mode
    standing in for the oscillator's own fluctuations, keeps it finite for
    sensitivity studies: the kept beam is attenuated by sqrt(1 - epsilon)
    and sqrt(epsilon) of oscillator vacuum enters both quadratures.
    """
    if b.basis is not current.basis:
        raise ValueError("photocurrent built over a different noise basis")
    if current.eta <= 0.0 and total_gain != 0.0:
        raise ValueError("cannot feed forward a dark detector's photocurrent")
    if not 0.0 <= epsilon < 1.0:
        raise ValueError("mixing transmission epsilon must be in [0, 1)")
    if epsilon == 0.0 and total_gain == 0.0:
        return b

    t = math.sqrt(1.0 - epsilon)
    cp = {src: t * c for src, c in b.coeffs_plus.items()}
    cm = {src: t * c for src, c in b.coeffs_minus.items()}
    mean_plus = t * b.mean_plus

    if total_gain != 0.0:
        w = total_gain / math.sqrt(current.eta)
        for src, c in current.fluct.items():
            cp[src] = cp.get(src, 0.0) + w * c
        mean_plus += w * current.mean

    if epsilon > 0.0:
        if lo_mode is None or b.basis.mode(lo_mode).kind is not ModeKind.VACUUM:
            raise ValueError("finite-epsilon mixing needs a fresh vacuum lo_mode")
        s = math.sqrt(epsilon)
        kp = (lo_mode, Quad.PLUS)
        km = (lo_mode, Quad.MINUS)
        cp[kp] = cp.get(kp, 0.0) + s
        cm[km] = cm.get(km, 0.0) + s

    return FieldState(
        b.basis,
        mean_plus,
        t * b.mean_minus,
        _prune(cp),
        _prune(cm),
    )
