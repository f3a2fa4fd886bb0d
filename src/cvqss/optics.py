"""Linear optical and parametric components as exact maps on field states.

Sign and phase conventions are load-bearing here: the dealer and
reconstruction pipelines rely on them to make the entanglement and
classical-noise terms cancel coefficient for coefficient, and the
regression tests pin them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .noise import FieldState, ModeKind, field_from_mode, lincomb


def phase_shift(fld: FieldState, theta: float) -> FieldState:
    """Optical phase shift a -> exp(i theta) a.

    Rotates the quadratures: X+ -> cos(theta) X+ - sin(theta) X-,
    X- -> sin(theta) X+ + cos(theta) X-.
    """
    if not math.isfinite(theta):
        raise ValueError("phase must be finite")
    c, s = math.cos(theta), math.sin(theta)
    return lincomb([((c, -s, s, c), fld)])


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
    if not 0.0 < gain < math.inf:
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
    if not math.isfinite(r):
        raise ValueError("interaction strength must be finite")
    ch, sh = math.cosh(r), math.sinh(r)
    direct, cross = (ch, 0.0, 0.0, ch), (sh, 0.0, 0.0, -sh)
    return lincomb([(direct, signal), (cross, idler)]), lincomb([(direct, idler), (cross, signal)])


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
    modulation = field_from_mode(fld.basis, mode)
    return lincomb([(1.0, fld), ((sign_plus, 0.0, 0.0, 1.0), modulation)])


@dataclass(frozen=True)
class Photocurrent:
    """Direct detection of a beam's amplitude quadrature.

    beam's X+ is the detected photocurrent, sqrt(eta) X+ + sqrt(1-eta) X+_d
    with X+_d the vacuum admixed by an imperfect detector, mean included;
    its X- is empty.
    """

    beam: FieldState
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
    loss_port = field_from_mode(fld.basis, d_mode)
    beam = lincomb([
        ((math.sqrt(eta), 0.0, 0.0, 0.0), fld),
        ((math.sqrt(1.0 - eta), 0.0, 0.0, 0.0), loss_port),
    ])
    return Photocurrent(beam, eta)


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
    if b.basis is not current.beam.basis:
        raise ValueError("photocurrent built over a different noise basis")
    if not math.isfinite(total_gain):
        raise ValueError("feedforward gain must be finite")
    if current.eta <= 0.0 and total_gain != 0.0:
        raise ValueError("cannot feed forward a dark detector's photocurrent")
    if not 0.0 <= epsilon < 1.0:
        raise ValueError("mixing transmission epsilon must be in [0, 1)")
    if epsilon == 0.0 and total_gain == 0.0:
        return b

    terms = [(math.sqrt(1.0 - epsilon), b)]
    if total_gain != 0.0:
        terms.append(((total_gain / math.sqrt(current.eta), 0.0, 0.0, 0.0), current.beam))
    if epsilon > 0.0:
        if lo_mode is None or b.basis.mode(lo_mode).kind is not ModeKind.VACUUM:
            raise ValueError("finite-epsilon mixing needs a fresh vacuum lo_mode")
        terms.append((math.sqrt(epsilon), field_from_mode(b.basis, lo_mode)))
    return lincomb(terms)
