"""Linear optical and parametric components as exact maps on field states.

Sign and phase conventions are load-bearing here: the dealer and
reconstruction pipelines rely on them to make the entanglement and
classical-noise terms cancel coefficient for coefficient, and the
regression tests pin them.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .noise import FLOAT_MAX, FieldState, ModeKind, _derived_field, field_from_mode, lincomb

# Every knob-free weight of the network, built once: (sqrt(1-R), sqrt(R)) by reflectivity
# R in (0, 1), a float, and the rotation (c, -s, s, c) by k eighth turns, an int in [-4, 4].
WEIGHTS = {R: (math.sqrt(1.0 - R), math.sqrt(R)) for R in (0.5, 2.0 / 3.0)} | {
    k: (c, -s, s, c) for k in range(-4, 5)
    for c, s in [(math.cos(k * math.pi / 4), math.sin(k * math.pi / 4))]}

# Largest interaction strength |r| whose cosh(r) is a finite float.
MAX_INTERACTION = math.acosh(FLOAT_MAX)


def phase_shift(fld: FieldState, theta: int) -> FieldState:
    """Optical phase shift a -> exp(i theta pi/4) a by theta eighth turns, an int in [-4, 4]:
    X+ -> cos X+ - sin X-, X- -> sin X+ + cos X- at the angle theta pi/4."""
    if type(theta) is not int or theta not in WEIGHTS:
        raise ValueError(f"phase must be a whole number of eighth turns in [-4, 4], not {theta!r}")
    return lincomb([(WEIGHTS[theta], fld)])


def beam_splitter(
    a: FieldState, b: FieldState, reflectivity: float, phase: int = 0
) -> tuple[FieldState, FieldState]:
    """Two-port beam splitter of power reflectivity R, 1/2 or 2/3.

    Input b turns by phase eighth turns before a real orthogonal mix:

        out1 = sqrt(1-R) a + sqrt(R)   e^{i phase pi/4} b
        out2 = sqrt(R)   a - sqrt(1-R) e^{i phase pi/4} b

    For phase in {0, 4} the coefficient weight sum(c^2) per quadrature is
    conserved across the two outputs.
    """
    if not (type(reflectivity) is float and 0.0 < reflectivity < 1.0 and reflectivity in WEIGHTS):
        raise ValueError(f"reflectivity must be 0.5 or 2/3, not {reflectivity!r}")
    t, r = WEIGHTS[reflectivity]
    bp = b if phase == 0 and type(phase) is int else phase_shift(b, phase)
    return lincomb([(t, a), (r, bp)]), lincomb([(r, a), (-t, bp)])


def psa_ideal(fld: FieldState, gain: float) -> FieldState:
    """Noiseless phase-sensitive amplifier: X+ scaled by sqrt(G), X- by 1/sqrt(G).

    Symplectic (the two scale factors multiply to one), applied to means and
    fluctuation coefficients alike.
    """
    if not 0.0 < gain <= FLOAT_MAX:
        raise ValueError("PSA gain must be positive and finite")
    s = math.sqrt(gain)
    return _derived_field(
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
    if not -MAX_INTERACTION <= r <= MAX_INTERACTION:
        raise ValueError(f"interaction strength must be finite, |r| at most {MAX_INTERACTION!r}")
    ch, sh = math.cosh(r), math.sinh(r)
    direct, cross = (ch, 0.0, 0.0, ch), (sh, 0.0, 0.0, -sh)
    return lincomb([(direct, signal), (cross, idler)]), lincomb([(direct, idler), (cross, signal)])


def phase_modulate(fld: FieldState, mode: int, sign_plus: int) -> FieldState:
    """Add one unit of a shared classical modulation mode to a beam.

    The amplitude quadrature picks up sign_plus * dX+_m and the phase
    quadrature +dX-_m, so the two beams of a modulator pair (called with
    sign_plus = +1 and -1 on the same mode) end up anticorrelated in X+ and
    correlated in X-.
    """
    if sign_plus not in (+1, -1):
        raise ValueError("sign_plus must be +1 or -1")
    if fld.basis.kind(mode) is not ModeKind.CLASSICAL_MODULATION:
        raise ValueError("phase modulators require a classical_modulation mode")
    modulation = field_from_mode(fld.basis, mode)
    return lincomb([(1.0, fld), ((sign_plus, 0.0, 0.0, 1.0), modulation)])


class Photocurrent(namedtuple("Photocurrent", "beam eta")):
    """Direct detection of a beam's amplitude quadrature.

    beam's X+ is the detected photocurrent, sqrt(eta) X+ + sqrt(1-eta) X+_d
    with X+_d the vacuum admixed by an imperfect detector, mean included;
    its X- is empty.
    """

    __slots__ = ()


def detect(fld: FieldState, eta: float, d_mode: int) -> Photocurrent:
    """Detect the amplitude quadrature with efficiency eta in (0, 1].

    d_mode must be a detector_vacuum mode (deal declares one per set of
    shares); it models the vacuum noise entering through the detector's
    loss port.
    """
    if not 0.0 < eta <= 1.0:
        raise ValueError("detection efficiency must be in (0, 1]")
    if fld.basis.kind(d_mode) is not ModeKind.DETECTOR_VACUUM:
        raise ValueError("detect requires a detector_vacuum mode")
    loss_port = field_from_mode(fld.basis, d_mode)
    beam = lincomb([
        ((math.sqrt(eta), 0.0, 0.0, 0.0), fld),
        ((math.sqrt(1.0 - eta), 0.0, 0.0, 0.0), loss_port),
    ])
    return Photocurrent(beam, eta)


def feedforward_mix(
    b: FieldState, current: Photocurrent, total_gain: float, epsilon: float = 0.0,
    oscillator: int | None = None,
) -> FieldState:
    """Feed a detected photocurrent forward onto a beam's amplitude quadrature.

    total_gain is the whole-loop gain G = eta * K(w) * <X+_c>, with the
    bright-carrier prefactor <X+_c> absorbed into it (the carrier itself is
    not modelled at the sideband level, so it must be nonzero by assumption).
    The kept beam's phase quadrature is untouched; its amplitude mean and
    coefficients gain G times the detected beam's, plus
    G sqrt((1-eta)/eta) of detector vacuum.

    By default the local-oscillator mixing splitter is taken in its exact
    high-reflectivity limit.  epsilon > 0 keeps it finite for sensitivity
    studies: the kept beam is attenuated by sqrt(1 - epsilon) and sqrt(epsilon)
    of the vacuum mode oscillator (deal declares one per set of shares), which
    neither beam may carry, enters both quadratures; epsilon = 0 ignores it.
    """
    if not -FLOAT_MAX <= total_gain <= FLOAT_MAX:
        raise ValueError("feedforward gain must be finite")
    if not 0.0 < current.eta <= 1.0:  # detect's rule, for a Photocurrent built by hand
        raise ValueError("detection efficiency must be in (0, 1]")
    if not 0.0 <= epsilon < 1.0:
        raise ValueError("mixing transmission epsilon must be in [0, 1)")

    terms = [(math.sqrt(1.0 - epsilon), b),
             ((total_gain / math.sqrt(current.eta), 0.0, 0.0, 0.0), current.beam)]
    if epsilon > 0.0:
        keys = [*b.coeffs_plus, *b.coeffs_minus, *current.beam.coeffs_plus, *current.beam.coeffs_minus]
        if oscillator is None or b.basis.kind(oscillator) is not ModeKind.VACUUM or any(
                mid == oscillator for mid, _ in keys):
            raise ValueError("finite epsilon needs an oscillator vacuum mode neither beam carries")
        terms.append((math.sqrt(epsilon), field_from_mode(b.basis, oscillator)))
    return lincomb(terms)
