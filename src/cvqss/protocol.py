"""Dealer share generation and every reconstruction procedure.

Three shares are dealt from a coherent secret and an EPR pair.  Players
{1,2} reconstruct by completing a Mach-Zehnder; {2,3} (or {1,3}) use either
two phase-sensitive amplifiers or an electro-optic feedforward loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .entanglement import EprSource, epr_type1, epr_type2
from .noise import FieldState, ModeKind, Quad, check_squeezing_limit, lincomb
from .optics import beam_splitter, detect, feedforward_mix, phase_modulate, psa_ideal

# Parametric gain that cancels the entanglement modes in the 2PSA scheme:
# sqrt(G) + 1/sqrt(G) = 2 sqrt(2).
PSA_GAIN_OPTIMAL = (math.sqrt(2.0) + 1.0) / (math.sqrt(2.0) - 1.0)

# Feedforward loop gain that cancels the anti-squeezed and classical noise
# terms on the kept beam.
FF_GAIN_OPTIMAL = 2.0 * math.sqrt(2.0)

# Symplectic scaling left on the feedforward output at optimal gain:
# X+ stretched by sqrt(3), X- shrunk by 1/sqrt(3).
FF_SYMPLECTIC_SCALE = math.sqrt(3.0)

_PAIRS = ((2, 3), (1, 3))


@dataclass(frozen=True)
class DealerConfig:
    """Dealer knobs: squeezing r, classical modulation power v_m, EPR source."""

    r: float
    v_m: float = 0.0
    source: EprSource = EprSource.TYPE1

    def __post_init__(self) -> None:
        if not (0.0 <= self.r < math.inf and 0.0 <= self.v_m < math.inf):
            raise ValueError("squeezing and modulation power must be nonnegative")
        check_squeezing_limit(self.r)


@dataclass(frozen=True)
class Shares:
    """The three dealt beams and the detector_vacuum mode declared with them.

    Every feedforward reconstruction from the shares admixes that mode
    through its detector's loss port, so reconstructing never grows the basis.
    """

    share1: FieldState
    share2: FieldState
    share3: FieldState
    detector: int

    def share(self, i: int) -> FieldState:
        return (self.share1, self.share2, self.share3)[i - 1]


def _require_coherent(secret: FieldState) -> None:
    """The dealer map and the fidelity formula assume a coherent secret."""
    plus = dict(secret.coeffs_plus)
    minus = dict(secret.coeffs_minus)
    if len(plus) != 1 or len(minus) != 1:
        raise ValueError("secret must be a coherent state: one vacuum mode, unit coefficient")
    (mid_p, quad_p), c_p = next(iter(plus.items()))
    (mid_m, quad_m), c_m = next(iter(minus.items()))
    ok = (
        mid_p == mid_m
        and quad_p is Quad.PLUS
        and quad_m is Quad.MINUS
        and abs(c_p - 1.0) <= 1e-12
        and abs(c_m - 1.0) <= 1e-12
        and secret.basis.mode(mid_p).kind is ModeKind.VACUUM
    )
    if not ok:
        raise ValueError("secret must be a coherent state: one vacuum mode, unit coefficient")


def deal(secret: FieldState, config: DealerConfig) -> Shares:
    """Split a coherent secret into three shares.

    Share 1 and 2 are the outputs of a 1:1 beam splitter between the secret
    and entangled beam 1; share 3 is entangled beam 2.  With modulation the
    shared classical mode rides on the entangled beams with opposite signs
    in X+, so shares 1 and 2 carry equal added noise.  The feedforward
    detector's vacuum mode is registered last.
    """
    _require_coherent(secret)
    basis = secret.basis
    if config.source is EprSource.TYPE1:
        pair = epr_type1(basis, config.r, config.v_m)
        epr1, epr2 = pair.beam1, pair.beam2
    else:
        pair = epr_type2(basis, config.r)
        mod = basis.modulation(config.v_m)
        epr1 = phase_modulate(pair.beam1, mod, +1)
        epr2 = phase_modulate(pair.beam2, mod, -1)
    share1, share2 = beam_splitter(secret, epr1, 0.5)
    return Shares(share1, share2, epr2, basis.detector())


def reconstruct_12(shares: Shares) -> FieldState:
    """Mach-Zehnder completion by players {1,2}: recovers the secret exactly."""
    out1, _leftover = beam_splitter(shares.share1, shares.share2, 0.5)
    return out1


def _mix_pair(
    shares: Shares, players: tuple[int, int], reflectivity: float
) -> tuple[FieldState, FieldState]:
    """Mix the pair's other share with share 3 on one beam splitter.

    Mixing sign chosen so the correlated EPR combinations survive: share 2
    enters with a pi phase on share 3, share 1 without.
    """
    if tuple(players) not in _PAIRS:
        raise ValueError("collaborating pair must be (2, 3) or (1, 3); use reconstruct_12 for (1, 2)")
    phase = math.pi if players[0] == 2 else 0.0
    return beam_splitter(shares.share(players[0]), shares.share3, reflectivity, phase=phase)


def _psa2_outputs(
    shares: Shares, gain: float, players: tuple[int, int]
) -> tuple[FieldState, FieldState]:
    arm_a, arm_b = _mix_pair(shares, players, 0.5)
    amplified = psa_ideal(arm_a, gain)
    deamplified = psa_ideal(arm_b, 1.0 / gain)
    return beam_splitter(amplified, deamplified, 0.5)


def reconstruct_2psa(
    shares: Shares, gain: float, players: tuple[int, int] = (2, 3)
) -> FieldState:
    """Reconstruction with two phase-sensitive amplifiers.

    The two shares interfere on a 1:1 beam splitter; one arm is amplified in
    X+ and deamplified in X- (gain G), the other the opposite (gain 1/G);
    recombining on a second 1:1 beam splitter leaves output 1 carrying the
    secret.  At gain PSA_GAIN_OPTIMAL the entanglement contributions collapse
    to e^{-r}-weighted squeezed terms, i.e. added noise 2 e^{-2r} per
    quadrature.  The analysis assumes a dealer without added modulation;
    modulated shares are accepted but not covered by the closed forms.
    """
    out1, _out2 = _psa2_outputs(shares, gain, players)
    return out1


def collaboration_beams(
    shares: Shares, players: tuple[int, int] = (2, 3)
) -> tuple[FieldState, FieldState]:
    """The 2/3-reflective beam splitter stage of the feedforward scheme.

    Returns (kept, detected): the kept beam already carries the secret's
    phase quadrature scaled by 1/sqrt(3); the detected beam is the one whose
    amplitude fluctuations are measured and fed forward.  Port assignment
    and the pi mixing phase for the {2,3} pair are fixed so the kept beam's
    phase quadrature is free of modulation noise; the regression tests pin
    every coefficient.
    """
    detected, kept = _mix_pair(shares, players, 2.0 / 3.0)
    return kept, detected


def reconstruct_ff(
    shares: Shares,
    gain: float,
    eta: float = 1.0,
    players: tuple[int, int] = (2, 3),
    epsilon: float = 0.0,
) -> FieldState:
    """Electro-optic feedforward reconstruction.

    Pipeline: 2/3 beam splitter, direct detection of the amplitude
    quadrature with efficiency eta, photocurrent fed forward onto the kept
    beam with total loop gain G.  At G = FF_GAIN_OPTIMAL and eta = 1 the
    anti-squeezed and classical-modulation terms cancel, leaving a
    symplectically scaled secret: sqrt(3) X+, X-/sqrt(3).  epsilon > 0
    keeps the local-oscillator mixing splitter finite instead of taking its
    high-reflectivity limit; the closed forms assume epsilon = 0.
    """
    return feedforward_sweep(shares, (gain,), eta, players, epsilon)[0]


def feedforward_sweep(
    shares: Shares,
    gains: Sequence[float],
    eta: float = 1.0,
    players: tuple[int, int] = (2, 3),
    epsilon: float = 0.0,
) -> list[FieldState]:
    """reconstruct_ff at each loop gain, building the gain-free stages once.

    The 2/3 splitter and the detection do not depend on the gain, so they
    run once per call and each gain costs one feedforward mix.  Entry i
    equals reconstruct_ff(shares, gains[i], eta, players, epsilon); with
    epsilon > 0 all entries share one local-oscillator vacuum mode.
    """
    if not all(0.0 <= g < math.inf for g in gains):
        raise ValueError("feedforward gain must be finite and nonnegative")
    if not 0.0 < eta <= 1.0:
        raise ValueError("detection efficiency must be in (0, 1]")
    kept, detected = collaboration_beams(shares, players)
    current = detect(detected, eta, shares.detector)
    lo_mode = kept.basis.vacuum() if epsilon > 0.0 else None
    return [feedforward_mix(kept, current, g, epsilon, lo_mode) for g in gains]


def symplectic_correct(fld: FieldState, scale: float) -> FieldState:
    """Undo a symplectic scaling: X+ divided by scale, X- multiplied by it.

    With scale = FF_SYMPLECTIC_SCALE this turns the optimal feedforward
    output back into the secret plus 2 e^{-2r} of added noise per quadrature.
    """
    if not 0.0 < scale < math.inf:
        raise ValueError("scale must be positive")
    return psa_ideal(fld, 1.0 / (scale * scale))


def single_quadrature_readout(shares: Shares, gain: float) -> FieldState:
    """Classical single-quadrature readout by {2,3}: the combined beam s2 + g s3.

    Homodyning both shares in one quadrature and adding the photocurrents
    with electronic gain g reads that quadrature of this beam.  Only one
    quadrature is estimated per readout, so this never amounts to
    reconstructing the state.
    """
    return lincomb([(1.0, shares.share2), (gain, shares.share3)])


def secret_coefficient(out: FieldState, secret: FieldState, quad: Quad) -> float:
    """Weight of the secret's own noise mode inside an output quadrature."""
    (src,) = secret.coeffs(quad)
    return out.coeff(quad, src)


__all__ = [
    "DealerConfig",
    "FF_GAIN_OPTIMAL",
    "FF_SYMPLECTIC_SCALE",
    "PSA_GAIN_OPTIMAL",
    "Shares",
    "collaboration_beams",
    "deal",
    "feedforward_sweep",
    "reconstruct_12",
    "reconstruct_2psa",
    "reconstruct_ff",
    "secret_coefficient",
    "single_quadrature_readout",
    "symplectic_correct",
]
