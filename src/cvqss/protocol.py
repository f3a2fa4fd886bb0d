"""Dealer share generation and every reconstruction procedure.

Three shares are dealt from a coherent secret and an EPR pair.  Players
{1,2} reconstruct by completing a Mach-Zehnder; {2,3} (or {1,3}) use either
two phase-sensitive amplifiers or an electro-optic feedforward loop.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from collections.abc import Sequence

from .entanglement import EprSource, epr_type1, epr_type2
from .metrics import _SQRT2, _SQRT3, _TWO_SQRT2
from .noise import FieldState, ModeKind, NoiseBasis, Quad, _derived_field, field_from_mode
from .noise import FLOAT_MAX, _require_point, lincomb
from .optics import WEIGHTS, beam_splitter, detect, feedforward_mix, phase_modulate, psa_ideal

# Parametric gain that cancels the entanglement modes in the 2PSA scheme:
# sqrt(G) + 1/sqrt(G) = 2 sqrt(2).
PSA_GAIN_OPTIMAL = (_SQRT2 + 1.0) / (_SQRT2 - 1.0)

# Feedforward loop gain that cancels the anti-squeezed and classical noise
# terms on the kept beam.
FF_GAIN_OPTIMAL = _TWO_SQRT2

# Symplectic scaling left on the feedforward output at optimal gain:
# X+ stretched by sqrt(3), X- shrunk by 1/sqrt(3).
FF_SYMPLECTIC_SCALE = _SQRT3

_PAIRS = ((2, 3), (1, 3))


class DealerConfig(namedtuple("DealerConfig", "r v_m source", defaults=(0.0, EprSource.TYPE1))):
    """Dealer knobs: squeezing r, classical modulation power v_m, EPR source."""

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # so _replace checks too

    def __new__(cls, *args, **kwargs) -> DealerConfig:
        self = super().__new__(cls, *args, **kwargs)
        _require_point(self.r, self.v_m)
        if not isinstance(self.source, EprSource):
            raise ValueError(f"source must be EprSource.TYPE1 or EprSource.TYPE2, not {self.source!r}")
        return self


class Shares(namedtuple("Shares", "share1 share2 share3 detector oscillator")):
    """The three dealt beams and the two vacuum modes declared with them.

    Every feedforward reconstruction from the shares admixes the
    detector_vacuum mode detector through its detector's loss port, and at
    epsilon > 0 the vacuum mode oscillator through its mixing splitter, so
    no reconstruction registers a mode.
    """

    __slots__ = ()

    def share(self, i: int) -> FieldState:
        if type(i) is not int or not 1 <= i <= 3:
            raise ValueError(f"share must be 1, 2 or 3, not {i!r}")
        return self[i - 1]


def _require_coherent(secret: FieldState) -> None:
    """The dealer map and the fidelity formula assume a coherent secret."""
    plus, minus = secret.coeffs_plus.items(), secret.coeffs_minus.items()
    ok = len(plus) == len(minus) == 1
    if ok:
        [((mid_p, quad_p), c_p)], [((mid_m, quad_m), c_m)] = plus, minus
        ok = (
            mid_p == mid_m
            and quad_p is Quad.PLUS
            and quad_m is Quad.MINUS
            and abs(c_p - 1.0) <= 1e-12
            and abs(c_m - 1.0) <= 1e-12
            and secret.basis.kind(mid_p) is ModeKind.VACUUM
        )
    if not ok:
        raise ValueError("secret must be a coherent state: one vacuum mode, unit coefficient")


def _noise_beams(basis: NoiseBasis, config: DealerConfig) -> tuple[FieldState, FieldState]:
    """The EPR pair after the modulators: the beams carrying the shares' noise."""
    beam1, beam2 = (epr_type1 if config.source is EprSource.TYPE1 else epr_type2)(basis, config.r)
    mod = basis.modulation(config.v_m)
    return phase_modulate(beam1, mod, +1), phase_modulate(beam2, mod, -1)


def deal(secret: FieldState, config: DealerConfig) -> Shares:
    """Split a coherent secret into three shares.

    Share 1 and 2 are the outputs of a 1:1 beam splitter between the secret
    and entangled beam 1; share 3 is entangled beam 2.  For both sources one
    classical mode of variance v_m rides on the entangled beams with opposite
    signs in X+, so shares 1 and 2 carry equal added noise.  The feedforward
    loop's detector vacuum and then its oscillator vacuum are registered last.
    No coefficient depends on (r, v_m), so the CLI deals once per source and
    scores those shares under each (r, v_m)'s class variances, bit for bit.
    """
    _require_coherent(secret)
    beam1, beam2 = _noise_beams(secret.basis, config)
    share1, share2 = beam_splitter(secret, beam1, 0.5)
    return Shares(share1, share2, beam2, secret.basis.detector(), secret.basis.vacuum())


@functools.cache
def _dealer(source: EprSource) -> tuple[FieldState, Shares]:
    """deal at (0, 0) on a fresh basis, for a zero-mean secret on mode 0.  Read only."""
    basis = NoiseBasis()
    secret = field_from_mode(basis, basis.vacuum())
    return secret, deal(secret, DealerConfig(0.0, 0.0, source))


def _dealt(
    means: tuple[float, float], source: EprSource = EprSource.TYPE1
) -> tuple[FieldState, Shares]:
    """A coherent secret with these means and its shares, on the source's _dealer:
    the secret and shares 1 and 2 are fresh FieldStates on its coefficient dicts.

    No coefficient depends on (r, v_m), so under class_variances(r, v_m) these
    score as a fresh deal at (r, v_m), bit for bit.  deal's 1:1 splitter puts
    h m + 0.0 of each secret mean m on shares 1 and 2, and none on share 3.
    """
    zero_secret, shares = _dealer(source)
    (m_p, m_m), (h, _) = means, WEIGHTS[0.5]  # beam_splitter's weights at reflectivity 0.5
    split = (h * m_p + 0.0, h * m_m + 0.0)
    secret, share1, share2 = (
        _derived_field(fld.basis, *mean, fld.coeffs_plus, fld.coeffs_minus)
        for fld, mean in zip((zero_secret, *shares[:2]), (means, split, split))
    )
    return secret, shares._replace(share1=share1, share2=share2)


def reconstruct_12(shares: Shares) -> FieldState:
    """Mach-Zehnder completion by players {1,2}: recovers the secret exactly."""
    out1, _leftover = beam_splitter(shares.share1, shares.share2, 0.5)
    return out1


def _mix_pair(
    shares: Shares, players: tuple[int, int], reflectivity: float
) -> tuple[FieldState, FieldState]:
    """Mix the pair's other share with share 3 on one beam splitter.

    Mixing sign chosen so the correlated EPR combinations survive: share 2
    enters with a pi phase (4 eighth turns) on share 3, share 1 without.
    """
    if tuple(players) not in _PAIRS:
        raise ValueError("collaborating pair must be (2, 3) or (1, 3); use reconstruct_12 for (1, 2)")
    phase = 4 if players[0] == 2 else 0
    return beam_splitter(shares.share(players[0]), shares.share3, reflectivity, phase=phase)


def _psa2_outputs(
    shares: Shares, gain: float, players: tuple[int, int]
) -> tuple[FieldState, FieldState]:
    arm_a, arm_b = _mix_pair(shares, players, 0.5)
    amplified = psa_ideal(arm_a, gain)
    if 1.0 / gain == math.inf:
        raise ValueError("PSA gain is too small: the deamplifier's gain 1/G overflows")
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


def _feedforward_outputs(
    shares: Shares, gains: Sequence[float], etas: Sequence[float], players: tuple[int, int],
    epsilon: float = 0.0,
) -> list[list[FieldState]]:
    """Check the gains, then return, per eta, reconstruct_ff's output at every gain,
    bit for bit.  The 2/3 splitter runs once, and the detection, which checks its
    eta, once per eta."""
    if not all(0.0 <= g <= FLOAT_MAX for g in gains):
        raise ValueError("feedforward gain must be finite and nonnegative")
    kept, detected = collaboration_beams(shares, players)
    currents = [detect(detected, eta, shares.detector) for eta in etas]
    return [[feedforward_mix(kept, current, g, epsilon, shares.oscillator) for g in gains]
            for current in currents]


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
    high-reflectivity limit, admitting the shares' oscillator vacuum; the
    closed forms assume epsilon = 0.
    """
    ((out,),) = _feedforward_outputs(shares, (gain,), (eta,), players, epsilon)
    return out


def symplectic_correct(fld: FieldState, scale: float) -> FieldState:
    """Undo a symplectic scaling: X+ divided by scale, X- multiplied by it.

    With scale = FF_SYMPLECTIC_SCALE this turns the optimal feedforward
    output back into the secret plus 2 e^{-2r} of added noise per quadrature.
    """
    if not 0.0 < scale <= FLOAT_MAX:
        raise ValueError("scale must be positive and finite")
    square = scale * scale
    if not 0.0 < square <= FLOAT_MAX or 1.0 / square > FLOAT_MAX:
        raise ValueError(f"scale {scale!r} leaves 1/scale^2 no positive finite float")
    return psa_ideal(fld, 1.0 / square)


def single_quadrature_readout(shares: Shares, gain: float) -> FieldState:
    """Classical single-quadrature readout by {2,3}: the combined beam s2 + g s3.

    Homodyning both shares in one quadrature and adding the photocurrents
    with electronic gain g reads that quadrature of this beam.  Only one
    quadrature is estimated per readout, so this never amounts to
    reconstructing the state.
    """
    if not -FLOAT_MAX <= gain <= FLOAT_MAX:
        raise ValueError("single-quadrature gain must be finite")
    return lincomb([(1.0, shares.share2), (gain, shares.share3)])

