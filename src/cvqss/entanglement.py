"""EPR beam-pair sources and the Duan inseparability witness."""

from __future__ import annotations

import math
from collections import namedtuple
from enum import Enum

from .noise import FieldState, NoiseBasis, Quad, field_from_mode, lincomb, variance
from .optics import beam_splitter, phase_shift, psa_type2_pair

# Separable bound on the Duan sum in our units (vacuum variance 1 per
# quadrature): two independent vacua contribute 2 + 2.
DUAN_SEPARABLE_BOUND = 4.0


class EprSource(Enum):
    TYPE1 = "type1"
    TYPE2 = "type2"


class EprPair(namedtuple("EprPair", "beam1 beam2")):
    """Two beams whose joint quadratures fluctuate below the separable bound."""

    __slots__ = ()


def epr_type1(basis: NoiseBasis, r: float) -> EprPair:
    """Entangled pair from two amplitude-squeezed beams on a 1:1 beam splitter.

    The beams interfere with a pi/2 relative phase and the outputs are
    rotated by -/+ pi/4; this is the convention under which the pair feeds
    the share equations with the published coefficient structure.
    """
    if r < 0:
        raise ValueError("squeezing parameter must be nonnegative")
    return _pair_network(basis, EprSource.TYPE1, r, basis.squeezed(r), basis.squeezed(r))


def epr_type2(basis: NoiseBasis, r: float) -> EprPair:
    """Entangled signal/idler pair from a single type-II parametric interaction.

    Uses the pump-phase-flipped interaction (r -> -r) so that the correlated
    combinations are X+_1 + X+_2 and X-_1 - X-_2, i.e. the ones entering the
    Duan witness.
    """
    if r < 0:
        raise ValueError("interaction parameter must be nonnegative")
    return _pair_network(basis, EprSource.TYPE2, r, basis.vacuum(), basis.vacuum())


def _pair_network(basis: NoiseBasis, source: EprSource, r: float, mid1: int, mid2: int) -> EprPair:
    """The source's optics on its two registered modes: squeezed for type 1,
    whose coefficients do not depend on r; signal and idler vacua for type 2."""
    a, b = field_from_mode(basis, mid1), field_from_mode(basis, mid2)
    if source is EprSource.TYPE2:
        return EprPair(*psa_type2_pair(a, b, -r))
    out1, out2 = beam_splitter(a, b, 0.5, phase=math.pi / 2)
    return EprPair(phase_shift(out1, -math.pi / 4), phase_shift(out2, math.pi / 4))


def duan_sum(pair: EprPair) -> float:
    """<(dX+_1 + dX+_2)^2> + <(dX-_1 - dX-_2)^2>.

    Below DUAN_SEPARABLE_BOUND the pair is inseparable; both source types
    give exactly 4 exp(-2r), also after the dealer's modulation, which
    cancels in both combinations.
    """
    joint = lincomb([(1.0, pair.beam1), ((1.0, 0.0, 0.0, -1.0), pair.beam2)])
    return variance(joint, Quad.PLUS) + variance(joint, Quad.MINUS)
