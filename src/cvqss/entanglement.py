"""EPR beam-pair sources and the Duan inseparability witness."""

from __future__ import annotations

from enum import Enum

from .noise import FieldState, NoiseBasis, Quad, field_from_mode, lincomb, variance
from .optics import beam_splitter, phase_shift

# Separable bound on the Duan sum in our units (vacuum variance 1 per
# quadrature): two independent vacua contribute 2 + 2.
DUAN_SEPARABLE_BOUND = 4.0


class EprSource(Enum):
    TYPE1 = "type1"
    TYPE2 = "type2"


def epr_type1(basis: NoiseBasis, r: float) -> tuple[FieldState, FieldState]:
    """Entangled pair from two amplitude-squeezed beams on a 1:1 beam splitter.

    The beams interfere with a quarter turn of relative phase and the outputs
    turn by -/+ an eighth turn; this is the convention under which the pair
    feeds the share equations with the published coefficient structure.
    """
    a, b = (field_from_mode(basis, basis.squeezed(r)) for _ in range(2))
    out1, out2 = beam_splitter(a, b, 0.5, phase=2)
    return phase_shift(out1, -1), phase_shift(out2, 1)


def epr_type2(basis: NoiseBasis, r: float) -> tuple[FieldState, FieldState]:
    """Entangled signal/idler pair from a single type-II parametric interaction.

    In Bloch-Messiah form, a two-mode squeezer is two single-mode squeezers
    on a 50:50 splitter (Braunstein, PRA 71, 055801 (2005)): amplitude-squeezed
    A and B, B turned a quarter wave by the exact map X+ -> -X-, X- -> X+,
    give beam1 = (A + B')/sqrt(2) and beam2 = (A - B')/sqrt(2).  As for the
    pump-phase-flipped interaction, the correlated combinations are
    X+_1 + X+_2 and X-_1 - X-_2, the ones entering the Duan witness; r lives
    only in the modes' variances, not in cosh r and sinh r coefficients.
    """
    a, b = (field_from_mode(basis, basis.squeezed(r)) for _ in range(2))
    return beam_splitter(a, lincomb([((0.0, -1.0, 1.0, 0.0), b)]), 0.5)


def duan_sum(pair: tuple[FieldState, FieldState]) -> float:
    """<(dX+_1 + dX+_2)^2> + <(dX-_1 - dX-_2)^2>.

    Below DUAN_SEPARABLE_BOUND the pair is inseparable; both source types
    give exactly 4 exp(-2r), also after the dealer's modulation, which
    cancels in both combinations.
    """
    beam1, beam2 = pair
    joint = lincomb([(1.0, beam1), ((1.0, 0.0, 0.0, -1.0), beam2)])
    return variance(joint, Quad.PLUS) + variance(joint, Quad.MINUS)
