"""Exact linear-Gaussian algebra for optical field fluctuations.

Every beam is represented by its quadrature means plus sparse coefficient
vectors over a registry of independent zero-mean noise sources, so all
second moments come out in closed form instead of by sampling.

Conventions: X+ = a^dag + a (amplitude), X- = i(a^dag - a) (phase), and the
vacuum has unit variance in each quadrature. All variances are therefore in
shot-noise units.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Mapping

# Absolute tolerance for coefficient / variance equality checks.
COEFF_ATOL = 1e-12

# Largest squeezing parameter r whose anti-squeezed variance e^{2r} is a
# finite float.
MAX_SQUEEZING = 0.5 * math.log(sys.float_info.max)


def check_squeezing_limit(r: float) -> None:
    """Reject a squeezing parameter whose e^{2r} overflows."""
    if r > MAX_SQUEEZING:
        raise ValueError(
            f"squeezing parameter must be at most {MAX_SQUEEZING!r}: e^(2r) overflows above it"
        )


class Quad(Enum):
    """Quadrature selector: amplitude (PLUS) or phase (MINUS)."""

    PLUS = "+"
    MINUS = "-"

    # Members are singletons, so identity hashing agrees with equality and,
    # unlike Enum's name hash, runs in C for every (mid, Quad) key.
    __hash__ = object.__hash__


class ModeKind(Enum):
    VACUUM = "vacuum"
    SQUEEZED = "squeezed"
    CLASSICAL_MODULATION = "classical_modulation"
    DETECTOR_VACUUM = "detector_vacuum"


# One scalar fluctuation component of a registered mode.  Each mode carries
# two independent components, one per quadrature; optical elements with a
# phase degree of freedom mix them, so a field's X+ may legitimately
# reference the MINUS component of some source.
Source = tuple[int, Quad]

# A lincomb weight: a number, or a quadrature map (a, b, c, d) sending
# (X+, X-) to (a X+ + b X-, c X+ + d X-).
Weight = float | tuple[float, float, float, float]


@dataclass(frozen=True)
class NoiseMode:
    """An independent Gaussian fluctuation source with per-quadrature variance."""

    mid: int
    kind: ModeKind
    v_plus: float
    v_minus: float


class NoiseBasis:
    """Append-only registry of the noise modes active in one scenario.

    Registration is single-threaded per scenario; once built, the basis and
    the fields over it are safe to share read-only across workers.
    """

    def __init__(self) -> None:
        self._modes: list[NoiseMode] = []
        # Variance of every registered source, read by the algebra below.
        self._variances: dict[Source, float] = {}

    def __len__(self) -> int:
        return len(self._modes)

    def mode(self, mid: int) -> NoiseMode:
        if not 0 <= mid < len(self._modes):
            raise KeyError(f"unknown noise mode id {mid}")
        return self._modes[mid]

    def modes_of_kind(self, kind: ModeKind) -> tuple[NoiseMode, ...]:
        return tuple(m for m in self._modes if m.kind is kind)

    def register(self, kind: ModeKind, v_plus: float, v_minus: float) -> int:
        """Register a mode and return its fresh id.

        Variances must be consistent with the mode kind: vacuum-like modes
        have unit variance, squeezed modes are minimum-uncertainty
        (v_plus * v_minus = 1), classical modulation has equal variance in
        both quadratures (0 means no added noise).
        """
        if not (0.0 <= v_plus < math.inf and 0.0 <= v_minus < math.inf):
            raise ValueError("noise-mode variances must be nonnegative")
        if kind in (ModeKind.VACUUM, ModeKind.DETECTOR_VACUUM):
            if abs(v_plus - 1.0) > COEFF_ATOL or abs(v_minus - 1.0) > COEFF_ATOL:
                raise ValueError(f"{kind.value} modes must have unit variance")
        elif kind is ModeKind.SQUEEZED:
            if abs(v_plus * v_minus - 1.0) > COEFF_ATOL:
                raise ValueError(
                    "squeezed modes must be minimum uncertainty: v_plus * v_minus = 1"
                )
        elif kind is ModeKind.CLASSICAL_MODULATION:
            if abs(v_plus - v_minus) > COEFF_ATOL:
                raise ValueError("classical modulation is symmetric: v_plus = v_minus")
        mid = len(self._modes)
        self._modes.append(NoiseMode(mid, kind, v_plus, v_minus))
        self._variances[(mid, Quad.PLUS)] = v_plus
        self._variances[(mid, Quad.MINUS)] = v_minus
        return mid

    # Convenience constructors for the four kinds in use.

    def vacuum(self) -> int:
        return self.register(ModeKind.VACUUM, 1.0, 1.0)

    def squeezed(self, r: float) -> int:
        """Amplitude-squeezed mode: V+ = exp(-2r), V- = exp(+2r), r >= 0."""
        if r < 0:
            raise ValueError("squeezing parameter must be nonnegative")
        check_squeezing_limit(r)
        return self.register(ModeKind.SQUEEZED, math.exp(-2.0 * r), math.exp(2.0 * r))

    def modulation(self, v_m: float) -> int:
        return self.register(ModeKind.CLASSICAL_MODULATION, v_m, v_m)

    def detector(self) -> int:
        return self.register(ModeKind.DETECTOR_VACUUM, 1.0, 1.0)

    def source_variance(self, source: Source) -> float:
        return self._variances[source]


def _prune(coeffs: dict[Source, float]) -> dict[Source, float]:
    # Exact cancellations are rare, so most dicts are returned without a copy.
    if 0.0 not in coeffs.values():
        return coeffs
    return {k: v for k, v in coeffs.items() if v != 0.0}


@dataclass(frozen=True)
class FieldState:
    """One optical beam: quadrature means plus fluctuation coefficients.

    The fluctuation of quadrature q is sum_k coeffs_q[k] * (source k), with
    the sources independent, so variances and covariances are quadratic
    forms over the coefficient vectors.  Immutable; every optical element
    returns a new instance.
    """

    basis: NoiseBasis
    mean_plus: float = 0.0
    mean_minus: float = 0.0
    coeffs_plus: Mapping[Source, float] = field(default_factory=dict)
    coeffs_minus: Mapping[Source, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # Every key must be a registered (mid, Quad) source: this rejects
        # stale ids and malformed quadratures alike.
        known = self.basis._variances.keys()
        for coeffs in (self.coeffs_plus, self.coeffs_minus):
            if not coeffs.keys() <= known:
                bad = next(src for src in coeffs if src not in known)
                raise KeyError(f"unknown noise mode id in source {bad!r}")

    def mean(self, quad: Quad) -> float:
        return self.mean_plus if quad is Quad.PLUS else self.mean_minus

    def coeffs(self, quad: Quad) -> Mapping[Source, float]:
        return self.coeffs_plus if quad is Quad.PLUS else self.coeffs_minus

    def coeff(self, quad: Quad, source: Source) -> float:
        return self.coeffs(quad).get(source, 0.0)


def field_from_mode(
    basis: NoiseBasis, mid: int, mean_plus: float = 0.0, mean_minus: float = 0.0
) -> FieldState:
    """A beam whose fluctuations are exactly one registered mode's."""
    basis.mode(mid)
    return FieldState(
        basis,
        mean_plus,
        mean_minus,
        {(mid, Quad.PLUS): 1.0},
        {(mid, Quad.MINUS): 1.0},
    )


def variance(fld: FieldState, quad: Quad) -> float:
    """Fluctuation variance of one quadrature, in shot-noise units."""
    table = fld.basis._variances
    return sum(c * c * table[src] for src, c in fld.coeffs(quad).items())


def covariance(a: FieldState, b: FieldState, quad: Quad) -> float:
    """<dX_a dX_b> for the chosen quadrature; both fields must share a basis."""
    if a.basis is not b.basis:
        raise ValueError("fields live on different noise bases")
    ca, cb = a.coeffs(quad), b.coeffs(quad)
    if len(cb) < len(ca):
        ca, cb = cb, ca
    table = a.basis._variances
    return sum(c * cb[src] * table[src] for src, c in ca.items() if src in cb)


def cross_covariance(fld: FieldState) -> float:
    """<dX+ dX-> of one beam: nonzero once an element mixes its quadratures."""
    cm, table = fld.coeffs_minus, fld.basis._variances
    return sum(c * cm[src] * table[src] for src, c in fld.coeffs_plus.items() if src in cm)


def _accumulate(out: dict[Source, float], coeffs: Mapping[Source, float], k: float) -> None:
    # An empty out skips the 0.0 + k * x: that sum differs from k * x only
    # for -0.0, and _prune drops both zeros.
    if not out:
        for src, x in coeffs.items():
            out[src] = k * x
        return
    for src, x in coeffs.items():
        out[src] = out.get(src, 0.0) + k * x


def lincomb(terms: Iterable[tuple[Weight, FieldState]]) -> FieldState:
    """Linear combination of fields, applied to means and coefficients alike.

    A term's weight is a number w or a quadrature map (a, b, c, d): the term
    adds a X+ + b X- to the output's X+ and c X+ + d X- to its X-, and w
    stands for (w, 0, 0, w).  Map entries that are exactly zero are skipped.
    Each output dict takes its keys in term order, the X+-sourced entries of
    a term before its X--sourced ones, which fixes every later summation
    order.
    """
    terms = list(terms)
    if not terms:
        raise ValueError("empty linear combination")
    basis = terms[0][1].basis
    mean_p = mean_m = 0.0
    cp: dict[Source, float] = {}
    cm: dict[Source, float] = {}
    for w, fld in terms:
        if fld.basis is not basis:
            raise ValueError("fields live on different noise bases")
        a, b, c, d = w if type(w) is tuple else (w, 0.0, 0.0, w)
        if a:
            mean_p += a * fld.mean_plus
            _accumulate(cp, fld.coeffs_plus, a)
        if b:
            mean_p += b * fld.mean_minus
            _accumulate(cp, fld.coeffs_minus, b)
        if c:
            mean_m += c * fld.mean_plus
            _accumulate(cm, fld.coeffs_plus, c)
        if d:
            mean_m += d * fld.mean_minus
            _accumulate(cm, fld.coeffs_minus, d)
    return FieldState(basis, mean_p, mean_m, _prune(cp), _prune(cm))


def fields_close(a: FieldState, b: FieldState, atol: float = COEFF_ATOL) -> bool:
    """True when means and every fluctuation coefficient agree within atol."""
    if a.basis is not b.basis:
        return False
    if abs(a.mean_plus - b.mean_plus) > atol or abs(a.mean_minus - b.mean_minus) > atol:
        return False
    for quad in Quad:
        for src in set(a.coeffs(quad)) | set(b.coeffs(quad)):
            if abs(a.coeff(quad, src) - b.coeff(quad, src)) > atol:
                return False
    return True
