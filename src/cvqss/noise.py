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
from collections import namedtuple
from collections.abc import Iterable, Mapping
from enum import Enum

# Absolute tolerance for coefficient / variance equality checks.
COEFF_ATOL = 1e-12

# Each knob's range ends at most here, so its one comparison refuses NaN, inf and huge ints.
FLOAT_MAX = sys.float_info.max

# Largest squeezing parameter r whose anti-squeezed variance e^{2r} is a
# finite float.
MAX_SQUEEZING = 0.5 * math.log(FLOAT_MAX)


def left_sum(terms: Iterable[float]) -> float:
    """Add left to right from 0.0, as sum() adds floats below Python 3.12 (from 3.12 on
    it compensates rounding), so each Python the package accepts prints the same bytes."""
    total = 0.0
    for term in terms:
        total += term
    return total


def check_real(what: str, *values: float) -> None:
    """Reject a bool, or anything but an int or a float, with ValueError."""
    for x in values:
        if type(x) is not float and (isinstance(x, bool) or not isinstance(x, (int, float))):
            raise ValueError(f"{what} must be real numbers, not {values!r}")


def check_finite(what: str, *values: float) -> None:
    """check_real, then reject NaN, an infinity or an int beyond the float range with ValueError."""
    check_real(what, *values)
    try:
        finite = all(map(math.isfinite, values))
    except OverflowError:  # an int that no float holds
        finite = False
    if not finite:
        raise ValueError(f"{what} must be finite")


def check_point(r: float, v_m: float) -> None:
    """Reject a dealer point (r, v_m) with a bool or non-real value, NaN, inf, a huge
    int, a negative value or r above MAX_SQUEEZING: the points no deal is scored at."""
    check_real("squeezing and modulation power", r, v_m)
    if not (0.0 <= r <= FLOAT_MAX and 0.0 <= v_m <= FLOAT_MAX):
        raise ValueError("squeezing and modulation power must be finite and nonnegative")
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


class NoiseBasis:
    """Append-only registry of the noise modes active in one scenario.

    A mode is its kind plus its two quadrature variances, each stored once.
    Each source falls in a variance class, one per (kind, quadrature,
    variance), numbered in registration order, by which the metrics sum.
    """

    def __init__(self) -> None:
        self._kinds: list[ModeKind] = []
        self._classes: dict[Source, int] = {}
        self._class_ids: dict[tuple[ModeKind, Quad, float], int] = {}
        self._class_variances: list[float] = []  # by class id

    def __len__(self) -> int:
        return len(self._kinds)

    def kind(self, mid: int) -> ModeKind:
        if type(mid) is not int or not 0 <= mid < len(self._kinds):
            raise KeyError(f"unknown noise mode id {mid}")
        return self._kinds[mid]

    def modes_of_kind(self, kind: ModeKind) -> tuple[int, ...]:
        return tuple(mid for mid, k in enumerate(self._kinds) if k is kind)

    def register(self, kind: ModeKind, v_plus: float, v_minus: float) -> int:
        """Register a mode and return its fresh id.

        Variances must be consistent with the mode kind: vacuum-like modes
        have unit variance, squeezed modes are minimum-uncertainty
        (v_plus * v_minus = 1), classical modulation has equal variance in
        both quadratures (0 means no added noise).
        """
        check_real("noise-mode variances", v_plus, v_minus)
        return self._register(kind, v_plus, v_minus)

    def _register(self, kind: ModeKind, v_plus: float, v_minus: float) -> int:
        # register without its real-number check, for squeezed, whose variances are
        # e^(-/+2r) of a checked r: floats, or mpmath's in the 80-digit reference pipeline
        if not (0.0 <= v_plus <= FLOAT_MAX and 0.0 <= v_minus <= FLOAT_MAX):
            raise ValueError("noise-mode variances must be finite and nonnegative")
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
        mid = len(self._kinds)
        self._kinds.append(kind)
        for quad, v in ((Quad.PLUS, v_plus), (Quad.MINUS, v_minus)):
            cid = self._class_ids.setdefault((kind, quad, v), len(self._class_ids))
            if cid == len(self._class_variances):
                self._class_variances.append(v)
            self._classes[(mid, quad)] = cid
        return mid

    # Convenience constructors for the four kinds in use.

    def vacuum(self) -> int:
        return self.register(ModeKind.VACUUM, 1.0, 1.0)

    def squeezed(self, r: float) -> int:
        """Amplitude-squeezed mode: V+ = exp(-2r), V- = exp(+2r), r >= 0."""
        check_point(r, 0.0)
        return self._register(ModeKind.SQUEEZED, math.exp(-2.0 * r), math.exp(2.0 * r))

    def modulation(self, v_m: float) -> int:
        return self.register(ModeKind.CLASSICAL_MODULATION, v_m, v_m)

    def detector(self) -> int:
        return self.register(ModeKind.DETECTOR_VACUUM, 1.0, 1.0)

    def source_variance(self, source: Source) -> float:
        return self._class_variances[self._classes[source]]

    def class_variances(self, r: float, v_m: float) -> list[float]:
        """The class variances had each squeezed mode been registered by squeezed(r)
        and each modulation mode by modulation(v_m): a deal's beams, of either
        source, score under these as a fresh deal's at (r, v_m), bit for bit.
        So one deal serves every (r, v_m), and every CLI command scores it so.
        A point that DealerConfig rejects raises ValueError here too."""
        check_point(r, v_m)
        squeezed = {Quad.PLUS: math.exp(-2.0 * r), Quad.MINUS: math.exp(2.0 * r)}
        return [
            squeezed[quad] if kind is ModeKind.SQUEEZED
            else v_m if kind is ModeKind.CLASSICAL_MODULATION else v
            for kind, quad, v in self._class_ids
        ]


def _prune(coeffs: dict[Source, float]) -> dict[Source, float]:
    # Exact cancellations are rare, so most dicts are returned without a copy.
    if 0.0 not in coeffs.values():
        return coeffs
    return {k: v for k, v in coeffs.items() if v != 0.0}


class FieldState(namedtuple("FieldState", "basis mean_plus mean_minus coeffs_plus coeffs_minus")):
    """One optical beam: quadrature means plus fluctuation coefficients.

    The fluctuation of quadrature q is sum_k coeffs_q[k] * (source k), with
    the sources independent, so variances and covariances are quadratic
    forms over the coefficient vectors.  A namedtuple, so immutable and
    compared by value; every optical element returns a new one.

    Building one, or _replace, checks that every coefficient key is a
    registered (mid, Quad) source of the basis and each mean a finite real.
    The algebra below (lincomb, field_from_mode, psa_ideal) builds its
    results with _derived_field, which skips both: their keys are a subset
    of keys already checked, on the same append-only basis, so they stay
    registered, and a mean is checked where a caller gives it.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # so _replace checks too

    def __new__(
        cls, basis: NoiseBasis, mean_plus: float = 0.0, mean_minus: float = 0.0,
        coeffs_plus: Mapping[Source, float] | None = None,
        coeffs_minus: Mapping[Source, float] | None = None,
    ) -> FieldState:
        return tuple.__new__(cls, (basis, mean_plus, mean_minus, coeffs_plus or {}, coeffs_minus or {}))

    def __init__(self, *args: object, **kwargs: object) -> None:
        # Here, not in __new__: a tracer wraps __init__, and a wrapped object.__init__ refuses args.
        known = self.basis._classes.keys()
        for coeffs in (self.coeffs_plus, self.coeffs_minus):
            if not coeffs.keys() <= known:
                bad = next(src for src in coeffs if src not in known)
                raise KeyError(f"unknown noise mode id in source {bad!r}")
        check_finite("field means", self.mean_plus, self.mean_minus)

    def mean(self, quad: Quad) -> float:
        return self.mean_plus if quad is Quad.PLUS else self.mean_minus

    def coeffs(self, quad: Quad) -> Mapping[Source, float]:
        return self.coeffs_plus if quad is Quad.PLUS else self.coeffs_minus

    def coeff(self, quad: Quad, source: Source) -> float:
        return self.coeffs(quad).get(source, 0.0)


def _derived_field(
    basis: NoiseBasis, mean_plus: float, mean_minus: float,
    coeffs_plus: dict[Source, float], coeffs_minus: dict[Source, float],
) -> FieldState:
    """FieldState(...) without its key check, for keys known to be registered."""
    return tuple.__new__(FieldState, (basis, mean_plus, mean_minus, coeffs_plus, coeffs_minus))


def field_from_mode(
    basis: NoiseBasis, mid: int, mean_plus: float = 0.0, mean_minus: float = 0.0
) -> FieldState:
    """A beam whose fluctuations are exactly one registered mode's."""
    basis.kind(mid)  # an int id in range, so both keys are registered (0.0 or False is not)
    check_finite("field means", mean_plus, mean_minus)
    return _derived_field(
        basis, mean_plus, mean_minus, {(mid, Quad.PLUS): 1.0}, {(mid, Quad.MINUS): 1.0}
    )


def variance(fld: FieldState, quad: Quad) -> float:
    """Fluctuation variance of one quadrature, in shot-noise units.  A source of
    zero variance adds nothing, even where its coefficient's square overflows."""
    classes, table = fld.basis._classes, fld.basis._class_variances
    return left_sum((c * c * v for src, c in fld.coeffs(quad).items()
                     if (v := table[classes[src]])))


def covariance(a: FieldState, b: FieldState, quad: Quad) -> float:
    """<dX_a dX_b> for the chosen quadrature; both fields must share a basis."""
    if a.basis is not b.basis:
        raise ValueError("fields live on different noise bases")
    ca, cb = a.coeffs(quad), b.coeffs(quad)
    if len(cb) < len(ca):
        ca, cb = cb, ca
    classes, table = a.basis._classes, a.basis._class_variances
    return left_sum((c * cb[src] * v for src, c in ca.items()
                     if src in cb and (v := table[classes[src]])))


def _accumulate(out: dict[Source, float], coeffs: Mapping[Source, float], k: float) -> None:
    for src, x in coeffs.items():
        out[src] = out.get(src, 0.0) + k * x


def lincomb(terms: Iterable[tuple[Weight, FieldState]]) -> FieldState:
    """Linear combination of fields, applied to means and coefficients alike.

    A term's weight is a number w or a quadrature map (a, b, c, d): the term
    adds a X+ + b X- to the output's X+ and c X+ + d X- to its X-, and w
    stands for (w, 0, 0, w).  Map entries that are exactly zero are skipped.
    Each output dict takes its keys in term order, the X+-sourced entries of
    a term before its X--sourced ones, which fixes every later summation
    order.  The output's keys are drawn from its terms' keys, which were
    checked when those fields were built, so only the shared basis is
    checked here.
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
    return _derived_field(basis, mean_p, mean_m, _prune(cp), _prune(cm))
