"""Unitary irreducible representations of SO(2,1).

States |j, m⟩ diagonalize the Casimir (eigenvalue j(j+1)) and j₃ (eigenvalue
m); the ladder operators act with coefficients

    raise:  √(-(j - m)(j + m + 1))    lower:  √(-(j + m)(j - m + 1))

whose squares are the expectation values of j₋j₊ and j₊j₋. Unitarity demands
both be nonnegative, which carves the (j, m) plane into two open triangles
(multiplets bounded from below or above) and a diamond-shaped band around
m = 0 (two-sided multiplets), everything else being forbidden. Four classes
result: bounded below (``D_PLUS``), bounded above (``D_MINUS``), the
supplementary series (``D_S``), and the principal series (``D_P``, complex
j = -1/2 + iβ, classification only).

All formulas depend on j only through j(j+1), so labels j and -j-1 describe
the same representation; constructors canonicalize to the branch j <= -1/2.
Everything here is scalar arithmetic on floats: the module loads no numpy.
"""

from __future__ import annotations

import enum
import math
from bisect import bisect_left, bisect_right
from typing import Iterator, Mapping, NamedTuple, Sequence, TypeVar

from .errors import UnitarityError

__all__ = [
    "RepClass",
    "Region",
    "RepLabel",
    "Multiplet",
    "ladder_coefficient",
    "positivity_check",
    "classify",
    "enumerate_multiplet",
    "region_of",
    "region_rows",
]

_EDGE_TOL = 1e-12


class RepClass(enum.Enum):
    D_PLUS = "D_plus"
    D_MINUS = "D_minus"
    D_S = "D_s"
    D_P = "D_p"
    INVALID = "invalid"


class Region(enum.Enum):
    BOUNDED_BELOW = "bounded_below_region"
    BOUNDED_ABOVE = "bounded_above_region"
    SQUARE = "square_region"
    FORBIDDEN = "forbidden"



def _canonical_j(j: float) -> float:
    # j and -j-1 share j(j+1); keep the j <= -1/2 branch.
    return min(j, -1.0 - j)


class RepLabel(
    NamedTuple("RepLabel", [("rep_class", RepClass), ("j", float), ("m0", float), ("beta", float)])
):
    """A representation class with its label (j, m0).

    For ``D_P`` the label is j = -1/2 + iβ, stored as (j = -1/2, beta = β);
    every other class has beta = 0. ``j`` is canonicalized to the j <= -1/2
    branch on construction (the j ↔ -j-1 equivalence).
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, rep_class: RepClass, j: float, m0: float, beta: float = 0.0):
        if rep_class in (RepClass.D_PLUS, RepClass.D_MINUS):
            j = _canonical_j(j)
            m0 = -j if rep_class is RepClass.D_PLUS else j
        if rep_class is RepClass.D_P and j != -0.5:
            raise ValueError("principal series requires j = -1/2 + i*beta")
        return super().__new__(cls, rep_class, j, m0, beta)

    @property
    def casimir(self) -> float:
        if self.rep_class is RepClass.D_P:
            return -0.25 - self.beta**2
        return self.j * (self.j + 1.0)

    @classmethod
    def bounded_below(cls, j: float) -> "RepLabel":
        return cls(RepClass.D_PLUS, j, -_canonical_j(j))

    @classmethod
    def bounded_above(cls, j: float) -> "RepLabel":
        return cls(RepClass.D_MINUS, j, _canonical_j(j))

    @classmethod
    def supplementary(cls, j: float, m0: float) -> "RepLabel":
        label = cls(RepClass.D_S, j, m0)
        if classify(j, m0).rep_class is not RepClass.D_S:
            raise ValueError(f"(j={j}, m0={m0}) is not in the supplementary band")
        return label

    @classmethod
    def principal(cls, beta: float, m0: float) -> "RepLabel":
        if not -0.5 < m0 < 0.5:
            raise ValueError("principal series requires -1/2 < m0 < 1/2")
        return cls(RepClass.D_P, -0.5, m0, beta=beta)


class Multiplet(NamedTuple):
    rep: RepLabel
    m_values: list[float]

    @property
    def casimir(self) -> float:
        return self.rep.casimir


def positivity_check(j: float, m: float, beta: float = 0.0) -> tuple[float, float]:
    """Expectation values (⟨j₊j₋⟩, ⟨j₋j₊⟩) in |j, m⟩.

    A state is admissible in a unitary multiplet iff both are >= 0; zeros mark
    multiplet edges. For the principal series pass beta (the values gain +β²
    and are then always positive).
    """
    casimir = j * (j + 1.0) if beta == 0.0 else -0.25 - beta**2
    lower = m * (m - 1.0) - casimir
    upper = m * (m + 1.0) - casimir
    return (lower, upper)


def ladder_coefficient(j: float, m: float, direction: str) -> float:
    """Ladder matrix element: ``raise`` sends m → m+1, ``lower`` m → m-1.

    Raises UnitarityError when the radicand is negative, i.e. when (j, m)
    lies outside every unitary multiplet.
    """
    lower_sq, raise_sq = positivity_check(j, m)
    if direction == "raise":
        radicand = raise_sq
    elif direction == "lower":
        radicand = lower_sq
    else:
        raise ValueError(f"direction must be 'raise' or 'lower', got {direction!r}")
    if radicand < -_EDGE_TOL:
        raise UnitarityError(
            f"(j={j}, m={m}) is outside any unitary multiplet: "
            f"{direction} radicand {radicand} < 0"
        )
    return math.sqrt(max(radicand, 0.0))


def classify(j: float, m0: float) -> RepLabel:
    """Match (j, m0) to a representation class.

    Checks the bounded-below and bounded-above rows first (m0 = -j resp.
    m0 = j with j < 0), then the supplementary band (strict inequalities
    j(j+1) < (|m0|-1)|m0| and -1/2 < m0 < 1/2). Anything else is the INVALID
    label. The principal series has complex j and is only reachable through
    ``RepLabel.principal``. Non-finite j or m0 raise ValueError.
    """
    if not (math.isfinite(j) and math.isfinite(m0)):
        raise ValueError(f"(j={j}, m0={m0}) must be finite")
    if j < 0.0 and abs(m0 + j) < _EDGE_TOL:
        return RepLabel(RepClass.D_PLUS, j, -j)
    if j < 0.0 and abs(m0 - j) < _EDGE_TOL:
        return RepLabel(RepClass.D_MINUS, j, j)
    if -0.5 < m0 < 0.5 and j * (j + 1.0) < (abs(m0) - 1.0) * abs(m0):
        return RepLabel(RepClass.D_S, j, m0)
    return RepLabel(RepClass.INVALID, j, m0)


def enumerate_multiplet(rep: RepLabel, count: int) -> Multiplet:
    """First ``count`` m-values of the multiplet, every one positivity-checked.

    Bounded-below multiplets climb from m0 = -j, bounded-above descend from
    m0 = j; two-sided classes (supplementary/principal) spread outward from
    m0 in both directions. A positivity failure here would mean the label was
    constructed inconsistently, and raises, as does an m0 too large for unit steps.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if rep.rep_class is RepClass.D_PLUS:
        m_values = [rep.m0 + n for n in range(count)]
    elif rep.rep_class is RepClass.D_MINUS:
        m_values = [rep.m0 - n for n in range(count)]
    elif rep.rep_class in (RepClass.D_S, RepClass.D_P):
        steps = sorted(range(-count, count + 1), key=abs)[:count]
        m_values = sorted(rep.m0 + n for n in steps)
    else:
        raise ValueError("cannot enumerate an invalid representation label")
    # from |m| = 2**53 on, m ± 1 rounds to m or m ± 2; below, steps are 1 to an ulp
    if any(abs(abs(b - a) - 1.0) > 0.5 for a, b in zip(m_values, m_values[1:])):
        raise ValueError(f"m0={rep.m0} is too large for unit ladder steps in floating point")
    beta = rep.beta if rep.rep_class is RepClass.D_P else 0.0
    for m in m_values:
        lower_sq, raise_sq = positivity_check(rep.j, m, beta)
        if lower_sq < -_EDGE_TOL or raise_sq < -_EDGE_TOL:
            raise UnitarityError(
                f"inconsistent multiplet: (j={rep.j}, m={m}) fails positivity"
            )
    return Multiplet(rep, m_values)


def _region(casimir: float, m: float) -> Region:
    # the rule of region_of, read off the Casimir c = j(j+1); each test
    # compares c with one of m(m - 1), m(m + 1) and (|m| - 1)|m|
    if m * (m - 1.0) - casimir < 0.0 or m * (m + 1.0) - casimir < 0.0:
        return Region.FORBIDDEN
    if m >= 0.5:
        return Region.BOUNDED_BELOW
    if m <= -0.5:
        return Region.BOUNDED_ABOVE
    if casimir < (abs(m) - 1.0) * abs(m):
        return Region.SQUARE
    return Region.FORBIDDEN


def region_of(j: float, m: float) -> Region:
    """Locate a real (j, m) point among the allowed regions of the plane.

    Positivity of both operator orderings is required everywhere; admissible
    points split by m into the bounded-below triangle (m >= 1/2), the
    bounded-above triangle (m <= -1/2), and the central band, where the
    supplementary-series bound j(j+1) < (|m|-1)|m| must hold strictly (band
    points on the diamond edge are starting states of short discrete
    multiplets, not members of a two-sided class). The first rule that
    applies decides, in that order; a comparison with nan is false."""
    return _region(j * (j + 1.0), m)


_T = TypeVar("_T")


def region_rows(
    j_values: Sequence[float], m_values: Sequence[float], cells: Mapping[Region, Sequence[_T]]
) -> Iterator[list[_T]]:
    """The region raster a row at a time: for each j of ``j_values`` in
    order, the list of ``cells[region_of(j, m)][k]`` over the columns k,
    m = ``m_values[k]``.

    A column's region depends on j only through c = j(j+1), and each test of
    the rule compares c with one of the column's thresholds m(m - 1),
    m(m + 1) and (|m| - 1)|m|, so it changes only where c crosses one of
    them. Each row after the first looks up just the columns with a
    threshold between its c and the previous row's (c falls and then rises
    along an ascending j axis, so each threshold is crossed at most twice),
    and yields the previous row's list updated in place.
    """
    # a nan column is forbidden at every c, so it has no threshold
    events = sorted(
        {(threshold, k)
         for k, m in enumerate(m_values) if not math.isnan(m)
         for threshold in (m * (m - 1.0), m * (m + 1.0), (abs(m) - 1.0) * abs(m))}
    )
    thresholds = [threshold for threshold, _ in events]
    columns = [k for _, k in events]
    row: list[_T] = []
    previous = math.nan
    for j in j_values:
        casimir = j * (j + 1.0)
        if math.isnan(previous) or math.isnan(casimir):
            row[:] = [cells[_region(casimir, m)][k] for k, m in enumerate(m_values)]
        else:
            lo, hi = (casimir, previous) if casimir < previous else (previous, casimir)
            for k in columns[bisect_left(thresholds, lo):bisect_right(thresholds, hi)]:
                row[k] = cells[_region(casimir, m_values[k])][k]
        previous = casimir
        yield row
