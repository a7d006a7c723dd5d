"""Exact rational box geometry.

Everything here is open-box, exact-rational arithmetic: domains are finite
unions of pairwise disjoint open axis-aligned boxes with Fraction corners,
and the multiplicity of a translational covering is computed as an exact
piecewise-constant level function on one rectangular fundamental cell.
Boundary behaviour (a point on a shared face is in *neither* open box) is
load-bearing for the verdicts downstream, which is why floats never enter
this module.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import (
    DimensionMismatch,
    IrrationalData,
    OverlapError,
    UnboundedTranslateCount,
)
from .exact import as_fraction, ceil_frac, floor_frac

_TRANSLATE_CAP = 200_000


@dataclass(frozen=True)
class Box:
    """Open box ∏_j (lo_j, hi_j) with exact rational corners."""

    lo: tuple[Fraction, ...]
    hi: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.lo) != len(self.hi) or not self.lo:
            raise DimensionMismatch("corner vectors must share a positive dimension")
        for a, b in zip(self.lo, self.hi):
            if not (a < b):
                raise ValueError(f"degenerate box: lo={self.lo} hi={self.hi}")

    @property
    def dim(self) -> int:
        return len(self.lo)

    @property
    def widths(self) -> tuple[Fraction, ...]:
        return tuple(b - a for a, b in zip(self.lo, self.hi))

    def volume(self) -> Fraction:
        v = Fraction(1)
        for w in self.widths:
            v *= w
        return v

    def contains(self, p: Sequence[Fraction]) -> bool:
        """Strict interior membership."""
        return all(a < x < b for a, x, b in zip(self.lo, p, self.hi))

    def midpoint(self) -> tuple[Fraction, ...]:
        return tuple((a + b) / 2 for a, b in zip(self.lo, self.hi))

    def translate(self, t: Sequence[Fraction]) -> "Box":
        t = tuple(as_fraction(x) for x in t)
        return Box(
            tuple(a + x for a, x in zip(self.lo, t)),
            tuple(b + x for b, x in zip(self.hi, t)),
        )

    def intersects_open(self, other: "Box") -> bool:
        return all(
            a < d and c < b
            for a, b, c, d in zip(self.lo, self.hi, other.lo, other.hi)
        )

    def intersection(self, other: "Box") -> "Box | None":
        if not self.intersects_open(other):
            return None
        return Box(
            tuple(max(a, c) for a, c in zip(self.lo, other.lo)),
            tuple(min(b, d) for b, d in zip(self.hi, other.hi)),
        )


def box(lo: Sequence, hi: Sequence) -> Box:
    return Box(tuple(as_fraction(x) for x in lo), tuple(as_fraction(x) for x in hi))


def interval(a, b) -> Box:
    return box([a], [b])


@dataclass(frozen=True)
class Domain:
    """Finite union of disjoint open boxes, optionally a declared product.

    `product_factors`, when present, lists 1D domains whose Cartesian product
    equals this domain; structured Fourier zero sets are only available for
    declared products (or plain 1D unions).
    """

    boxes: tuple[Box, ...]
    product_factors: tuple["Domain", ...] | None = None

    @property
    def dim(self) -> int:
        return self.boxes[0].dim

    def measure(self) -> Fraction:
        return sum((b.volume() for b in self.boxes), Fraction(0))

    def contains(self, p: Sequence[Fraction]) -> bool:
        return any(b.contains(p) for b in self.boxes)

    def translate(self, t: Sequence[Fraction]) -> "Domain":
        t = tuple(as_fraction(x) for x in t)
        factors = None
        if self.product_factors is not None:
            factors = tuple(
                f.translate([t[j]]) for j, f in enumerate(self.product_factors)
            )
        return Domain(tuple(b.translate(t) for b in self.boxes), factors)

    def diameter(self) -> Fraction:
        """Largest per-axis extent of the union (ℓ∞ diameter)."""
        return max(
            max(b.hi[j] for b in self.boxes) - min(b.lo[j] for b in self.boxes)
            for j in range(self.dim)
        )


def validate_domain(boxes: Iterable[Box]) -> Domain:
    """Checked constructor: uniform dimension, pairwise disjoint open boxes."""
    bs = tuple(boxes)
    if not bs:
        raise ValueError("a domain needs at least one box")
    d = bs[0].dim
    for b in bs:
        if b.dim != d:
            raise DimensionMismatch(f"mixed dimensions {d} and {b.dim}")
    for i in range(len(bs)):
        for j in range(i + 1, len(bs)):
            inter = bs[i].intersection(bs[j])
            if inter is not None:
                raise OverlapError(i, j, inter.midpoint())
    return Domain(bs)


def product_domain(factors: Sequence[Domain]) -> Domain:
    """Cartesian product of 1D domains, declared as such."""
    for f in factors:
        if f.dim != 1:
            raise DimensionMismatch("product factors must be one-dimensional")
    boxes = []
    for combo in itertools.product(*(f.boxes for f in factors)):
        boxes.append(
            Box(
                tuple(b.lo[0] for b in combo),
                tuple(b.hi[0] for b in combo),
            )
        )
    dom = validate_domain(boxes)
    return Domain(dom.boxes, tuple(factors))


def unit_cube(d: int) -> Domain:
    """The 0-centered open unit cube, declared as a product for d ≥ 2."""
    leg = validate_domain([interval(Fraction(-1, 2), Fraction(1, 2))])
    if d == 1:
        return leg
    return product_domain([leg] * d)


def two_interval_domain() -> Domain:
    """(0,1/2) ∪ (1,3/2): the standard 1D union with itself as tight packing region."""
    return validate_domain([interval(0, Fraction(1, 2)), interval(1, Fraction(3, 2))])


@dataclass(frozen=True)
class DifferenceBody:
    """Union of possibly overlapping open boxes; membership-only semantics."""

    boxes: tuple[Box, ...]

    @property
    def dim(self) -> int:
        return self.boxes[0].dim

    def bounding(self) -> Box:
        d = self.dim
        return Box(
            tuple(min(b.lo[j] for b in self.boxes) for j in range(d)),
            tuple(max(b.hi[j] for b in self.boxes) for j in range(d)),
        )

    def measure(self) -> Fraction:
        """Exact measure of the union via grid slicing (overlaps collapse)."""
        d = self.dim
        axes = []
        for j in range(d):
            coords = sorted({b.lo[j] for b in self.boxes} | {b.hi[j] for b in self.boxes})
            axes.append(coords)
        total = Fraction(0)
        for cell in itertools.product(*(zip(a, a[1:]) for a in axes)):
            mid = tuple((a + b) / 2 for a, b in cell)
            if any(b.contains(mid) for b in self.boxes):
                v = Fraction(1)
                for a, b in cell:
                    v *= b - a
                total += v
        return total


def minkowski_difference(u: Domain, v: Domain) -> DifferenceBody:
    """U − V as a union of open boxes, one per box pair, exact corners."""
    if u.dim != v.dim:
        raise DimensionMismatch(f"dimensions {u.dim} and {v.dim}")
    out = []
    for a in u.boxes:
        for b in v.boxes:
            out.append(
                Box(
                    tuple(x - y for x, y in zip(a.lo, b.hi)),
                    tuple(x - y for x, y in zip(a.hi, b.lo)),
                )
            )
    return DifferenceBody(tuple(out))


def overlap_measure(u: Domain, xi: Sequence[Fraction]) -> Fraction:
    """|U ∩ (U + ξ)|, exact: the boxes of U are disjoint, so box pairs add up.

    As a function of ξ this is the autocorrelation of 1_U, the Fourier
    transform of |1̂_U|²; it is positive exactly on the open body U − U.
    """
    total = Fraction(0)
    for a in u.boxes:
        for b in u.boxes:
            v = Fraction(1)
            for lo_a, hi_a, lo_b, hi_b, x in zip(a.lo, a.hi, b.lo, b.hi, xi):
                v *= max(0, min(hi_a, hi_b + x) - max(lo_a, lo_b + x))
            total += v
    return total


def contains(body: DifferenceBody, p: Sequence[Fraction]) -> bool:
    """Strict membership: p interior to some box of the union."""
    if len(p) != body.dim:
        raise DimensionMismatch("point dimension mismatch")
    pt = tuple(as_fraction(x) for x in p)
    return any(b.contains(pt) for b in body.boxes)


@dataclass(frozen=True)
class Multiplicity:
    """Exact level function of a translational covering on one fundamental cell."""

    level_min: int
    level_max: int
    cells: tuple[tuple[Box, int], ...]
    defect_cells: tuple[tuple[Box, int], ...]
    cell_measure: Fraction

    def is_tiling(self, level: int = 1) -> bool:
        return self.level_min == self.level_max == level

    def average_level(self) -> Fraction:
        tot = sum((b.volume() * lv for b, lv in self.cells), Fraction(0))
        return tot / self.cell_measure


def multiplicity(u: Domain, lam, target_level: int = 1) -> Multiplicity:
    """Exact covering multiplicity of U + Λ on a rectangular fundamental cell.

    Λ is first coarsened to a diagonal (rectangular) period so the fundamental
    cell is a box; the cell is sliced by every translate coordinate per axis
    and each open subcell's level is the count of translates containing its
    midpoint.  Tiling at level ℓ ⟺ level_min = level_max = ℓ.
    """
    from .lattice import PeriodicSet  # local import to keep deps one-way

    if not isinstance(lam, PeriodicSet):
        raise IrrationalData("multiplicity needs an exact periodic point set")
    rect = lam.rectangularized()
    c = tuple(rect.lattice.basis[j][j] for j in range(rect.dim))
    d = u.dim
    if rect.dim != d:
        raise DimensionMismatch(f"domain dim {d} vs point set dim {rect.dim}")

    # Gather all translates of U's boxes meeting the open cell ∏(0, c_j).
    translated: list[Box] = []
    for rep in rect.reps:
        for b in u.boxes:
            ranges = []
            for j in range(d):
                lo_j = b.lo[j] + rep[j]
                hi_j = b.hi[j] + rep[j]
                kmin = floor_frac((-hi_j) / c[j]) + 1
                kmax = ceil_frac((c[j] - lo_j) / c[j]) - 1
                ranges.append(range(kmin, kmax + 1))
            count = 1
            for r in ranges:
                count *= len(r)
            if count == 0:
                continue
            if len(translated) + count > _TRANSLATE_CAP:
                raise UnboundedTranslateCount(
                    f"more than {_TRANSLATE_CAP} translates meet the cell"
                )
            for k in itertools.product(*ranges):
                translated.append(
                    Box(
                        tuple(b.lo[j] + rep[j] + k[j] * c[j] for j in range(d)),
                        tuple(b.hi[j] + rep[j] + k[j] * c[j] for j in range(d)),
                    )
                )

    axes = []
    for j in range(d):
        cuts = {Fraction(0), c[j]}
        for t in translated:
            for v in (t.lo[j], t.hi[j]):
                if 0 < v < c[j]:
                    cuts.add(v)
        axes.append(sorted(cuts))

    cells: list[tuple[Box, int]] = []
    lo_cap, hi_cap = None, None
    for spans in itertools.product(*(zip(a, a[1:]) for a in axes)):
        cell = Box(tuple(s[0] for s in spans), tuple(s[1] for s in spans))
        mid = cell.midpoint()
        level = sum(1 for t in translated if t.contains(mid))
        cells.append((cell, level))
        lo_cap = level if lo_cap is None else min(lo_cap, level)
        hi_cap = level if hi_cap is None else max(hi_cap, level)

    cell_measure = Fraction(1)
    for cj in c:
        cell_measure *= cj
    defects = tuple((b, lv) for b, lv in cells if lv != target_level)
    return Multiplicity(lo_cap, hi_cap, tuple(cells), defects, cell_measure)
