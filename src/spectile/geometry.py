"""Exact rational box geometry.

Everything here is open-box, exact-rational arithmetic: domains are finite
unions of pairwise disjoint open axis-aligned boxes with Fraction corners,
and the multiplicity of a translational covering is computed as an exact
piecewise-constant level function on the cells of one rectangular period
torus.  `torus_cover` says, axis by axis, which cells a translated box
covers and how many times; `multiplicity` and the tilings search are both
built on it.  Boundary behaviour (a point on a shared face is in *neither*
open box) is load-bearing for the verdicts downstream, which is why floats
never enter a cell: reps with float coordinates are decided only where
those coordinates drop out of the level (`_multiplicity_off_float_axes`).
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

from .errors import DimensionMismatch, IrrationalData, OverlapError, spend
from .exact import as_fraction, scaled
from .records import record


@record
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
        return math.prod(self.widths)

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

    def intersection(self, other: "Box") -> "Box | None":
        lo = tuple(max(a, c) for a, c in zip(self.lo, other.lo))
        hi = tuple(min(b, d) for b, d in zip(self.hi, other.hi))
        return Box(lo, hi) if all(a < b for a, b in zip(lo, hi)) else None


def box(lo: Sequence, hi: Sequence) -> Box:
    return Box(tuple(as_fraction(x) for x in lo), tuple(as_fraction(x) for x in hi))


def interval(a, b) -> Box:
    return box([a], [b])


@record
class Domain:
    """Finite union of disjoint open boxes."""

    boxes: tuple[Box, ...]

    @property
    def dim(self) -> int:
        return self.boxes[0].dim

    @cached_property
    def measure(self) -> Fraction:
        return sum((b.volume() for b in self.boxes), Fraction(0))

    def contains(self, p: Sequence[Fraction]) -> bool:
        return any(b.contains(p) for b in self.boxes)

    def translate(self, t: Sequence[Fraction]) -> "Domain":
        t = tuple(as_fraction(x) for x in t)
        return Domain(tuple(b.translate(t) for b in self.boxes))

    def factors(self) -> tuple["Domain", ...] | None:
        """The 1D domains whose Cartesian product is this union, or None.

        Axis j's factor is the sorted set of distinct (lo_j, hi_j) among the
        boxes.  Each (distinct) box lies in the product of these sets, so the
        boxes are that product iff their count is the product of the set sizes.
        """
        axes = [sorted({(b.lo[j], b.hi[j]) for b in self.boxes}) for j in range(self.dim)]
        if len(self.boxes) != math.prod(map(len, axes)):
            return None
        return tuple(Domain(tuple(Box((lo,), (hi,)) for lo, hi in a)) for a in axes)

    @cached_property
    def grid(self) -> tuple[list[int], list[list[tuple[int, int]]]]:
        """(q, boxes): q_j the lcm of axis j's endpoint denominators, and every
        box as its integer endpoints (q_j·lo_j, q_j·hi_j) per axis.
        IrrationalData when an endpoint is a float."""
        try:
            axes = [
                scaled([as_fraction(x) for b in self.boxes for x in (b.lo[j], b.hi[j])])
                for j in range(self.dim)
            ]
        except TypeError as exc:
            raise IrrationalData(str(exc)) from None
        boxes = [[(u[2 * k], u[2 * k + 1]) for u, _ in axes] for k in range(len(self.boxes))]
        return [q for _, q in axes], boxes

    def diameter(self) -> Fraction:
        """Largest per-axis extent of the union (ℓ∞ diameter)."""
        return max(
            max(b.hi[j] for b in self.boxes) - min(b.lo[j] for b in self.boxes)
            for j in range(self.dim)
        )


def validate_domain(boxes: Iterable[Box]) -> Domain:
    """Checked constructor: uniform dimension, pairwise disjoint open boxes.

    Overlaps are found by a sweep along axis 0: in order of lo_0, each box is
    tested only against the earlier ones whose hi_0 lies above its lo_0, the
    only ones it can meet.  OverlapError names the least overlapping pair
    (i, j), i < j, and the midpoint of their intersection.
    """
    bs = tuple(boxes)
    if not bs:
        raise ValueError("a domain needs at least one box")
    d = bs[0].dim
    for b in bs:
        if b.dim != d:
            raise DimensionMismatch(f"mixed dimensions {d} and {b.dim}")
    overlaps, active = [], []
    for j in sorted(range(len(bs)), key=lambda k: bs[k].lo[0]):
        active = [i for i in active if bs[i].hi[0] > bs[j].lo[0]]
        overlaps += [(min(i, j), max(i, j)) for i in active if bs[i].intersection(bs[j]) is not None]
        active.append(j)
    if overlaps:
        i, j = min(overlaps)
        raise OverlapError(i, j, bs[i].intersection(bs[j]).midpoint())
    return Domain(bs)


def product_domain(factors: Sequence[Domain]) -> Domain:
    """The boxes of the Cartesian product of 1D domains."""
    for f in factors:
        if f.dim != 1:
            raise DimensionMismatch("product factors must be one-dimensional")
    return validate_domain(
        Box(tuple(b.lo[0] for b in combo), tuple(b.hi[0] for b in combo))
        for combo in itertools.product(*(f.boxes for f in factors))
    )


def unit_cube(d: int) -> Domain:
    """The 0-centered open unit cube."""
    return product_domain([validate_domain([interval(Fraction(-1, 2), Fraction(1, 2))])] * d)


def two_interval_domain() -> Domain:
    """(0,1/2) ∪ (1,3/2): the standard 1D union with itself as tight packing region."""
    return validate_domain([interval(0, Fraction(1, 2)), interval(1, Fraction(3, 2))])


@record
class DifferenceBody:
    """Union of possibly overlapping open boxes; membership-only semantics."""

    boxes: tuple[Box, ...]

    @property
    def dim(self) -> int:
        return self.boxes[0].dim


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


@record
class Multiplicity:
    """Exact level function of a translational covering on one fundamental cell:
    the cuts 0 = x_0 < … < x_n = c_j of each torus axis and the level of every
    cell, row-major.  A cell becomes a Box only when one is asked for."""

    cuts: tuple[tuple[Fraction, ...], ...]
    levels: tuple[int, ...]

    @property
    def level_min(self) -> int:
        return min(self.levels)

    @property
    def level_max(self) -> int:
        return max(self.levels)

    def is_tiling(self) -> bool:
        return self.level_min == self.level_max == 1

    def cell(self, i: int) -> Box:
        """The open box of cell i (row-major)."""
        lo, hi = [], []
        for cuts in reversed(self.cuts):
            i, k = divmod(i, len(cuts) - 1)
            lo.append(cuts[k])
            hi.append(cuts[k + 1])
        return Box(tuple(reversed(lo)), tuple(reversed(hi)))

    @property
    def cells(self) -> tuple[tuple[Box, int], ...]:
        """Every cell as (box, level), row-major."""
        return tuple((self.cell(i), lv) for i, lv in enumerate(self.levels))

    def first_defect(self) -> tuple[Box, int] | None:
        """The first cell (row-major) whose level is not 1, with its level."""
        i = next((i for i, lv in enumerate(self.levels) if lv != 1), None)
        return None if i is None else (self.cell(i), self.levels[i])


def torus_cover(axes: Sequence[Sequence[Fraction]], b: Box) -> list[dict[int, int]]:
    """Which cells of the period torus the box b covers, and how many times,
    axis by axis.

    axes[j] lists the cuts 0 = x_0 < … < x_n = c_j of the circle R/c_jZ, and
    both b.lo[j] and b.hi[j] must be cuts modulo c_j.  The j-th dict maps
    each cell i = (x_i, x_{i+1}) that (lo_j, hi_j) wraps over to its count:
    ⌊w_j/c_j⌋ on every cell, plus one on the remainder arc, the cells from
    the cut at lo_j mod c_j up to the cut at hi_j mod c_j (both found by
    bisection, the arc wrapping past c_j when the second comes first).  A
    torus cell is covered the product of its axis counts times.
    """
    out = []
    for cuts, lo, hi in zip(axes, b.lo, b.hi):
        c, n = cuts[-1], len(cuts) - 1
        full = (hi - lo) // c
        i, k = bisect_left(cuts, lo % c), bisect_left(cuts, hi % c)
        arc = range(i, k) if i <= k else [*range(i, n), *range(k)]
        counts = dict.fromkeys(range(n), full) if full else {}
        counts.update(dict.fromkeys(arc, full + 1))
        out.append(counts)
    return out


def multiplicity(u: Domain, lam) -> Multiplicity:
    """Exact covering multiplicity of U + Λ on a rectangular fundamental cell.

    Λ is first coarsened to a diagonal (rectangular) period c so the
    fundamental cell is a box.  Axis j of the period torus is cut at 0, c_j
    and every box coordinate plus rep coordinate modulo c_j, so every
    translate of every box is a union of cells.  Each (rep, box) pair adds
    the outer product of its per-axis covers (`torus_cover`) into one level
    array; a wide box adds ⌊w/c⌋ per axis arithmetically, so the work is at
    most reps × boxes × cells.  That product is spent on the cells budget
    before any cover is computed, and N²·boxes before Λ is rectangularized
    into N reps, which cut at least N cells.
    Tiling ⟺ level_min = level_max = 1.  Reps with float coordinates go
    through `_multiplicity_off_float_axes`.
    """
    from .lattice import PeriodicSet  # local import to keep deps one-way

    if not isinstance(lam, PeriodicSet):
        raise IrrationalData("multiplicity needs an exact periodic point set")
    n = lam.rectangular_size()  # float reps: the recursion on the exact axes checks
    if not lam.float_axes:
        spend("cells", n * n * len(u.boxes))
    rect = lam.rectangularized()
    c = rect.lattice.periods
    d = u.dim
    if rect.dim != d:
        raise DimensionMismatch(f"domain dim {d} vs point set dim {rect.dim}")
    if rect.float_axes:
        return _multiplicity_off_float_axes(u, rect, c)

    translates = [b.translate(rep) for rep in rect.reps for b in u.boxes]
    axes = [
        sorted({Fraction(0), c[j]} | {x % c[j] for t in translates for x in (t.lo[j], t.hi[j])})
        for j in range(d)
    ]
    sizes = [len(a) - 1 for a in axes]
    n_cells = math.prod(sizes)
    spend("cells", len(translates) * n_cells)
    strides = [math.prod(sizes[j + 1 :]) for j in range(d)]
    levels = [0] * n_cells
    for t in translates:
        terms = [(0, 1)]
        for counts, stride in zip(torus_cover(axes, t), strides):
            terms = [(o + i * stride, m * k) for o, m in terms for i, k in counts.items()]
        for o, m in terms:
            levels[o] += m

    return Multiplicity(tuple(map(tuple, axes)), tuple(levels))


def _multiplicity_off_float_axes(u: Domain, rect, c: Sequence[Fraction]) -> Multiplicity:
    """Multiplicity of U + Λ for reps with float coordinates, period diag(c).

    On a product U = ∏_j I_j the level factorizes by axis:
    level(x) = Σ_a ∏_j #{n ∈ Z : x_j − a_j − c_j·n ∈ I_j}.  On a float axis j
    where I_j + c_j·Z covers the line a constant κ_j times, the factor is κ_j
    whatever a_j is, so the floats drop out: the level is ∏ κ_j times the
    exact multiplicity on the other axes, and constant along the float axes.
    Shifted columns on a product with a unit-period column factor are the
    case in point.  Raises IrrationalData when U is no product of 1D unions
    (`Domain.factors`), a float axis is covered unevenly, every axis is a
    float axis, or two reps agree off the float axes.
    """
    from .lattice import diagonal_lattice, periodic_set

    floats = rect.float_axes
    exact = [j for j in range(u.dim) if j not in floats]
    factors = u.factors()
    if factors is None or not exact:
        raise IrrationalData(
            "float coordinates are decided only on a product of 1D unions with an exact axis"
        )
    kappa = 1
    for j in sorted(floats):
        column = multiplicity(factors[j], periodic_set(diagonal_lattice([c[j]]), [[0]]))
        if column.level_min != column.level_max:
            raise IrrationalData(f"axis {j} carries floats and its factor covers it unevenly")
        kappa *= column.level_min
    try:
        rest = periodic_set(
            diagonal_lattice([c[j] for j in exact]), [[r[j] for j in exact] for r in rect.reps]
        )
    except ValueError:  # two reps in one coset off the float axes
        raise IrrationalData("two reps agree off the float axes") from None
    base = multiplicity(product_domain([factors[j] for j in exact]), rest)

    cuts = iter(base.cuts)  # a float axis is one whole cell, so the row-major order holds
    return Multiplicity(
        tuple((Fraction(0), c[j]) if j in floats else next(cuts) for j in range(u.dim)),
        tuple(kappa * lv for lv in base.levels),
    )
