"""Periodic and windowed point sets, lattice duality, dual-point weights.

A periodic set Λ = A + M·Z^d is stored as a rational lattice basis M
(columns generate) plus finitely many coset representatives A reduced into
the fundamental cell.  The Fourier transform of its Dirac comb is supported
on the dual lattice M^{-T}·Z^d with atom mass Σ_a exp(-2πi⟨ξ,a⟩) at each
dual point ξ; whether such a mass vanishes is decided exactly, by the
Mann-class test on a sum of roots of unity.

A rep coordinate may also be a float, standing for an irrational number known
to within half an ulp (the shifts of planar shifted columns).  Floats need a
diagonal M, are never read as the binary rational they happen to be, and
enter a dual mass only where ξ is nonzero on their axis; such a mass is
numeric.
"""

from __future__ import annotations

import cmath
import itertools
import sys
from fractions import Fraction
from functools import cached_property
from math import gcd, prod
from operator import mul
from typing import Iterator, Sequence

from .errors import DimensionMismatch, IrrationalData, NotDualPoint, spend
from .exact import (
    Mat,
    Vec,
    as_coordinate,
    as_fraction,
    ceil_frac,
    floor_frac,
    lcm_int,
    mat_inv,
    mat_transpose,
    mat_vec,
    scaled,
    sum_of_roots_of_unity_is_zero,
    to_float,
)
from .geometry import Box, DifferenceBody, box
from .records import record

# A float coordinate a_j stands for a real number within half an ulp of it, so
# the float part Σ_j ξ_j·a_j of a phase errs by a few ulps of Σ_j |ξ_j·a_j|,
# and each term of a numeric mass by 2π times that plus a few ulps for the
# rational part and the exponential; 16 ulps per unit bounds all of it.
_ROUNDING = 16 * sys.float_info.epsilon


@record
class Lattice:
    basis: Mat  # columns generate

    def __post_init__(self):
        if self.det == 0:
            raise ValueError("lattice basis must be invertible")

    @property
    def dim(self) -> int:
        return len(self.basis)

    @cached_property
    def _solved(self) -> tuple[Mat | None, Fraction]:
        """(basis⁻¹, det basis), from the one elimination every use shares."""
        return mat_inv(self.basis)

    @property
    def det(self) -> Fraction:
        return self._solved[1]

    @property
    def inverse(self) -> Mat:
        return self._solved[0]

    @cached_property
    def periods(self) -> Vec | None:
        """The diagonal of a diagonal basis, signs as given; None for a skew one."""
        d = self.dim
        if any(self.basis[i][j] for i in range(d) for j in range(d) if i != j):
            return None
        return tuple(self.basis[j][j] for j in range(d))

    def rectangular_side(self) -> int:
        """The least integer c with c·Z^d ⊆ M·Z^d: it clears every denominator of M⁻¹."""
        return lcm_int([e.denominator for row in self.inverse for e in row])


def diagonal_lattice(entries: Sequence) -> Lattice:
    es = [as_fraction(e) for e in entries]
    d = len(es)
    return Lattice(
        tuple(
            tuple(es[j] if i == j else Fraction(0) for j in range(d)) for i in range(d)
        )
    )


def integer_lattice(d: int) -> Lattice:
    return diagonal_lattice([1] * d)


def dual(lat: Lattice) -> Lattice:
    """Dual lattice: inverse-transpose basis, exact."""
    return Lattice(mat_transpose(lat.inverse))


def difference(a: Sequence, b: Sequence) -> tuple:
    """a − b coordinatewise.  Two equal floats denote one number, so their
    difference is an exact 0; any other difference with a float is a float."""
    return tuple(
        Fraction(0) if isinstance(x, float) and isinstance(y, float) and x == y
        else to_float(x) - to_float(y) if isinstance(x, float) or isinstance(y, float) else x - y
        for x, y in zip(a, b)
    )


@record
class PeriodicSet:
    lattice: Lattice
    reps: tuple[tuple, ...]  # Fractions, or floats on a diagonal lattice
    contains_zero: bool = False

    @property
    def dim(self) -> int:
        return self.lattice.dim

    @property
    def float_axes(self) -> frozenset[int]:
        """The axes on which some rep has a float coordinate."""
        return frozenset(j for r in self.reps for j, x in enumerate(r) if isinstance(x, float))

    def density(self) -> Fraction:
        return Fraction(len(self.reps)) / abs(self.lattice.det)

    def translate(self, t: Sequence[Fraction]) -> "PeriodicSet":
        t = tuple(as_fraction(x) for x in t)
        return periodic_set(self.lattice, [tuple(a + b for a, b in zip(r, t)) for r in self.reps])

    def normalized_to_zero(self) -> tuple["PeriodicSet", tuple]:
        """Translate so 0 ∈ Λ; returns (set, applied offset).

        The first rep moves to an exact 0, float coordinates included.
        """
        if self.contains_zero:
            return self, tuple(Fraction(0) for _ in range(self.dim))
        off = tuple(-x for x in self.reps[0])
        return periodic_set(self.lattice, [difference(r, self.reps[0]) for r in self.reps]), off

    def rectangular_size(self) -> int:
        """The rep count of `rectangularized`, |A| or |A|·cᵈ/|det M|, without building it."""
        if self.lattice.periods is not None:
            return len(self.reps)
        lat = self.lattice
        return int(len(self.reps) * lat.rectangular_side() ** self.dim / abs(lat.det))

    def rectangularized(self) -> "PeriodicSet":
        """Equal point set over a diagonal sublattice c·Z^d (reps enlarged).

        If the basis is already diagonal it is returned unchanged (signs
        normalized).  Otherwise c is the least integer clearing every
        denominator of basis⁻¹, so that c·Z^d ⊆ M·Z^d.
        """
        if self.lattice.periods is not None:
            lat = diagonal_lattice([abs(c) for c in self.lattice.periods])
            return self if lat == self.lattice else periodic_set(lat, self.reps)
        c = self.lattice.rectangular_side()
        lat = diagonal_lattice([c] * self.dim)
        cell = box([0] * self.dim, [c] * self.dim)
        points, [(_, top)], n = _lattice_points(self.lattice.basis, self.lattice.inverse, self.reps, [cell])
        pts = [
            tuple(Fraction(x, n) for x in p)
            for p in points
            if all(0 <= x < t for x, t in zip(p, top))
        ]
        assert len(pts) == self.rectangular_size(), "rectangularization lost points"
        return periodic_set(lat, pts)


def periodic_set(lattice: Lattice, reps: Sequence[Sequence]) -> PeriodicSet:
    """Checked constructor: reps reduced into the fundamental cell, deduplicated.

    Float coordinates (irrationals) need a diagonal lattice, where each axis
    reduces on its own: x ↦ x mod c_j.
    """
    reps = [tuple(as_coordinate(x) for x in r) for r in reps]
    if lattice.periods is not None:
        reduced = {tuple(x % c for x, c in zip(r, lattice.periods)) for r in reps}
    elif any(isinstance(x, float) for r in reps for x in r):
        raise ValueError("float coordinates need a diagonal lattice")
    else:
        reduced = set()
        for r in reps:
            y = mat_vec(lattice.inverse, r)
            reduced.add(mat_vec(lattice.basis, tuple(c - floor_frac(c) for c in y)))
    reduced = sorted(reduced)
    if len(reduced) != len(reps):
        raise ValueError("coset representatives are not distinct mod the lattice")
    # a float 0.0 stands for a number near 0, so only an exact rep is the origin
    zero = any(all(x == 0 and not isinstance(x, float) for x in r) for r in reduced)
    return PeriodicSet(lattice, tuple(reduced), contains_zero=zero)


@record
class WindowSet:
    """Finite point list inside a box window; entries may be exact or float."""

    points: tuple[tuple, ...]
    window: Box

    @property
    def dim(self) -> int:
        return self.window.dim


@record
class DualWeight:
    xi: Vec
    weight: complex
    exact_zero: bool | None  # None: a numeric mass within its rounding bound of 0


def dual_weights(lam: PeriodicSet, duals: Sequence[Vec], decide: bool = True) -> list[DualWeight]:
    """Atom masses Σ_a exp(-2πi⟨ξ,a⟩) of the dual comb at dual points ξ, in order.

    The caller vouches that every ξ lies on the dual lattice (`weight`
    checks one; `enumerate_dual_in` lists them).  The reps are scaled to
    integers once for the whole list, so each ⟨ξ, a⟩ mod 1 is an integer
    phase p_a / n.  Where ξ is zero on every float axis of Λ, the vanishing
    of Σ ζ_q^{p_a} is decided exactly, for every q, by Mann classes: one sum
    of m-th roots of unity per residue of p_a mod q/m, m the product of the
    primes dividing q up to the number of distinct phases, each reduced in
    ⊗_{p | m} Z[ζ_p].  The sum depends only on the multiset of reduced
    phases and q, so each such phase class is decided once per call; the
    dual points of one list share a few; each test spends its classes × m
    on the mann_coordinates budget.

    Otherwise the mass is numeric: exact_zero is False when |W| exceeds the
    rounding bound of its float terms (then no real numbers the floats may
    stand for make it vanish), else None, undecided.  With decide False no
    zero test runs and every exact_zero is None: the masses alone.
    """
    d, floats = lam.dim, sorted(lam.float_axes)
    flat, c = scaled([Fraction(0) if j in floats else x for rep in lam.reps for j, x in enumerate(rep)])
    reps = [flat[k:k + d] for k in range(0, len(flat), d)]
    float_reps = {j: [to_float(rep[j]) for rep in lam.reps] for j in floats}
    # one denominator a for every ξ; p / n below is the same rational, and so
    # the same float, as over ξ's own denominator, and the zero test divides
    # out the gcd first
    us, a = scaled([x for xi in duals for x in xi])
    n = a * c
    out = []
    decided: dict[tuple[tuple[int, ...], int], bool] = {}  # (sorted reduced phases, q) -> vanishes
    for i, xi in enumerate(duals):
        u = us[i * d:(i + 1) * d]
        phases = [sum(map(mul, u, rep)) % n for rep in reps]  # ⟨ξ, rep⟩ mod 1 = p / n
        # p / n is rounded by int division, exactly as float(Fraction(p, n)) would be
        axes = [j for j in floats if xi[j]]
        if axes:  # ξ_j·a_j per rep a, over the float axes j with ξ_j ≠ 0
            products = [[to_float(xi[j]) * float_reps[j][k] for j in axes] for k in range(len(reps))]
            mass = sum(cmath.exp(-2j * cmath.pi * (p / n + sum(ts))) for p, ts in zip(phases, products))
        else:
            mass = sum(cmath.exp(-2j * cmath.pi * (p / n)) for p in phases)
        if not decide:
            exact = None
        elif axes:
            bound = _ROUNDING * sum(1 + 2 * cmath.pi * (1 + sum(map(abs, ts))) for ts in products)
            exact = False if abs(mass) > bound else None
        else:
            g = gcd(n, *phases)
            key = (tuple(sorted(p // g for p in phases)), n // g)
            exact = decided.get(key)
            if exact is None:
                exact = decided[key] = sum_of_roots_of_unity_is_zero(*key)
        out.append(DualWeight(xi, mass, exact))
    return out


def weight(lam: PeriodicSet, xi: Sequence) -> DualWeight:
    """Atom mass of the dual comb at one ξ, decided as in `dual_weights`.

    ξ must lie on the dual lattice (checked exactly, in integers).
    """
    xi = tuple(as_fraction(x) for x in xi)
    d = lam.dim
    if len(xi) != d:
        raise DimensionMismatch("dual point dimension mismatch")
    u, a = scaled(xi)
    basis, b = scaled([e for row in lam.lattice.basis for e in row])
    # ξ is dual iff M^T ξ = B^T u / (a b) is integral, where M = B / b.
    if any(sum(basis[i * d + j] * u[i] for i in range(d)) % (a * b) for j in range(d)):
        raise NotDualPoint(f"{xi} is not in the dual lattice")
    return dual_weights(lam, [xi])[0]


def _lattice_points(
    basis: Mat, inv: Mat, offsets: Sequence[Vec], boxes: Sequence[Box]
) -> tuple[Iterator[tuple[int, ...]], list[tuple[list[int], list[int]]], int]:
    """Candidate points offset + basis·k near a union of boxes, in integers.

    Every lattice point inside the closed bounding box of `boxes` is among the
    candidates: k ranges over the floor/ceil hull (±1 slack) of the bounding
    box corners mapped through inv = basis⁻¹.  Returns the candidates streamed as
    integer numerators over one common denominator n, each box's (lo, hi)
    scaled to n, and n; callers filter with their own predicate.  Each
    offset's candidates are spent on the lattice_candidates budget before
    any is enumerated.
    """
    d = len(basis)
    flat = [e for row in basis for e in row] + [x for off in offsets for x in off]
    flat += [x for bx in boxes for x in bx.lo + bx.hi]
    ints, n = scaled(flat)
    cols = [ints[j:d * d:d] for j in range(d)]
    end = d * d + d * len(offsets)
    scaled_offsets = [ints[k:k + d] for k in range(d * d, end, d)]
    ends = ints[end:]
    bounds = [(ends[k:k + d], ends[k + d:k + 2 * d]) for k in range(0, len(ends), 2 * d)]
    lo = [min(b.lo[j] for b in boxes) for j in range(d)]
    hi = [max(b.hi[j] for b in boxes) for j in range(d)]
    steps = []
    for off, scaled_off in zip(offsets, scaled_offsets):
        corners = itertools.product(*[(lo[j] - off[j], hi[j] - off[j]) for j in range(d)])
        images = [mat_vec(inv, tuple(c)) for c in corners]
        axes = [
            (floor_frac(min(img[j] for img in images)) - 1, ceil_frac(max(img[j] for img in images)) + 2)
            for j in range(d)
        ]
        spend("lattice_candidates", prod(b - a for a, b in axes))
        # column j times each k_j in its range, with the offset added on axis 0,
        # so a candidate is a sum of d vectors
        axis_steps = [[[x * k for x in cols[j]] for k in range(a, b)] for j, (a, b) in enumerate(axes)]
        axis_steps[0] = [[o + x for o, x in zip(scaled_off, v)] for v in axis_steps[0]]
        steps.append(axis_steps)
    candidates = (
        tuple(map(sum, zip(*parts))) for axis_steps in steps for parts in itertools.product(*axis_steps)
    )
    return candidates, bounds, n


def enumerate_dual_in(lam: PeriodicSet, body: DifferenceBody) -> list[Vec]:
    """All nonzero dual-lattice points strictly inside the open body, sorted."""
    if body.dim != lam.dim:
        raise DimensionMismatch("body dimension mismatch")
    zero = tuple(Fraction(0) for _ in range(lam.dim))
    to_coords = mat_transpose(lam.lattice.basis)  # inverse of the dual basis
    points, bounds, n = _lattice_points(dual(lam.lattice).basis, to_coords, [zero], body.boxes)
    out = sorted(
        p
        for p in points
        if any(p) and any(all(a < x < b for a, x, b in zip(lo, p, hi)) for lo, hi in bounds)
    )
    return [tuple(Fraction(x, n) for x in p) for p in out]


def window(lam: PeriodicSet, w: Box) -> WindowSet:
    """All points of Λ strictly inside the box window, exact coordinates."""
    if w.dim != lam.dim:
        raise DimensionMismatch("window dimension mismatch")
    if lam.float_axes:
        raise IrrationalData("a window lists exact points only; the reps have floats")
    lat = lam.lattice
    points, [(lo, hi)], n = _lattice_points(lat.basis, lat.inverse, lam.reps, [w])
    inside = sorted(p for p in points if all(a < x < b for a, x, b in zip(lo, p, hi)))
    return WindowSet(tuple(tuple(Fraction(x, n) for x in p) for p in inside), w)
