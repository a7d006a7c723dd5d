"""Periodic and windowed point sets, lattice duality, dual-point weights.

A periodic set Λ = A + M·Z^d is stored as a rational lattice basis M
(columns generate) plus finitely many coset representatives A reduced into
the fundamental cell.  The Fourier transform of its Dirac comb is supported
on the dual lattice M^{-T}·Z^d with atom mass Σ_a exp(-2πi⟨ξ,a⟩) at each
dual point ξ; whether such a mass vanishes is decided exactly, by the
Mann-class test on a sum of roots of unity.
"""

from __future__ import annotations

import cmath
import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, prod
from typing import Iterator, Sequence

from .errors import (
    DimensionMismatch,
    NotDualPoint,
    RadiusTooLarge,
)
from .exact import (
    Mat,
    Vec,
    as_fraction,
    ceil_frac,
    floor_frac,
    lcm_int,
    mat_det,
    mat_inv,
    mat_transpose,
    mat_vec,
    sum_of_roots_of_unity_is_zero,
)
from .geometry import Box, DifferenceBody, box

_ENUM_CAP = 5_000_000


@dataclass(frozen=True)
class Lattice:
    basis: Mat  # columns generate

    def __post_init__(self):
        if mat_det(self.basis) == 0:
            raise ValueError("lattice basis must be invertible")

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def det(self) -> Fraction:
        return mat_det(self.basis)

    def is_diagonal(self) -> bool:
        return all(
            self.basis[i][j] == 0
            for i in range(self.dim)
            for j in range(self.dim)
            if i != j
        )


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
    return Lattice(mat_transpose(mat_inv(lat.basis)))


@dataclass(frozen=True)
class PeriodicSet:
    lattice: Lattice
    reps: tuple[Vec, ...]
    contains_zero: bool = field(default=False)

    @property
    def dim(self) -> int:
        return self.lattice.dim

    def density(self) -> Fraction:
        return Fraction(len(self.reps)) / abs(self.lattice.det)

    def translate(self, t: Sequence[Fraction]) -> "PeriodicSet":
        t = tuple(as_fraction(x) for x in t)
        return periodic_set(self.lattice, [tuple(a + b for a, b in zip(r, t)) for r in self.reps])

    def normalized_to_zero(self) -> tuple["PeriodicSet", Vec]:
        """Translate so 0 ∈ Λ; returns (set, applied offset)."""
        if self.contains_zero:
            return self, tuple(Fraction(0) for _ in range(self.dim))
        off = tuple(-x for x in self.reps[0])
        return self.translate(off), off

    def rectangularized(self) -> "PeriodicSet":
        """Equal point set over a diagonal sublattice c·Z^d (reps enlarged).

        If the basis is already diagonal it is returned unchanged (signs
        normalized).  Otherwise c is the least integer clearing every
        denominator of basis⁻¹, so that c·Z^d ⊆ M·Z^d.
        """
        if self.lattice.is_diagonal():
            entries = [abs(self.lattice.basis[j][j]) for j in range(self.dim)]
            lat = diagonal_lattice(entries)
            if lat.basis == self.lattice.basis:
                return self
            return periodic_set(lat, self.reps)
        minv = mat_inv(self.lattice.basis)
        c = lcm_int([e.denominator for row in minv for e in row])
        lat = diagonal_lattice([c] * self.dim)
        cell = box([0] * self.dim, [c] * self.dim)
        points, [(_, top)], n = _lattice_points(self.lattice.basis, minv, self.reps, [cell])
        pts = [
            tuple(Fraction(x, n) for x in p)
            for p in points
            if all(0 <= x < t for x, t in zip(p, top))
        ]
        expected = len(self.reps) * Fraction(c) ** self.dim / abs(self.lattice.det)
        assert Fraction(len(pts)) == expected, "rectangularization lost points"
        return periodic_set(lat, pts)


def periodic_set(lattice: Lattice, reps: Sequence[Sequence]) -> PeriodicSet:
    """Checked constructor: reps reduced into the fundamental cell, deduplicated."""
    minv = mat_inv(lattice.basis)
    reduced = set()
    for r in reps:
        y = mat_vec(minv, tuple(as_fraction(x) for x in r))
        reduced.add(mat_vec(lattice.basis, tuple(c - floor_frac(c) for c in y)))
    reduced = sorted(reduced)
    if len(reduced) != len(reps):
        raise ValueError("coset representatives are not distinct mod the lattice")
    zero = tuple(Fraction(0) for _ in range(lattice.dim))
    return PeriodicSet(lattice, tuple(reduced), contains_zero=zero in reduced)


@dataclass(frozen=True)
class WindowSet:
    """Finite point list inside a box window; entries may be exact or float."""

    points: tuple[tuple, ...]
    window: Box

    @property
    def dim(self) -> int:
        return self.window.dim

    def float_points(self) -> list[tuple[float, ...]]:
        return [tuple(float(x) for x in p) for p in self.points]


@dataclass(frozen=True)
class DualWeight:
    xi: Vec
    weight: complex
    exact_zero: bool


def _scaled(v: Sequence[Fraction]) -> tuple[list[int], int]:
    """Integers u and a common denominator n with v = u / n."""
    n = lcm_int(x.denominator for x in v)
    return [x.numerator * (n // x.denominator) for x in v], n


def dual_phases(lam: PeriodicSet, xi: Vec) -> tuple[list[int], int]:
    """Integers p_a and n with ⟨ξ, a⟩ ≡ p_a / n (mod 1), 0 ≤ p_a < n, per rep a.

    ξ must lie on the dual lattice (checked exactly).  Everything runs in
    integers over common denominators.
    """
    d = lam.dim
    if len(xi) != d:
        raise DimensionMismatch("dual point dimension mismatch")
    u, a = _scaled(xi)
    basis, b = _scaled([e for row in lam.lattice.basis for e in row])
    # ξ is dual iff M^T ξ = B^T u / (a b) is integral, where M = B / b.
    if any(sum(basis[i * d + j] * u[i] for i in range(d)) % (a * b) for j in range(d)):
        raise NotDualPoint(f"{xi} is not in the dual lattice")
    reps, c = _scaled([x for rep in lam.reps for x in rep])
    n = a * c
    phases = [  # ⟨ξ, rep⟩ mod 1 = p / n
        sum(x * y for x, y in zip(u, reps[k:k + d])) % n for k in range(0, len(reps), d)
    ]
    return phases, n


def dual_mass(phases: Sequence[int], n: int) -> complex:
    """Float atom mass Σ_a exp(-2πi p_a / n), with no exact zero test.

    A phase p/n is rounded by int division, exactly as float(Fraction(p, n))
    would be.
    """
    return sum(cmath.exp(-2j * cmath.pi * (p / n)) for p in phases)


def weight(lam: PeriodicSet, xi: Sequence) -> DualWeight:
    """Atom mass of the dual comb at ξ: Σ_a exp(-2πi⟨ξ,a⟩).

    ξ must lie on the dual lattice (checked exactly).  The inner products
    are rational with some common denominator q, and the vanishing of
    Σ ζ_q^{p_a} is decided exactly, for every q, by Mann classes: one sum of
    m-th roots of unity per residue of p_a mod q/m, m the product of the
    primes dividing q up to the number of distinct phases, each reduced in
    ⊗_{p | m} Z[ζ_p].  Raises BudgetExceeded when the classes × m exceed
    exact._SLICE_BUDGET.
    """
    xi = tuple(as_fraction(x) for x in xi)
    phases, n = dual_phases(lam, xi)
    g = gcd(n, *phases)
    q = n // g
    exact = sum_of_roots_of_unity_is_zero([p // g for p in phases], q)
    return DualWeight(xi, dual_mass(phases, n), exact)


def _lattice_points(
    basis: Mat, inv: Mat, offsets: Sequence[Vec], boxes: Sequence[Box]
) -> tuple[Iterator[tuple[int, ...]], list[tuple[list[int], list[int]]], int]:
    """Candidate points offset + basis·k near a union of boxes, in integers.

    Every lattice point inside the closed bounding box of `boxes` is among the
    candidates: k ranges over the floor/ceil hull (±1 slack) of the bounding
    box corners mapped through inv = basis⁻¹.  Returns the candidates streamed as
    integer numerators over one common denominator n, each box's (lo, hi)
    scaled to n, and n; callers filter with their own predicate.  Raises
    RadiusTooLarge, before enumerating, when one offset has more than
    _ENUM_CAP candidates.
    """
    d = len(basis)
    flat = [e for row in basis for e in row] + [x for off in offsets for x in off]
    flat += [x for bx in boxes for x in bx.lo + bx.hi]
    scaled, n = _scaled(flat)
    cols = [scaled[j:d * d:d] for j in range(d)]
    end = d * d + d * len(offsets)
    scaled_offsets = [scaled[k:k + d] for k in range(d * d, end, d)]
    ends = scaled[end:]
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
        if prod(b - a for a, b in axes) > _ENUM_CAP:
            raise RadiusTooLarge("lattice point enumeration too large")
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
    basis = lam.lattice.basis
    points, [(lo, hi)], n = _lattice_points(basis, mat_inv(basis), lam.reps, [w])
    inside = sorted(p for p in points if all(a < x < b for a, x, b in zip(lo, p, hi)))
    return WindowSet(tuple(tuple(Fraction(x, n) for x in p) for p in inside), w)


def shifted_column_cubes(shifts: Sequence, w: Box) -> WindowSet:
    """Planar column tiling translates: column n carries points (n, m + s_{n mod len}).

    Shifts may be exact rationals or floats; floats make the set suitable only
    for the numeric (windowed) checks.
    """
    if w.dim != 2:
        raise DimensionMismatch("shifted columns live in the plane")
    parsed = [as_fraction(s) if not isinstance(s, float) else s for s in shifts]
    if not parsed:
        raise ValueError("need at least one shift")
    pts = []
    n_lo, n_hi = floor_frac(as_fraction(w.lo[0])) , ceil_frac(as_fraction(w.hi[0]))
    for n in range(n_lo, n_hi + 1):
        if not (w.lo[0] < n < w.hi[0]):
            continue
        s = parsed[n % len(parsed)]
        if isinstance(s, Fraction):
            m_lo = floor_frac(w.lo[1] - s)
            m_hi = ceil_frac(w.hi[1] - s)
            for m in range(m_lo, m_hi + 1):
                y = m + s
                if w.lo[1] < y < w.hi[1]:
                    pts.append((Fraction(n), y))
        else:
            m_lo = floor_frac(as_fraction(w.lo[1])) - 2
            m_hi = ceil_frac(as_fraction(w.hi[1])) + 2
            for m in range(m_lo, m_hi + 1):
                y = m + s
                if float(w.lo[1]) < y < float(w.hi[1]):
                    pts.append((float(n), y))
    return WindowSet(tuple(sorted(pts, key=lambda p: tuple(map(float, p)))), w)

