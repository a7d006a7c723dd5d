"""Enumerate all spectra / all tilings over a rational grid in one period.

Candidates are the grid points of one fundamental cell.  Spectra are the
k-cliques of a compatibility graph whose edges join candidates with a
difference coset inside the zero set of 1̂_Ω; an edge depends only on the
difference modulo the period, so each difference class is tested once.
Tilings are exact covers (Knuth's Algorithm X): the period torus is cut into
cells such that every grid translate of Ω is a union of cells, the cells of
Ω + 0 come from `geometry.torus_cover`, and a rep set tiles iff its
translates cover every cell exactly once.  Each solution is
verified by the exact criterion once, and that verdict (with the spectrum
certificate) is returned with it.  Searches are deliberately restricted to
one rational period and grid: that is the regime where verdicts are
certificates.  Genuinely non-periodic translate sets (irrational column
shifts and the like) are out of search scope and are handled only by the
windowed numeric checks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from enum import Enum
from fractions import Fraction
from math import prod
from typing import Sequence

from .criteria import (
    SpectrumCertificate,
    Status,
    Verdict,
    check_set_tiling,
    check_spectrum_periodic,
    check_tight_pair,
)
from .errors import BudgetExceeded, PreconditionFailed, UnstructuredZeroSet
from .exact import Vec
from .fourier import coset_in_zero_set, zero_set
from .geometry import Domain, torus_cover
from .lattice import Lattice, PeriodicSet, diagonal_lattice, periodic_set

# Candidates (grid points per period) one search may list.  The compatibility
# graph and the exact cover grow about quadratically in this count; at the
# limit a 1-D search on the unit interval takes about 10 s (spectra) or 20 s
# (tilings).
_GRID_BUDGET = 4096


class Mode(Enum):
    SPECTRA = "spectra"
    TILINGS = "tilings"


@dataclass(frozen=True)
class SearchProblem:
    domain: Domain
    period: Lattice
    grid_step: Fraction
    mode: Mode
    normalize: bool = True

    def __post_init__(self):
        if not self.period.is_diagonal():
            raise ValueError("search periods must be diagonal lattices")
        if self.grid_step <= 0:
            raise ValueError(f"grid step {self.grid_step} must be positive")
        for j in range(self.period.dim):
            c = self.period.basis[j][j]
            if c <= 0:
                raise ValueError("period entries must be positive")
            if (c / self.grid_step).denominator != 1:
                raise ValueError(f"grid step {self.grid_step} must divide period entry {c}")
        k = self.target_count()
        if k.denominator != 1 or k <= 0:
            raise ValueError(
                f"period determinant {self.period.det} over measure "
                f"{self.domain.measure()} is not a positive integer rep count"
            )
        n = prod(self.grid_shape())
        if n > _GRID_BUDGET:
            raise BudgetExceeded(
                f"{n} grid candidates per period exceed the search budget of {_GRID_BUDGET}"
            )

    def periods(self) -> Vec:
        return tuple(self.period.basis[j][j] for j in range(self.period.dim))

    def target_count(self) -> Fraction:
        # level-1 tilings and spectra both need density 1/|Ω|
        return abs(self.period.det) / self.domain.measure()

    def grid_shape(self) -> tuple[int, ...]:
        """Grid points per period along each axis."""
        return tuple(int(c / self.grid_step) for c in self.periods())

    def grid_indices(self) -> list[tuple[int, ...]]:
        """Candidates as integer multiples of the grid step, in candidate order."""
        return list(itertools.product(*map(range, self.grid_shape())))

    def candidates(self) -> list[Vec]:
        s = self.grid_step
        return [tuple(s * i for i in idx) for idx in self.grid_indices()]


@dataclass(frozen=True)
class Solution(PeriodicSet):
    """A search solution with the verdict (and, for spectra, the certificate)
    of its one exact verification."""

    verdict: Verdict | None = field(default=None, compare=False)
    certificate: SpectrumCertificate | None = field(default=None, compare=False)


@dataclass(frozen=True)
class CompatibilityGraph:
    vertices: tuple[Vec, ...]
    adjacency: tuple[frozenset[int], ...]

    def edges(self) -> list[tuple[int, int]]:
        return [
            (i, j)
            for i in range(len(self.vertices))
            for j in self.adjacency[i]
            if i < j
        ]


def _structured_zero_set(om: Domain):
    z = zero_set(om)
    if not z.structured:
        raise UnstructuredZeroSet(
            "spectra search needs a structured zero set (1D union or declared product)"
        )
    return z


def compatibility_graph(problem: SearchProblem) -> CompatibilityGraph:
    """Exact pairwise coexistence graph of a spectra search.

    Candidates u, v coexist iff the coset (u − v) + period·Z^d minus the
    origin lies in the zero set; one coset test per nonzero difference class.
    """
    if problem.mode != Mode.SPECTRA:
        raise ValueError("compatibility graphs are built for spectra searches")
    z = _structured_zero_set(problem.domain)
    periods, step, shape = problem.periods(), problem.grid_step, problem.grid_shape()
    idx = problem.grid_indices()
    ok = {
        k: coset_in_zero_set(z, tuple(step * x for x in k), periods)[0]
        for k in idx[1:]  # idx[0] is the zero class
    }
    n = len(idx)
    adj: list[set[int]] = [set() for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if ok[tuple((a - b) % m for a, b, m in zip(idx[i], idx[j], shape))]:
                adj[i].add(j)
                adj[j].add(i)
    verts = tuple(tuple(step * x for x in k) for k in idx)
    return CompatibilityGraph(verts, tuple(frozenset(s) for s in adj))


def _k_cliques(adjacency: Sequence[frozenset[int]], k: int, anchor: int | None):
    """All k-cliques in ascending-index order, optionally through one vertex."""
    n = len(adjacency)
    masks = [0] * n
    for i, nb in enumerate(adjacency):
        for j in nb:
            masks[i] |= 1 << j
    out: list[tuple[int, ...]] = []

    def extend(clique: list[int], cand: int):
        if len(clique) == k:
            out.append(tuple(clique))
            return
        if len(clique) + bin(cand).count("1") < k:
            return
        c = cand
        while c:
            v = (c & -c).bit_length() - 1
            c &= c - 1
            clique.append(v)
            above = ~((1 << (v + 1)) - 1)
            extend(clique, cand & masks[v] & above)
            clique.pop()

    if k == 0:
        return []
    if anchor is not None:
        extend([anchor], masks[anchor] & ~((1 << (anchor + 1)) - 1))
    else:
        extend([], (1 << n) - 1)
    return out


def _axis_cells(problem: SearchProblem, j: int) -> tuple[list[Fraction], int]:
    """Cuts of the period circle on axis j, and the cells per grid step.

    The cuts are every box coordinate modulo the grid step plus the step
    multiples, so a grid translate of a box edge always lands on a cut and
    shifting by one step moves every cell index by the cells per step.
    """
    s, c = problem.grid_step, problem.periods()[j]
    edges = {x % s for b in problem.domain.boxes for x in (b.lo[j], b.hi[j])}
    residues = sorted(edges | {Fraction(0)})
    return [r + s * m for m in range(int(c / s)) for r in residues] + [c], len(residues)


def _cover_masks(problem: SearchProblem) -> tuple[list[int], int] | None:
    """Per candidate, the bitmask of torus cells its translate of Ω covers,
    and the number of cells.

    None when Ω overlaps itself modulo the period (a box covers some cell
    twice, or two boxes share one): every translate does then, and no
    tiling exists.
    """
    d = problem.domain.dim
    axes = [_axis_cells(problem, j) for j in range(d)]
    cuts = [a for a, _ in axes]
    sizes = [len(a) - 1 for a in cuts]
    # Cell indices covered by each box of Ω + 0, per axis.
    spans = []
    for b in problem.domain.boxes:
        covers = torus_cover(cuts, b)
        if any(k > 1 for counts in covers for k in counts.values()):
            return None
        spans.append([list(counts) for counts in covers])
    strides = [1] * d
    for j in range(d - 2, -1, -1):
        strides[j] = strides[j + 1] * sizes[j + 1]
    masks = []
    for t in problem.grid_indices():
        mask = 0
        for per_axis in spans:
            shifted = [
                [((i + t[j] * axes[j][1]) % sizes[j]) * strides[j] for i in cells]
                for j, cells in enumerate(per_axis)
            ]
            for offsets in itertools.product(*shifted):
                bit = 1 << sum(offsets)
                if mask & bit:
                    return None
                mask |= bit
        masks.append(mask)
    return masks, strides[0] * sizes[0]


def _exact_covers(masks: list[int], cells: int, forced: list[int]) -> list[tuple[int, ...]]:
    """Every candidate set whose masks partition the cells and includes `forced`.

    Algorithm X over bitmasks, iterative: branch on the uncovered cell with
    the fewest live candidates; a chosen candidate kills every candidate it
    overlaps.
    """
    full = (1 << cells) - 1
    covering = [0] * cells  # per cell, the candidates covering it
    for v, m in enumerate(masks):
        while m:
            low = m & -m
            covering[low.bit_length() - 1] |= 1 << v
            m ^= low
    clash = []  # per candidate, the candidates it overlaps (itself included)
    for m in masks:
        c = 0
        while m:
            low = m & -m
            c |= covering[low.bit_length() - 1]
            m ^= low
        clash.append(c)

    def branches(covered: int, live: int) -> int:
        best, best_n = 0, -1
        free = full & ~covered
        while free:
            low = free & -free
            opts = covering[low.bit_length() - 1] & live
            n = opts.bit_count()
            if n <= 1:
                return opts
            if best_n < 0 or n < best_n:
                best, best_n = opts, n
            free ^= low
        return best

    chosen = list(forced)
    covered, live = 0, (1 << len(masks)) - 1
    for v in forced:
        covered |= masks[v]
        live &= ~clash[v]
    if covered == full:
        return [tuple(chosen)]
    out = []
    stack = [(covered, live, branches(covered, live))]
    while stack:
        covered, live, opts = stack[-1]
        if not opts:
            stack.pop()
            if stack:
                chosen.pop()
            continue
        low = opts & -opts
        stack[-1] = (covered, live, opts ^ low)
        v = low.bit_length() - 1
        chosen.append(v)
        covered |= masks[v]
        if covered == full:
            out.append(tuple(sorted(chosen)))
            chosen.pop()
        else:
            live &= ~clash[v]
            stack.append((covered, live, branches(covered, live)))
    return out


def _rep_sets(problem: SearchProblem) -> list[tuple[int, ...]]:
    """Candidate-index sets to verify; candidate 0 is the origin."""
    forced = [0] if problem.normalize else []
    if problem.mode == Mode.TILINGS:
        cover = _cover_masks(problem)
        return [] if cover is None else _exact_covers(*cover, forced)
    zero = tuple(Fraction(0) for _ in range(problem.domain.dim))
    if not coset_in_zero_set(_structured_zero_set(problem.domain), zero, problem.periods())[0]:
        return []
    graph = compatibility_graph(problem)
    return _k_cliques(graph.adjacency, int(problem.target_count()), 0 if forced else None)


def _run_search(problem: SearchProblem) -> list[Solution]:
    verts = problem.candidates()
    lat = diagonal_lattice(problem.periods())
    solutions = []
    for chosen in _rep_sets(problem):
        lam = periodic_set(lat, [verts[i] for i in chosen])
        cert = None
        if problem.mode == Mode.SPECTRA:
            verdict, cert = check_spectrum_periodic(problem.domain, lam)
        else:
            verdict = check_set_tiling(problem.domain, lam)
        if verdict.status == Status.HOLDS:
            solutions.append(Solution(lam.lattice, lam.reps, lam.contains_zero, verdict, cert))
    return sorted(solutions, key=lambda s: s.reps)


def search_spectra(problem: SearchProblem) -> list[Solution]:
    """All verified spectra A + period·Z^d with A on the candidate grid."""
    if problem.mode != Mode.SPECTRA:
        raise ValueError("problem mode must be SPECTRA")
    return _run_search(problem)


def search_tilings(problem: SearchProblem) -> list[Solution]:
    """All verified level-1 tilings with reps on the candidate grid."""
    if problem.mode != Mode.TILINGS:
        raise ValueError("problem mode must be TILINGS")
    return _run_search(problem)


def duality_scan(om: Domain, region: Domain, problem: SearchProblem) -> Verdict:
    """For a tight pair, the spectra of Ω and the tilings of D must coincide
    as rep-sets over the same period and grid."""
    tp = check_tight_pair(om, region)
    if tp.status != Status.HOLDS:
        raise PreconditionFailed("(Ω, D) is not a verified tight pair")
    spectra = search_spectra(replace(problem, domain=om, mode=Mode.SPECTRA))
    tilings = search_tilings(replace(problem, domain=region, mode=Mode.TILINGS))
    spec_sets = {s.reps for s in spectra}
    tile_sets = {t.reps for t in tilings}
    if spec_sets == tile_sets:
        return Verdict(
            Status.HOLDS,
            None,
            {"solutions": float(len(spec_sets))},
            (f"{len(spec_sets)} rep-sets on both sides",),
        )
    return Verdict(
        Status.FAILS,
        {
            "kind": "duality_scan_mismatch",
            "spectra_only": sorted(spec_sets - tile_sets),
            "tilings_only": sorted(tile_sets - spec_sets),
        },
    )
