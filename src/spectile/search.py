"""Enumerate all spectra / all tilings over a rational grid in one period.

A `SearchProblem` is the grid alone: domain, period, step, and whether the
origin is anchored.  The mode is the entry point, `search_spectra` or
`search_tilings`; each lists its rep sets and hands them, with its exact
check, to one runner that keeps the sets that hold.

Candidates are the grid points of one fundamental cell; they form the finite
group G = (step·Z / period·Z)^d, and every relation a search needs depends
only on differences in G.  Spectra are the k-cliques of the Cayley graph
Cay(G, S): S, the row of 0, holds the difference classes whose coset lies in
the zero set of 1̂_Ω (one coset test per class), and the row of v is S
translated by v.  Tilings are exact covers (Knuth's Algorithm X): the period
torus is cut into cells such that every grid translate of Ω is a union of
cells, the cells of Ω + 0 come from `geometry.torus_cover`, and every other
cover mask is a translate of that one; a rep set tiles iff its translates
cover every cell exactly once.  Each rep set listed is spent on the
search_solutions budget (`errors.BUDGETS`), so too many are refused before
any is verified.  Each solution is verified by the exact
criterion once, and that verdict (with the spectrum certificate) is returned
with it.  The spectra share one dual table: every solution has the period
lattice, so the dual points inside Ω − Ω are enumerated once, when there is
a rep set to verify, and each check only weighs them.  Searches are
deliberately restricted to one rational period and grid: that is the regime
where verdicts are certificates.  Genuinely non-periodic translate sets
(irrational column shifts and the like) are out of search scope and are
handled only by the windowed numeric checks.
"""

from __future__ import annotations

import itertools
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
from .errors import PreconditionFailed, spend
from .exact import Vec
from .fourier import coset_in_zero_set, zero_set
from .geometry import Domain, minkowski_difference, torus_cover
from .lattice import Lattice, PeriodicSet, enumerate_dual_in
from .records import field, record


@record
class SearchProblem:
    domain: Domain
    period: Lattice
    grid_step: Fraction
    normalize: bool = True

    def __post_init__(self):
        if self.period.periods is None:
            raise ValueError("search periods must be diagonal lattices")
        if self.grid_step <= 0:
            raise ValueError(f"grid step {self.grid_step} must be positive")
        for c in self.period.periods:
            if c <= 0:
                raise ValueError("period entries must be positive")
            if (c / self.grid_step).denominator != 1:
                raise ValueError(f"grid step {self.grid_step} must divide period entry {c}")
        k = self.target_count()
        if k.denominator != 1 or k <= 0:
            raise ValueError(
                f"period determinant {self.period.det} over measure "
                f"{self.domain.measure} is not a positive integer rep count"
            )
        spend("search_candidates", prod(self.grid_shape()))

    def target_count(self) -> Fraction:
        # level-1 tilings and spectra both need density 1/|Ω|
        return abs(self.period.det) / self.domain.measure

    def grid_shape(self) -> tuple[int, ...]:
        """Grid points per period along each axis."""
        return tuple(int(c / self.grid_step) for c in self.period.periods)

    def grid_indices(self) -> list[tuple[int, ...]]:
        """Candidates as integer multiples of the grid step, in candidate order."""
        return list(itertools.product(*map(range, self.grid_shape())))

    def candidates(self) -> list[Vec]:
        s = self.grid_step
        return [tuple(s * i for i in idx) for idx in self.grid_indices()]


@record
class Solution(PeriodicSet):
    """A search solution with the verdict (and, for spectra, the certificate)
    of its one exact verification."""

    verdict: Verdict | None = field(default=None, compare=False)
    certificate: SpectrumCertificate | None = field(default=None, compare=False)


def _shift(mask: int, v: Sequence[int], shape: Sequence[int]) -> int:
    """Translate a row-major bitmask on the torus ∏ Z/shape_j by v.

    Bit t moves to bit t + v.  Axis j rolls every block of shape_j·stride_j
    bits by v_j·stride_j on its own, so in d ≥ 2 this is no single rotation
    of the whole mask.
    """
    total = block = prod(shape)
    for n, k in zip(shape, v):
        stride = block // n
        k = k % n * stride
        if k:
            ones = ((1 << total) - 1) // ((1 << block) - 1)  # bit 0 of every block
            low = ones * ((1 << (block - k)) - 1)  # the bits that do not wrap
            mask = (mask & low) << k | (mask & ~low) >> (block - k)
        block = stride
    return mask


def _spectra_row(problem: SearchProblem) -> int | None:
    """Candidates that may coexist with candidate 0, as a bitmask.

    Bit k is set when the coset (step·k) + period·Z^d minus the origin lies
    in the zero set; one coset test per difference class.  u and v coexist
    iff bit u − v is set, so the row of v is this mask translated by v.
    None when the period lattice itself leaves the zero set (class 0), so
    no rep set is a spectrum.
    """
    z = zero_set(problem.domain)
    step, periods = problem.grid_step, problem.period.periods
    row = 0
    for i, k in enumerate(problem.grid_indices()):
        if coset_in_zero_set(z, tuple(step * x for x in k), periods)[0]:
            row |= 1 << i
        elif i == 0:
            return None
    return row & ~1


def _collect(out: list, rep_set: tuple[int, ...]) -> None:
    out.append(rep_set)
    spend("search_solutions", len(out))


def _k_cliques(masks: Sequence[int], k: int, anchor: int | None) -> list[tuple[int, ...]]:
    """All k-cliques in ascending-index order, optionally through one vertex;
    masks[v] holds the neighbours of v.

    Depth first and iterative: todo[-1] holds the candidates not yet tried
    that extend the clique, all above its last vertex and adjacent to each
    of its vertices; a level whose clique cannot reach k vertices is not
    opened.
    """
    if k == 0:
        return []
    if anchor is None:
        clique, cand = [], (1 << len(masks)) - 1
    else:
        clique, cand = [anchor], masks[anchor] & ~((1 << (anchor + 1)) - 1)
    out: list[tuple[int, ...]] = []
    if len(clique) == k:
        _collect(out, tuple(clique))
        return out
    todo = [cand] if len(clique) + cand.bit_count() >= k else []
    while todo:
        c = todo[-1]
        if not c:
            todo.pop()
            if todo:
                clique.pop()
            continue
        v = (c & -c).bit_length() - 1
        todo[-1] = c = c & (c - 1)
        clique.append(v)
        cand = c & masks[v]
        if len(clique) == k:
            _collect(out, tuple(clique))
        elif len(clique) + cand.bit_count() >= k:
            todo.append(cand)
            continue
        clique.pop()
    return out


def _axis_cells(problem: SearchProblem, j: int) -> tuple[list[Fraction], int]:
    """Cuts of the period circle on axis j, and the cells per grid step.

    The cuts are every box coordinate modulo the grid step plus the step
    multiples, so a grid translate of a box edge always lands on a cut and
    shifting by one step moves every cell index by the cells per step.
    """
    s, c = problem.grid_step, problem.period.periods[j]
    edges = {x % s for b in problem.domain.boxes for x in (b.lo[j], b.hi[j])}
    residues = sorted(edges | {Fraction(0)})
    return [r + s * m for m in range(int(c / s)) for r in residues] + [c], len(residues)


def _cover_masks(problem: SearchProblem) -> tuple[list[int], list[int], list[int]] | None:
    """The rows of a tilings search: per candidate, the torus cells its
    translate of Ω covers; per cell, the candidates covering it; per
    candidate, the candidates it overlaps (itself included).

    Only Ω + 0 is cut into cells (`geometry.torus_cover`).  A grid step along
    axis j moves every cell index by the cells per step, so each row is a
    translate of one row built at 0.  None when Ω overlaps itself modulo the
    period (a box covers some cell twice, or two boxes share one): every
    translate does then, and no tiling exists.
    """
    axes = [_axis_cells(problem, j) for j in range(problem.domain.dim)]
    cuts, per_step = [a for a, _ in axes], [r for _, r in axes]
    shape, grid = problem.grid_shape(), problem.grid_indices()
    cells0: set[tuple[int, ...]] = set()  # the cells of Ω + 0
    for b in problem.domain.boxes:
        covers = torus_cover(cuts, b)
        if any(k > 1 for counts in covers for k in counts.values()):
            return None
        box_cells = set(itertools.product(*covers))
        if cells0 & box_cells:
            return None
        cells0 |= box_cells
    # Cell q·r + ρ (q the step block, ρ the cell within it) is covered by the
    # candidates covering cell ρ of block 0, translated by q.
    first: dict[tuple[int, ...], int] = {}
    for cell in cells0:
        q, rho = zip(*map(divmod, cell, per_step))
        first[rho] = first.get(rho, 0) | _shift(1, [-x for x in q], shape)
    mask, clash, covering = 0, 0, []
    sizes = [len(a) - 1 for a in cuts]
    for i, cell in enumerate(itertools.product(*map(range, sizes))):
        q, rho = zip(*map(divmod, cell, per_step))
        covering.append(_shift(first.get(rho, 0), q, shape))
        if cell in cells0:
            mask |= 1 << i
            clash |= covering[-1]
    masks = [_shift(mask, [x * r for x, r in zip(t, per_step)], sizes) for t in grid]
    return masks, covering, [_shift(clash, t, shape) for t in grid]


def _exact_covers(
    masks: list[int], covering: list[int], clash: list[int], forced: list[int]
) -> list[tuple[int, ...]]:
    """Every candidate set whose masks partition the cells and includes `forced`.

    Algorithm X over bitmasks, iterative: branch on the uncovered cell with
    the fewest live candidates; a chosen candidate kills every candidate it
    overlaps.
    """
    full = (1 << len(covering)) - 1

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
            _collect(out, tuple(sorted(chosen)))
            chosen.pop()
        else:
            live &= ~clash[v]
            stack.append((covered, live, branches(covered, live)))
    return out


def _verified(problem: SearchProblem, rep_sets, verify) -> list[Solution]:
    """The rep sets (candidate-index sets) that `verify` finds to hold, as solutions."""
    verts, lat = problem.candidates(), problem.period
    solutions = []
    for chosen in rep_sets:
        # candidates lie in the fundamental cell in sorted order, candidate 0
        # the origin, and a rep set lists them by ascending index: its reps
        # are reduced, distinct and sorted as they stand
        lam = PeriodicSet(lat, tuple(verts[i] for i in chosen), 0 in chosen)
        verdict, cert = verify(lam)
        if verdict.status == Status.HOLDS:
            solutions.append(Solution(lam.lattice, lam.reps, lam.contains_zero, verdict, cert))
    return sorted(solutions, key=lambda s: s.reps)


def search_spectra(problem: SearchProblem) -> list[Solution]:
    """All verified spectra A + period·Z^d with A on the candidate grid."""
    row = _spectra_row(problem)
    if row is None:
        return []
    shape = problem.grid_shape()
    masks = [_shift(row, t, shape) for t in problem.grid_indices()]
    cliques = _k_cliques(masks, int(problem.target_count()), 0 if problem.normalize else None)
    if not cliques:
        return []
    om = problem.domain
    # the dual points in Ω − Ω: every solution has the period lattice, so one list per search
    duals = enumerate_dual_in(PeriodicSet(problem.period, ()), minkowski_difference(om, om))
    return _verified(problem, cliques, lambda lam: check_spectrum_periodic(om, lam, duals))


def search_tilings(problem: SearchProblem) -> list[Solution]:
    """All verified level-1 tilings with reps on the candidate grid."""
    cover = _cover_masks(problem)
    covers = [] if cover is None else _exact_covers(*cover, [0] if problem.normalize else [])
    return _verified(problem, covers, lambda lam: (check_set_tiling(problem.domain, lam), None))


def duality_scan(om: Domain, region: Domain, problem: SearchProblem) -> Verdict:
    """For a tight pair, the spectra of Ω and the tilings of D must coincide
    as rep-sets over the same period and grid."""
    tp = check_tight_pair(om, region)
    if tp.status != Status.HOLDS:
        raise PreconditionFailed("(Ω, D) is not a verified tight pair")
    grid = (problem.period, problem.grid_step, problem.normalize)
    spectra = search_spectra(SearchProblem(om, *grid))
    tilings = search_tilings(SearchProblem(region, *grid))
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
