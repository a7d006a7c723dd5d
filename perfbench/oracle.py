"""Independent answers for the search ops, and solution sets modulo translation.

The unit cube [-1/2, 1/2]^d translated by A + p·Z^d, with A on the grid
(1/2)·Z^d, tiles space exactly when the doubled picture tiles: on the torus
(Z/n)^d with n = 2p every translate is a 2×…×2 block of grid cells, and the
translates must cover every cell once.  That is an exact-cover problem small
enough to solve by plain backtracking (first uncovered cell, every block that
can cover it).  By the theorem of Lagarias, Reeds and Wang (and Iosevich and
Pedersen) the spectra of the cube are exactly its tiling sets, so the same
enumeration answers `search spectra` on the cube as well.

Solutions are compared as sets of classes modulo translation, so that a
change in deduplication or canonical form is not a failure while a missing or
extra spectrum is.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

Point = tuple[int, ...]
Class = tuple[Point, ...]


def canonical(points, n: int) -> Class:
    """Smallest sorted form of a point set on (Z/n)^d over translations by its own points."""
    pts = [tuple(c % n for c in p) for p in points]
    return min(
        tuple(sorted(tuple((c - s) % n for c, s in zip(p, t)) for p in pts)) for t in pts
    )


def classes(solutions, n: int) -> frozenset[Class]:
    return frozenset(canonical(s, n) for s in solutions if s)


def grid_points(reps, step: Fraction, n: int) -> list[Point]:
    """Rational reps (strings as in the reports) as integer grid coordinates mod n."""
    out = []
    for rep in reps:
        coords = []
        for c in rep:
            g = Fraction(c) / step
            if g.denominator != 1:
                raise ValueError(f"rep {rep} is off the grid of step {step}")
            coords.append(int(g) % n)
        out.append(tuple(coords))
    return out


def cube_block_tilings(d: int, n: int) -> list[list[Point]]:
    """Every tiling of the torus (Z/n)^d by 2^d-cell blocks, as translate positions.

    A block whose lowest cell is c stands for the cube translated by
    a = (c + 1)/2, i.e. grid coordinate c + 1 on the half-integer grid.
    """
    cells = list(itertools.product(range(n), repeat=d))
    offsets = list(itertools.product((0, 1), repeat=d))
    covered: set[Point] = set()
    chosen: list[Point] = []
    out: list[list[Point]] = []

    def block(c: Point) -> list[Point]:
        return [tuple((x + e) % n for x, e in zip(c, off)) for off in offsets]

    def extend(start: int):
        i = start
        while i < len(cells) and cells[i] in covered:
            i += 1
        if i == len(cells):
            out.append([tuple((x + 1) % n for x in c) for c in chosen])
            return
        u = cells[i]
        for off in offsets:
            c = tuple((x - e) % n for x, e in zip(u, off))
            blk = block(c)
            if any(b in covered for b in blk):
                continue
            covered.update(blk)
            chosen.append(c)
            extend(i + 1)
            chosen.pop()
            covered.difference_update(blk)

    extend(0)
    return out
