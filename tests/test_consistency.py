"""Cross-pipeline consistency fuzz.

For a periodic rational Λ and unit-measure Ω, completeness upgrades
orthogonality exactly when the density is 1 (a packing with mean level 1 is
a tiling), so two nearly disjoint exact pipelines must agree instance by
instance:

  * dual route:   density check + dual-lattice atoms + exact weights
  * direct route: difference-coset membership in the structured zero set

and likewise for indicators:

  * exact multiplicity slicing  vs  pairwise translate disjointness + density.

Any disagreement is an implementation bug, so these run over hundreds of
random instances.
"""

from fractions import Fraction

import numpy as np

from spectile.criteria import (
    Status,
    check_orthogonality,
    check_set_tiling,
    check_spectrum_periodic,
)
from spectile.geometry import interval, multiplicity, validate_domain
from spectile.lattice import diagonal_lattice, periodic_set

F = Fraction


def random_domain(rng, q_max=6, max_boxes=3):
    q = int(rng.integers(1, q_max + 1))
    nb = min(int(rng.integers(1, max_boxes + 1)), q)
    cuts = (
        sorted(rng.choice(np.arange(1, q), size=nb - 1, replace=False))
        if nb > 1
        else []
    )
    widths = np.diff([0, *cuts, q])
    boxes = []
    lo = F(int(rng.integers(0, q + 1)), q)
    for w in widths:
        hi = lo + F(int(w), q)
        boxes.append(interval(lo, hi))
        lo = hi + F(int(rng.integers(0, q + 1)), q)
    return validate_domain(boxes)


def random_pointset(rng, c_max=5, den=4):
    c = int(rng.integers(1, c_max + 1))
    k = int(rng.integers(1, c + 2))  # density may exceed 1: both routes must agree
    grid = [F(n, den) for n in range(den * c)]
    idx = rng.choice(len(grid), size=min(k, len(grid)), replace=False)
    return periodic_set(diagonal_lattice([c]), [[grid[i]] for i in idx])


def test_spectrum_equals_orthogonality_plus_unit_density():
    rng = np.random.default_rng(123)
    checked = 0
    for _ in range(300):
        dom = random_domain(rng)
        if dom.measure != 1:
            continue
        lam = random_pointset(rng)
        sv, _ = check_spectrum_periodic(dom, lam)
        ov = check_orthogonality(dom, lam)
        dual_route = sv.status == Status.HOLDS
        direct_route = ov.status == Status.HOLDS and lam.density() == 1
        assert dual_route == direct_route, (
            f"pipelines disagree on {[(str(b.lo[0]), str(b.hi[0])) for b in dom.boxes]} "
            f"with reps {lam.reps} mod {lam.lattice.basis}"
        )
        checked += 1
    assert checked >= 200


def test_tiling_equals_disjointness_plus_unit_covering_density():
    rng = np.random.default_rng(321)
    checked = 0
    for _ in range(300):
        dom = random_domain(rng)
        lam = random_pointset(rng)
        tv = check_set_tiling(dom, lam)
        mult = multiplicity(dom, lam)
        direct = mult.level_max <= 1 and lam.density() * dom.measure == 1
        assert (tv.status == Status.HOLDS) == direct
        checked += 1
    assert checked >= 250


def test_spectrum_and_tiling_verdicts_are_deterministic():
    rng = np.random.default_rng(55)
    for _ in range(20):
        dom = random_domain(rng)
        if dom.measure != 1:
            continue
        lam = random_pointset(rng)
        a, _ = check_spectrum_periodic(dom, lam)
        b, _ = check_spectrum_periodic(dom, lam)
        assert a == b


def test_spectrum_routes_agree_in_2d():
    from spectile.geometry import product_domain, unit_cube

    rng = np.random.default_rng(777)
    leg = unit_cube(1)
    checked = 0
    for _ in range(120):
        dom = product_domain([leg, random_domain(rng, q_max=4, max_boxes=2)])
        if dom.measure != 1:
            continue
        c1, c2 = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        k = int(rng.integers(1, c1 * c2 + 1))
        grid = [
            (F(a, 2), F(b, 2)) for a in range(2 * c1) for b in range(2 * c2)
        ]
        idx = rng.choice(len(grid), size=k, replace=False)
        lam = periodic_set(diagonal_lattice([c1, c2]), [list(grid[i]) for i in idx])
        sv, _ = check_spectrum_periodic(dom, lam)
        ov = check_orthogonality(dom, lam)
        assert (sv.status == Status.HOLDS) == (
            ov.status == Status.HOLDS and lam.density() == 1
        )
        checked += 1
    assert checked >= 60


def test_keller_against_direct_window_oracle():
    from spectile.criteria import check_keller
    from spectile.geometry import box, unit_cube
    from spectile.lattice import window

    rng = np.random.default_rng(31337)
    q2 = unit_cube(2)
    for _ in range(15):
        p = int(rng.integers(2, 4))
        shifts = [F(0)] + [F(int(rng.integers(0, 6)), 6) for _ in range(p - 1)]
        lam = periodic_set(diagonal_lattice([p, 1]), [[j, shifts[j]] for j in range(p)])
        v = check_keller(q2, lam, q2)
        # direct oracle: every windowed nonzero point has a nonzero integer coord
        pts = window(lam, box([-7, -7], [7, 7])).points
        direct = all(
            any(c != 0 and c.denominator == 1 for c in pt)
            for pt in pts
            if any(c != 0 for c in pt)
        )
        assert (v.status == Status.HOLDS) == direct
        assert direct  # cube column tilings always satisfy the condition
