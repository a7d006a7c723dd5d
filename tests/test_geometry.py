"""Exact box geometry: construction, Minkowski differences, multiplicity.

DERIVED expectations here were computed by hand (enumerating box pairs for
the Minkowski difference, slicing [0,2) into half-unit cells for the
two-interval multiplicity) and are also re-checked against the counting
oracle where randomness is involved.
"""

import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import cover_count, first_overlap_reference, multiplicity_reference
from spectile.errors import BudgetExceeded, DimensionMismatch, OverlapError
from spectile.geometry import (
    Box,
    box,
    interval,
    minkowski_difference,
    multiplicity,
    product_domain,
    two_interval_domain,
    unit_cube,
    validate_domain,
)
from spectile.lattice import Lattice, diagonal_lattice, integer_lattice, periodic_set

F = Fraction


def test_validate_single_interval():
    dom = validate_domain([interval(F(-1, 2), F(1, 2))])
    assert dom.measure == 1


def test_validate_two_interval_domain():
    dom = validate_domain([interval(0, F(1, 2)), interval(1, F(3, 2))])
    assert dom.measure == 1


def test_validate_overlapping_boxes_witness():
    with pytest.raises(OverlapError) as err:
        validate_domain([interval(0, 1), interval(F(1, 2), F(3, 2))])
    # witness must be an interior point of the overlap (1/2, 1)
    (w,) = err.value.point
    assert F(1, 2) < w < 1
    assert err.value.indices == (0, 1)


def test_validate_domain_matches_the_all_pairs_reference():
    # the sweep along axis 0 names the same pair and point as testing every
    # pair in order; ties in lo_0 and boxes nested on axis 0 are common here
    rng = random.Random(21)
    disjoint = 0
    for _ in range(400):
        d = rng.randint(1, 3)
        boxes = []
        for _ in range(rng.randint(1, 12)):
            lo = [F(rng.randint(-6, 6), 2) for _ in range(d)]
            boxes.append(box(lo, [x + F(rng.randint(1, 4), 2) for x in lo]))
        expected = first_overlap_reference(boxes)
        if expected is None:
            disjoint += 1
            assert validate_domain(boxes).boxes == tuple(boxes)
            continue
        with pytest.raises(OverlapError) as err:
            validate_domain(boxes)
        assert (*err.value.indices, err.value.point) == expected
    assert 40 < disjoint < 360


def test_validate_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        validate_domain([interval(0, 1), box([0, 0], [1, 1])])


def test_measure_examples():
    assert unit_cube(2).measure == 1
    assert two_interval_domain().measure == 1
    assert validate_domain([interval(0, 2)]).measure == 2


def test_minkowski_unit_interval():
    q = unit_cube(1)
    diff = minkowski_difference(q, q)
    assert diff.boxes == (interval(-1, 1),)
    assert any(b.contains([0]) for b in diff.boxes)
    assert not any(b.contains([1]) for b in diff.boxes)


def test_minkowski_two_interval():
    # Four box pairs by hand:
    # (0,1/2)-(0,1/2)=(-1/2,1/2); (0,1/2)-(1,3/2)=(-3/2,-1/2);
    # (1,3/2)-(0,1/2)=(1/2,3/2);  (1,3/2)-(1,3/2)=(-1/2,1/2)
    om = two_interval_domain()
    diff = minkowski_difference(om, om)
    spans = sorted((b.lo[0], b.hi[0]) for b in diff.boxes)
    assert spans == [
        (F(-3, 2), F(-1, 2)),
        (F(-1, 2), F(1, 2)),
        (F(-1, 2), F(1, 2)),
        (F(1, 2), F(3, 2)),
    ]
    # ±1/2 are endpoints of adjacent open boxes, hence not members.
    assert not any(b.contains([F(1, 2)]) for b in diff.boxes)
    assert not any(b.contains([F(-1, 2)]) for b in diff.boxes)
    assert any(b.contains([1]) for b in diff.boxes)
    assert any(b.contains([0]) for b in diff.boxes)


def test_minkowski_disjoint_translates():
    a = validate_domain([interval(0, 1)])
    b = validate_domain([interval(2, 3)])
    assert minkowski_difference(a, b).boxes == (interval(-3, -1),)


def test_minkowski_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        minkowski_difference(unit_cube(1), unit_cube(2))


@given(st.integers(-6, 6), st.integers(1, 4))
def test_difference_body_negation_symmetry(num, den):
    om = two_interval_domain()
    diff = minkowski_difference(om, om)
    p = F(num, den)
    assert any(b.contains([p]) for b in diff.boxes) == any(b.contains([-p]) for b in diff.boxes)


def test_multiplicity_cube_lattice():
    for d in (1, 2):
        m = multiplicity(unit_cube(d), periodic_set(integer_lattice(d), [[0] * d]))
        assert m.level_min == m.level_max == 1
        assert m.is_tiling()


def test_multiplicity_double_cover():
    lam = periodic_set(diagonal_lattice([F(1, 2)]), [[0]])
    m = multiplicity(unit_cube(1), lam)
    assert m.level_min == m.level_max == 2
    assert not m.is_tiling()


def test_multiplicity_two_interval_half_shift():
    lam = periodic_set(diagonal_lattice([2]), [[0], [F(1, 2)]])
    m = multiplicity(two_interval_domain(), lam)
    assert m.level_min == m.level_max == 1


def test_multiplicity_two_interval_three_half_shift():
    lam = periodic_set(diagonal_lattice([2]), [[0], [F(3, 2)]])
    assert multiplicity(two_interval_domain(), lam).is_tiling()


def test_multiplicity_gap_witness():
    lam = periodic_set(diagonal_lattice([2]), [[0], [F(1, 3)]])
    m = multiplicity(unit_cube(1), lam)
    assert m.level_min == 0  # gap
    assert m.level_max == 2  # and overlap
    assert m.first_defect() is not None


def test_multiplicity_average_level_identity():
    cases = [
        (unit_cube(1), periodic_set(diagonal_lattice([F(1, 2)]), [[0]])),
        (two_interval_domain(), periodic_set(diagonal_lattice([2]), [[0], [F(1, 3)]])),
        (unit_cube(2), periodic_set(diagonal_lattice([2, 1]), [[0, 0], [1, F(1, 2)]])),
    ]
    for dom, lam in cases:
        m = multiplicity(dom, lam)
        total = sum(b.volume() * lv for b, lv in m.cells)
        assert total / sum(b.volume() for b, _ in m.cells) == lam.density() * dom.measure


def test_multiplicity_translation_invariance():
    dom = two_interval_domain()
    lam = periodic_set(diagonal_lattice([2]), [[0], [F(1, 2)]])
    base = multiplicity(dom, lam)
    for t in (F(1, 3), F(-5, 4), F(7, 2)):
        shifted_dom = multiplicity(dom.translate([t]), lam)
        shifted_lam = multiplicity(dom, lam.translate([t]))
        assert (shifted_dom.level_min, shifted_dom.level_max) == (
            base.level_min,
            base.level_max,
        )
        assert (shifted_lam.level_min, shifted_lam.level_max) == (
            base.level_min,
            base.level_max,
        )


@settings(max_examples=30, deadline=None)
@given(
    st.integers(0, 7),
    st.integers(0, 7),
    st.sampled_from([F(1, 2), F(1, 3), F(2, 3), F(5, 4)]),
)
def test_multiplicity_against_counting_oracle(i, j, step):
    """Exact cell levels must equal direct translate counts at sample points."""
    from spectile.lattice import window

    dom = two_interval_domain()
    lam = periodic_set(diagonal_lattice([2]), [[0], [step]])
    m = multiplicity(dom, lam)
    x = (F(2) * (8 * i + j) + 1) / 128  # sample spread over [0, 2)
    x = x % 2
    cell_level = None
    for cell, level in m.cells:
        if cell.contains((x,)):
            cell_level = level
            break
    if cell_level is None:
        return  # x landed on a cell boundary; measure-zero set, skip
    win = window(lam, box([-8], [12]))
    assert cover_count(dom, win.points, (x,)) == cell_level


def test_product_domain_boxes():
    leg = validate_domain([interval(0, 1)])
    sq = product_domain([leg, leg])
    assert len(sq.boxes) == 1
    assert sq.boxes[0] == box([0, 0], [1, 1])
    assert sq.factors() == (leg, leg)


def test_unit_cube_declared_product():
    q3 = unit_cube(3)
    assert q3.dim == 3
    assert q3.factors() == (unit_cube(1),) * 3
    assert q3.measure == 1


def test_factors_are_read_off_the_boxes():
    assert validate_domain([box([0, F(1, 2)], [1, 3])]).factors() == (
        validate_domain([interval(0, 1)]),
        validate_domain([interval(F(1, 2), 3)]),
    )
    # a 1D union is its own single factor
    pair = two_interval_domain()
    assert pair.factors() == (pair,)
    # the product pair × pair written as plain boxes, in any order
    pp = product_domain([pair, pair])
    assert validate_domain(reversed(pp.boxes)).factors() == (pair, pair)
    # neither the staircase nor two squares on a diagonal is a product of intervals
    staircase = validate_domain([box([0, 0], [1, F(1, 2)]), box([F(1, 2), F(1, 2)], [F(3, 2), 1])])
    nonprod = validate_domain([box([0, 0], [1, 1]), box([1, 1], [2, F(3, 2)])])
    assert staircase.factors() is None
    assert nonprod.factors() is None


def test_box_rejects_degenerate():
    with pytest.raises(ValueError):
        Box((F(0),), (F(0),))


def test_multiplicity_monte_carlo_thousand_points():
    """1000 uniform sample points: exact cell level == direct translate count."""
    import random

    from spectile.lattice import window as lam_window

    rng = random.Random(99)
    dom = two_interval_domain()
    lam = periodic_set(diagonal_lattice([2]), [[0], [F(1, 2)]])
    m = multiplicity(dom, lam)
    win = lam_window(lam, box([-8], [12]))
    checked = 0
    for _ in range(1000):
        x = F(rng.randrange(0, 2 * 512), 512) + F(1, 1024)  # off the cell grid
        level = None
        for cell, lv in m.cells:
            if cell.contains((x,)):
                level = lv
                break
        if level is None:
            continue  # boundary point, measure zero
        checked += 1
        assert cover_count(dom, win.points, (x,)) == level
    assert checked >= 990


def test_multiplicity_wide_interval_is_exact_and_fast():
    # (0, 300000) + Z: one torus cell, covered 300000 times, added
    # arithmetically rather than translate by translate
    t0 = time.perf_counter()
    m = multiplicity(validate_domain([interval(0, 300_000)]), periodic_set(integer_lattice(1), [[0]]))
    assert time.perf_counter() - t0 < 1.0
    assert m.cells == ((interval(0, 1), 300_000),)
    assert m.level_min == m.level_max == 300_000
    assert m.first_defect() == m.cells[0]


def test_multiplicity_dense_remainder_arcs_are_fast():
    # (0, 3/2) + Z + {k/2003 : k < 1000}: 2 000 torus cells, and each of the
    # 1 000 translates adds one on a remainder arc of about 1 000 of them
    lam = periodic_set(integer_lattice(1), [[F(k, 2003)] for k in range(1000)])
    t0 = time.perf_counter()
    m = multiplicity(validate_domain([interval(0, F(3, 2))]), lam)
    assert time.perf_counter() - t0 < 2.5
    assert len(m.levels) == 2000
    assert (m.level_min, m.level_max) == (1000, 2000)
    assert sum(b.volume() * lv for b, lv in m.cells) == 1500  # |Ω| · dens Λ on the unit cell


def test_multiplicity_cell_budget_refused_before_any_cell(monkeypatch):
    import spectile.geometry

    def no_work(*args):
        raise AssertionError("covers were computed before the budget check")

    dom = validate_domain([box([0, 0], [1, 1])])
    lam = periodic_set(diagonal_lattice([2, 2]), [[0, 0], [F(1, 3), F(1, 5)]])
    # 2 translates × 4² cells: refused before any cover is computed
    monkeypatch.setattr(spectile.geometry, "_CELL_BUDGET", 2 * 16 - 1)
    monkeypatch.setattr(spectile.geometry, "torus_cover", no_work)
    with pytest.raises(BudgetExceeded):
        multiplicity(dom, lam)


def _random_domain(rng, d):
    """1-3 disjoint boxes on the 1/4 grid, some wider than the period."""
    while True:
        boxes = []
        for _ in range(rng.randint(1, 3)):
            lo = [F(rng.randint(-8, 8), 4) for _ in range(d)]
            boxes.append(box(lo, [x + F(rng.randint(1, 12 - 3 * d), 4) for x in lo]))
        try:
            return validate_domain(boxes)
        except OverlapError:
            continue


def _random_periodic(rng, d):
    """A diagonal lattice, or in 2-D a skew one, with 1-3 reps on the 1/4 grid."""
    if d == 2 and rng.random() < 0.4:
        a, b = rng.choice([1, 2]), F(rng.randint(1, 2), 2)
        basis = [[a, b], [0, 1]] if rng.random() < 0.5 else [[a, 0], [b, 1]]
        lat = Lattice(tuple(tuple(F(x) for x in row) for row in basis))
    else:
        lat = diagonal_lattice([F(rng.randint(2, 8), 4) for _ in range(d)])
    while True:
        reps = [[F(rng.randint(-8, 8), 4) for _ in range(d)] for _ in range(rng.randint(1, 3))]
        try:
            return periodic_set(lat, reps)
        except ValueError:
            continue


def test_multiplicity_equals_midpoint_oracle():
    """Torus covers reproduce the whole midpoint × translate Multiplicity:
    every cut and every level, on 1 000 seeded cases."""
    rng = random.Random(20261018)
    wide = 0
    for _ in range(1000):
        d = rng.randint(1, 3)
        dom, lam = _random_domain(rng, d), _random_periodic(rng, d)
        rect = lam.rectangularized()
        c = [rect.lattice.basis[j][j] for j in range(d)]
        wide += any(w > cj for b in dom.boxes for w, cj in zip(b.widths, c))
        assert multiplicity(dom, lam) == multiplicity_reference(dom, lam), (dom, lam)
    assert wide >= 200
