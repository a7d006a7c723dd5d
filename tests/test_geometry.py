"""Exact box geometry: construction, Minkowski differences, multiplicity.

DERIVED expectations here were computed by hand (enumerating box pairs for
the Minkowski difference, slicing [0,2) into half-unit cells for the
two-interval multiplicity) and are also re-checked against the counting
oracle where randomness is involved.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import cover_count
from spectile.errors import DimensionMismatch, OverlapError
from spectile.geometry import (
    Box,
    box,
    contains,
    interval,
    minkowski_difference,
    multiplicity,
    product_domain,
    two_interval_domain,
    unit_cube,
    validate_domain,
)
from spectile.lattice import diagonal_lattice, integer_lattice, periodic_set

F = Fraction


def test_validate_single_interval():
    dom = validate_domain([interval(F(-1, 2), F(1, 2))])
    assert dom.measure() == 1


def test_validate_two_interval_domain():
    dom = validate_domain([interval(0, F(1, 2)), interval(1, F(3, 2))])
    assert dom.measure() == 1


def test_validate_overlapping_boxes_witness():
    with pytest.raises(OverlapError) as err:
        validate_domain([interval(0, 1), interval(F(1, 2), F(3, 2))])
    # witness must be an interior point of the overlap (1/2, 1)
    (w,) = err.value.point
    assert F(1, 2) < w < 1
    assert err.value.indices == (0, 1)


def test_validate_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        validate_domain([interval(0, 1), box([0, 0], [1, 1])])


def test_measure_examples():
    assert unit_cube(2).measure() == 1
    assert two_interval_domain().measure() == 1
    assert validate_domain([interval(0, 2)]).measure() == 2


def test_minkowski_unit_interval():
    q = unit_cube(1)
    diff = minkowski_difference(q, q)
    assert diff.boxes == (interval(-1, 1),)
    assert contains(diff, [0])
    assert not contains(diff, [1])


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
    assert not contains(diff, [F(1, 2)])
    assert not contains(diff, [F(-1, 2)])
    assert contains(diff, [1])
    assert contains(diff, [0])


def test_minkowski_disjoint_translates():
    a = validate_domain([interval(0, 1)])
    b = validate_domain([interval(2, 3)])
    assert minkowski_difference(a, b).boxes == (interval(-3, -1),)


def test_minkowski_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        minkowski_difference(unit_cube(1), unit_cube(2))


def test_difference_body_measure_at_least_domain_measure():
    for dom in (unit_cube(1), unit_cube(2), two_interval_domain()):
        diff = minkowski_difference(dom, dom)
        assert diff.measure() >= dom.measure()
    om = two_interval_domain()
    # union collapses the duplicated (-1/2,1/2) box
    assert minkowski_difference(om, om).measure() == 3


@given(st.integers(-6, 6), st.integers(1, 4))
def test_difference_body_negation_symmetry(num, den):
    om = two_interval_domain()
    diff = minkowski_difference(om, om)
    p = F(num, den)
    assert contains(diff, [p]) == contains(diff, [-p])


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
    assert m.defect_cells


def test_multiplicity_average_level_identity():
    cases = [
        (unit_cube(1), periodic_set(diagonal_lattice([F(1, 2)]), [[0]])),
        (two_interval_domain(), periodic_set(diagonal_lattice([2]), [[0], [F(1, 3)]])),
        (unit_cube(2), periodic_set(diagonal_lattice([2, 1]), [[0, 0], [1, F(1, 2)]])),
    ]
    for dom, lam in cases:
        m = multiplicity(dom, lam)
        assert m.average_level() == lam.density() * dom.measure()


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
    assert sq.product_factors is not None


def test_unit_cube_declared_product():
    q3 = unit_cube(3)
    assert q3.dim == 3
    assert q3.product_factors is not None
    assert q3.measure() == 1


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


def test_multiplicity_translate_cap():
    from spectile.errors import UnboundedTranslateCount

    huge = validate_domain([interval(0, 300_000)])
    with pytest.raises(UnboundedTranslateCount):
        multiplicity(huge, periodic_set(integer_lattice(1), [[0]]))
