"""Criteria checks: orthogonality, spectra, tilings, packing regions, harnesses."""

import json
import math
import time
from fractions import Fraction
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import mesh, poisson_field_reference

from spectile.criteria import (
    Status,
    TileSpec,
    Verdict,
    check_keller,
    check_opr,
    check_opr_measure_bound,
    check_orthogonality,
    check_set_tiling,
    check_set_tiling_windowed,
    check_spectrum_periodic,
    check_tight_pair,
    check_tiling_defect,
    duality_roundtrip,
    transfer_harness,
)
from spectile.errors import (
    BudgetExceeded,
    DimensionMismatch,
    IntegralMismatch,
    IrrationalData,
    MeasureNotOne,
    OverlapError,
    PreconditionFailed,
    RadiusTooSmall,
)
from spectile.fourier import tail_bound
from spectile.jsonio import domain_from_json, pointset_from_json
from spectile.geometry import (
    Box,
    box,
    interval,
    product_domain,
    two_interval_domain,
    unit_cube,
    validate_domain,
)
from spectile.lattice import (
    Lattice,
    PeriodicSet,
    WindowSet,
    diagonal_lattice,
    integer_lattice,
    periodic_set,
    window,
)

F = Fraction
FIXTURES = Path(__file__).parent.parent / "fixtures"


def zd(d):
    return periodic_set(integer_lattice(d), [[0] * d])


def half_shift_2z():
    return periodic_set(diagonal_lattice([2]), [[0], [F(1, 2)]])


# ---------------------------------------------------------------------------
# Orthogonality


def test_orthogonality_cube_lattice():
    for d in (1, 2):
        v = check_orthogonality(unit_cube(d), zd(d))
        assert v.status == Status.HOLDS


def test_orthogonality_cube_window_fails():
    ws = WindowSet(((F(0),), (F(1, 2),)), box([-1], [1]))
    v = check_orthogonality(unit_cube(1), ws)
    assert v.status == Status.FAILS
    assert abs(v.witness["difference"][0]) == F(1, 2)
    assert v.witness["abs_ft"] == pytest.approx(2 / math.pi)


def test_orthogonality_witness_is_the_first_failing_pair_in_order():
    # (0, 1) fails first with difference −1/2; (1, 2) fails later with the
    # smaller difference −7/2, and (0, 2) = −4 is a zero of 1̂ on (0, 1)
    ws = WindowSet(((F(0),), (F(1, 2),), (F(4),)), box([-5], [5]))
    v = check_orthogonality(unit_cube(1), ws)
    assert v.status == Status.FAILS
    assert (v.witness["a"], v.witness["b"], v.witness["difference"]) == ((F(0),), (F(1, 2),), (F(-1, 2),))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_orthogonality_pairs_match_a_pair_by_pair_walk(data):
    """The pass tests each distinct difference once, yet its verdict and
    witness are those of testing every pair in (i, j) order."""
    from spectile.fourier import in_zero_set, zero_set
    from spectile.lattice import difference

    om = data.draw(st.sampled_from([unit_cube(1), two_interval_domain(), unit_cube(2), _staircase()]))
    coord = st.builds(F, st.integers(-12, 12), st.sampled_from([1, 2, 4]))
    points = data.draw(st.lists(st.tuples(*[coord] * om.dim), min_size=2, max_size=12, unique=True))
    v = check_orthogonality(om, WindowSet(tuple(points), box([-13] * om.dim, [13] * om.dim)))
    z = zero_set(om)
    answers = [
        (a, b, in_zero_set(z, difference(a, b)))
        for i, a in enumerate(points)
        for b in points[i + 1 :]
    ]
    first = next(((a, b) for a, b, m in answers if m is False), None)
    if first is not None:
        assert v.status == Status.FAILS
        assert (v.witness["a"], v.witness["b"]) == first
    elif any(m is None for *_, m in answers):
        assert v.status == Status.INCONCLUSIVE
    else:
        assert v.status == Status.HOLDS


def test_orthogonality_two_interval_window_holds():
    ws = WindowSet(((F(0),), (F(1, 2),)), box([-1], [1]))
    v = check_orthogonality(two_interval_domain(), ws)
    assert v.status == Status.HOLDS


def test_orthogonality_periodic_two_interval():
    v = check_orthogonality(two_interval_domain(), half_shift_2z())
    assert v.status == Status.HOLDS


def test_orthogonality_periodic_fails_with_witness():
    v = check_orthogonality(unit_cube(1), half_shift_2z())
    assert v.status == Status.FAILS
    assert abs(v.witness["difference"][0]) % 2 == F(1, 2)


# ---------------------------------------------------------------------------
# Spectrum (periodic)


def test_spectrum_cube_z2():
    v, cert = check_spectrum_periodic(unit_cube(2), zd(2))
    assert v.status == Status.HOLDS
    assert cert.all_exact
    assert cert.density == 1


def test_spectrum_cube_halfints_fails():
    v, cert = check_spectrum_periodic(unit_cube(1), half_shift_2z())
    assert v.status == Status.FAILS
    assert abs(v.witness["xi"][0]) == F(1, 2)
    assert abs(v.witness["weight"]) == pytest.approx(math.sqrt(2))


def test_spectrum_two_interval_half_shift():
    v, cert = check_spectrum_periodic(two_interval_domain(), half_shift_2z())
    assert v.status == Status.HOLDS
    assert sorted(w.xi for w in cert.dual_points_checked) == [(-1,), (1,)]
    assert all(w.exact_zero for w in cert.dual_points_checked)


def test_spectrum_shifted_columns_periodic():
    lam = periodic_set(diagonal_lattice([2, 1]), [[0, 0], [1, F(1, 2)]])
    v, cert = check_spectrum_periodic(unit_cube(2), lam)
    assert v.status == Status.HOLDS
    assert sorted(w.xi for w in cert.dual_points_checked) == [
        (F(-1, 2), F(0)),
        (F(1, 2), F(0)),
    ]


def test_spectrum_requires_measure_one():
    with pytest.raises(MeasureNotOne):
        check_spectrum_periodic(validate_domain([interval(0, 2)]), zd(1))


def test_spectrum_density_witness():
    lam = periodic_set(diagonal_lattice([2]), [[0]])
    v, _ = check_spectrum_periodic(unit_cube(1), lam)
    assert v.status == Status.FAILS
    assert v.witness["kind"] == "density"
    assert v.witness["value"] == F(1, 2)


def test_spectrum_implies_orthogonality():
    cases = [
        (unit_cube(1), zd(1)),
        (two_interval_domain(), half_shift_2z()),
        (two_interval_domain(), periodic_set(diagonal_lattice([2]), [[0], [F(3, 2)]])),
        (unit_cube(2), periodic_set(diagonal_lattice([2, 1]), [[0, 0], [1, F(1, 2)]])),
    ]
    for om, lam in cases:
        sv, _ = check_spectrum_periodic(om, lam)
        if sv.status == Status.HOLDS:
            assert check_orthogonality(om, lam).status == Status.HOLDS


# ---------------------------------------------------------------------------
# Set tilings


def test_set_tiling_cube():
    for d in (1, 2, 3):
        assert check_set_tiling(unit_cube(d), zd(d)).status == Status.HOLDS


def test_set_tiling_two_interval_three_half():
    lam = periodic_set(diagonal_lattice([2]), [[0], [F(3, 2)]])
    assert check_set_tiling(two_interval_domain(), lam).status == Status.HOLDS


def test_set_tiling_gap_witness():
    lam = periodic_set(diagonal_lattice([2]), [[0], [F(1, 3)]])
    v = check_set_tiling(unit_cube(1), lam)
    assert v.status == Status.FAILS
    assert v.witness["kind"] == "defect_cell"


@pytest.mark.parametrize("moved, status, boxes", [(False, Status.HOLDS, 196), (True, Status.FAILS, 197)])
def test_set_tiling_builds_a_cell_box_only_for_the_witness(monkeypatch, moved, status, boxes):
    # unit-cube columns (i, j, s_ij) on diag(14, 14, 1): 15 × 15 × 197 torus
    # cells, none of which becomes a Box; a failing verdict builds its witness
    reps = [[i, j, F(14 * i + j + 1, 197)] for i in range(14) for j in range(14)]
    if moved:
        reps[-1] = [0, 0, F(1, 3)]  # column (0, 0) twice, column (13, 13) empty
    om, lam = unit_cube(3), periodic_set(diagonal_lattice([14, 14, 1]), reps)
    built = []
    post_init = Box.__post_init__
    monkeypatch.setattr(Box, "__post_init__", lambda b: built.append(post_init(b)))
    v = check_set_tiling(om, lam)
    assert v.status == status
    assert len(built) == boxes  # the 196 box translates, plus the witness cell
    if moved:
        assert (v.witness["cell_hi"], v.witness["level"]) == ((F(1, 2), F(1, 2), F(1, 394)), 2)
    else:
        assert v.margins == {"cells": 44325.0}


def test_set_tiling_holds_implies_unit_density_times_measure():
    cases = [
        (unit_cube(1), zd(1)),
        (two_interval_domain(), half_shift_2z()),
        (unit_cube(2), periodic_set(diagonal_lattice([2, 1]), [[0, 0], [1, F(1, 3)]])),
    ]
    for om, lam in cases:
        if check_set_tiling(om, lam).status == Status.HOLDS:
            assert lam.density() * om.measure == 1


# ---------------------------------------------------------------------------
# Windowed defect checks


def test_tiling_defect_cube_z_window():
    lam = zd(1)
    ws = window(lam, box([-1000], [1000]))
    v = check_tiling_defect(unit_cube(1), ws, 512, rho=1.0)
    assert v.status == Status.HOLDS
    assert v.margins["max_defect"] <= 3e-4
    assert v.margins["max_defect"] <= v.margins["tail_bound"] + 1e-9


def _staircase():
    """(0,1)×(0,½) ∪ (½,3⁄2)×(½,1): it tiles with Z², but is no product of intervals."""
    return validate_domain([box([0, 0], [1, F(1, 2)]), box([F(1, 2), F(1, 2)], [F(3, 2), 1])])


def _plain_square():
    """The unit square as one plain box, with no product spelling."""
    return validate_domain([box([F(-1, 2), F(-1, 2)], [F(1, 2), F(1, 2)])])


def test_tiling_defect_2d_columns_inconclusive():
    # the staircase's tail bound is not rigorous, so the verdict stays Inconclusive
    ws = window(zd(2), box([-60, -60], [60, 60]))
    grid = 16
    v = check_tiling_defect(_staircase(), ws, grid, rho=1.0)
    assert v.status == Status.INCONCLUSIVE
    assert v.margins["max_defect"] <= 2.5e-2
    # a plain box is recognised as a product: it gets the unit square's verdict
    columns = periodic_set(diagonal_lattice([2, 1]), [[0, 0], [1, F(1, 3)]])
    ws = window(columns, box([-60, -60], [60, 60]))
    assert check_tiling_defect(_plain_square(), ws, grid, rho=1.0) == check_tiling_defect(
        unit_cube(2), ws, grid, rho=1.0
    )


def test_defect_without_density_bound_fails_only_on_overshoot():
    # Z ∩ (−1000, 1000): with ρ = 1 it holds, without ρ the unseen tail is
    # unbounded, and a field that never exceeds 1 decides nothing
    ws = window(zd(1), box([-1000], [1000]))
    grid = 64
    v = check_tiling_defect(unit_cube(1), ws, grid)
    assert v.status == Status.INCONCLUSIVE
    assert v.witness is None
    assert {"max_defect", "max_value", "tol", "near_overshoot_margin"} <= set(v.margins)
    assert "density_bound" not in v.margins
    assert any("no density bound" in n for n in v.notes)
    held = check_tiling_defect(unit_cube(1), ws, grid, rho=1.0)
    assert held.status == Status.HOLDS
    assert held.margins["density_bound"] == 1.0
    assert any("density bound 1.0" in n for n in held.notes)
    # an overshoot needs no ρ; {0, 1/4} + Z does not pack, as its exact
    # orthogonality check says too
    lam = periodic_set(diagonal_lattice([1]), [[0], [F(1, 4)]])
    double = window(lam, box([-50], [50]))
    assert check_tiling_defect(unit_cube(1), double, grid).status == Status.FAILS
    for pts in (lam, double):
        assert check_orthogonality(unit_cube(1), pts).status == Status.FAILS


def test_field_runs_on_grid_axes(monkeypatch):
    """A window's field is one kernel call on the grid's per-axis values; the
    grid points are the product of those values, first axis slowest."""
    import spectile.criteria as criteria
    import spectile.kernels as kernels
    from oracles import direct_power_sum

    calls = []
    real = kernels.power_sum_field

    def spy(lo, hi, points, axes):
        calls.append([len(a) for a in axes])
        return real(lo, hi, points, axes)

    monkeypatch.setattr(kernels, "power_sum_field", spy)
    om = _staircase()
    ws = window(zd(2), box([-12, -12], [12, 12]))
    axes, vals = criteria._field(om, ws, 6)
    assert calls == [[6, 6]]
    xs = list(product(*axes))
    assert xs == [(i / 6, j / 6) for i in range(6) for j in range(6)]
    np.testing.assert_allclose(vals, direct_power_sum(om, ws.points, xs), rtol=1e-10, atol=1e-12)


def test_defect_radius_guard():
    ws = window(zd(1), box([-1], [1]))
    with pytest.raises(RadiusTooSmall):
        check_tiling_defect(unit_cube(1), ws, 8, rho=1.0)


def test_opr_dimension_mismatch():
    # the zero set of 1̂_Ω has Ω's axes only, so a region of another dimension is refused
    with pytest.raises(DimensionMismatch):
        check_opr(unit_cube(1), unit_cube(2))
    with pytest.raises(DimensionMismatch):
        check_opr(unit_cube(2), unit_cube(1))


def test_set_tiling_windowed_columns():
    columns = periodic_set(diagonal_lattice([2, 1]), [[0, 0], [1, F(1, 2)]])
    ws = window(columns, box([-6, -6], [6, 6]))
    v = check_set_tiling_windowed(unit_cube(2), ws, 8)
    assert v.status == Status.INCONCLUSIVE  # pass is evidence, not certificate
    # columns tile for any shifts; break it with a sparse set
    sparse = WindowSet(((0.0, 0.0),), box([-6, -6], [6, 6]))
    v2 = check_set_tiling_windowed(unit_cube(2), sparse, 8)
    assert v2.status == Status.FAILS
    assert v2.witness["count"] == 0


# ---------------------------------------------------------------------------
# Orthogonal packing regions


def test_opr_cube_self():
    for d in (1, 2):
        assert check_opr(unit_cube(d), unit_cube(d)).status == Status.HOLDS


def test_opr_two_interval_self():
    om = two_interval_domain()
    assert check_opr(om, om).status == Status.HOLDS


def test_opr_long_interval_fails():
    v = check_opr(unit_cube(1), validate_domain([interval(0, 2)]))
    assert v.status == Status.FAILS
    (root,) = v.witness["point"]
    assert root != 0 and root % 1 == 0  # a nonzero integer root inside (-2, 2)


def test_tight_pair_examples():
    assert check_tight_pair(unit_cube(1), unit_cube(1)).status == Status.HOLDS
    om = two_interval_domain()
    assert check_tight_pair(om, om).status == Status.HOLDS
    v = check_tight_pair(unit_cube(1), validate_domain([interval(0, F(1, 2))]))
    assert v.status == Status.FAILS
    assert v.witness["kind"] == "measure"


def test_tight_pair_mixed_pair():
    # (0,1) is a tight packing region for Q and vice versa
    shifted = validate_domain([interval(0, 1)])
    assert check_tight_pair(unit_cube(1), shifted).status == Status.HOLDS


# ---------------------------------------------------------------------------
# Keller


def test_keller_cube_lattice():
    assert check_keller(unit_cube(2), zd(2), unit_cube(2)).status == Status.HOLDS


def test_keller_shifted_columns():
    lam = periodic_set(diagonal_lattice([2, 1]), [[0, 0], [1, F(1, 2)]])
    assert check_keller(unit_cube(2), lam, unit_cube(2)).status == Status.HOLDS


def test_keller_and_duality_with_float_shift():
    # the float shift never enters: every coset offset is odd on axis 0, and
    # the unit column factor covers its axis once
    lam = periodic_set(diagonal_lattice([2, 1]), [[0, 0.0], [1, 0.6180339887498949]])
    assert not lam.contains_zero  # 0.0 stands for a number near 0
    assert check_keller(unit_cube(2), lam, unit_cube(2)).status == Status.HOLDS
    assert duality_roundtrip(unit_cube(2), unit_cube(2), lam).status == Status.HOLDS
    with pytest.raises(IrrationalData):
        transfer_harness(TileSpec("indicator", unit_cube(2)), TileSpec("indicator", unit_cube(2)), lam)


def test_keller_precondition_not_tiling():
    lam = periodic_set(diagonal_lattice([2]), [[0], [F(1, 3)]])
    with pytest.raises(PreconditionFailed):
        check_keller(unit_cube(1), lam, unit_cube(1))


def test_keller_precondition_not_tight_pair():
    with pytest.raises(PreconditionFailed):
        check_keller(unit_cube(1), zd(1), validate_domain([interval(0, F(1, 2))]))


# ---------------------------------------------------------------------------
# Transfer harness


def test_transfer_cube_lattice_both_tile():
    for d in (1, 2):
        v = transfer_harness(
            TileSpec("power_spectrum", unit_cube(d)),
            TileSpec("indicator", unit_cube(d)),
            zd(d),
        )
        assert v.status == Status.HOLDS
        assert v.margins["both_tile"] == 1.0


def test_transfer_sparse_lattice_neither_tiles():
    lam = periodic_set(diagonal_lattice([2]), [[0]])
    v = transfer_harness(
        TileSpec("power_spectrum", unit_cube(1)),
        TileSpec("indicator", unit_cube(1)),
        lam,
    )
    assert v.status == Status.HOLDS
    assert v.margins["both_tile"] == 0.0


def test_transfer_integral_mismatch():
    with pytest.raises(IntegralMismatch):
        transfer_harness(
            TileSpec("indicator", unit_cube(1)),
            TileSpec("indicator", validate_domain([interval(0, 2)])),
            zd(1),
        )


def test_transfer_packing_precondition():
    lam = periodic_set(diagonal_lattice([1]), [[0], [F(1, 4)]])
    v = transfer_harness(
        TileSpec("power_spectrum", unit_cube(1)),
        TileSpec("indicator", unit_cube(1)),
        lam,
    )
    assert v.status == Status.INCONCLUSIVE


# ---------------------------------------------------------------------------
# Measure bound and duality round-trip


def test_measure_bound_examples():
    assert (
        check_opr_measure_bound(unit_cube(1), zd(1), unit_cube(1)).status
        == Status.HOLDS
    )
    small = validate_domain([interval(F(-1, 4), F(1, 4))])
    v = check_opr_measure_bound(unit_cube(1), zd(1), small)
    assert v.status == Status.HOLDS
    assert v.margins["region_measure"] == 0.5
    om = two_interval_domain()
    assert (
        check_opr_measure_bound(om, half_shift_2z(), om).status == Status.HOLDS
    )


def test_measure_bound_precondition():
    lam = periodic_set(diagonal_lattice([2]), [[0]])
    with pytest.raises(PreconditionFailed):
        check_opr_measure_bound(unit_cube(1), lam, unit_cube(1))


def test_duality_roundtrip_agreement():
    assert duality_roundtrip(unit_cube(1), unit_cube(1), zd(1)).status == Status.HOLDS
    om = two_interval_domain()
    lam32 = periodic_set(diagonal_lattice([2]), [[0], [F(3, 2)]])
    assert duality_roundtrip(om, om, lam32).status == Status.HOLDS
    v = duality_roundtrip(unit_cube(1), unit_cube(1), half_shift_2z())
    assert v.status == Status.HOLDS  # both fail → agreement
    assert v.margins["both_hold"] == 0.0


def test_duality_roundtrip_precondition():
    with pytest.raises(PreconditionFailed):
        duality_roundtrip(unit_cube(1), validate_domain([interval(0, 2)]), zd(1))


# ---------------------------------------------------------------------------
# Translation invariance of verdict statuses


def test_translation_invariance_of_checks():
    om = two_interval_domain()
    lam = half_shift_2z()
    base_spec, _ = check_spectrum_periodic(om, lam)
    base_tile = check_set_tiling(om, lam)
    for t in (F(1, 3), F(-3, 4)):
        sv, _ = check_spectrum_periodic(om.translate([t]), lam.translate([t]))
        assert sv.status == base_spec.status
        tv = check_set_tiling(om.translate([t]), lam)
        assert tv.status == base_tile.status
        tv2 = check_set_tiling(om, lam.translate([t]))
        assert tv2.status == base_tile.status


def test_orthogonality_translation_invariance():
    om = two_interval_domain()
    lam = half_shift_2z()
    base = check_orthogonality(om, lam).status
    for t in (F(1, 5), F(-7, 3)):
        assert check_orthogonality(om.translate([t]), lam.translate([t])).status == base


def test_orthogonality_numeric_only_inconclusive_on_pass():
    # the staircase is no product, yet each coset is decided exactly: it
    # tiles with Z², so Z² is orthogonal, and {0, (1/4, 0)} + Z² is not
    v = check_orthogonality(_staircase(), zd(2))
    assert v == Verdict(Status.HOLDS, None, {"cosets_checked": 1.0})
    quarter = periodic_set(diagonal_lattice([1, 1]), [[0, 0], [F(1, 4), 0]])
    v2 = check_orthogonality(_staircase(), quarter)
    assert v2.status == Status.FAILS
    for lam in (zd(2), quarter):
        assert check_orthogonality(_plain_square(), lam) == check_orthogonality(unit_cube(2), lam)


def test_opr_numeric_only_inconclusive():
    v = check_opr(_staircase(), _staircase())
    assert v.status == Status.INCONCLUSIVE
    assert v.margins == {"near_undecided_boxes": 4.0}
    assert check_opr(_plain_square(), _plain_square()) == check_opr(unit_cube(2), unit_cube(2))


def test_opr_non_product_answers_at_once():
    # a 3-D staircase and a 4-box region: the 16 boxes of the difference body
    # are counted, not scanned
    om = validate_domain([box([0, 0, 0], [1, 1, F(1, 2)]), box([F(1, 2)] * 3, [F(3, 2), F(3, 2), 1])])
    corners = ([0, 0, 0], [F(1, 2), 0, 0], [0, F(1, 2), 0], [0, 0, F(1, 2)])
    region = validate_domain([box(lo, [x + F(1, 4) for x in lo]) for lo in corners])
    t0 = time.perf_counter()
    v = check_opr(om, region)
    assert time.perf_counter() - t0 < 0.5
    assert v.status == Status.INCONCLUSIVE
    assert v.margins == {"near_undecided_boxes": 16.0}


def test_defect_scan_empty_pointset():
    # no translates: the field is 0 everywhere, a defect of 1 against any tail
    ws = WindowSet((), box([-8], [8]))
    v = check_tiling_defect(unit_cube(1), ws, 8, rho=0.1)
    assert v.status == Status.FAILS
    assert v.margins["max_value"] == 0.0
    assert v.margins["max_defect"] == 1.0
    assert check_orthogonality(unit_cube(1), ws).status == Status.HOLDS


def _irrational_union():
    from spectile.geometry import interval, validate_domain

    return validate_domain(
        [
            (interval(0, F(3, 5))),
            (interval(1, F(6, 5))),
            (interval(F(7, 5), F(8, 5))),
            (interval(2, F(13, 5))),
        ]
    )


def test_opr_with_irrational_roots_holds_below_first_root():
    # D-D = (-1/4, 1/4) misses every root family (first root ≈ 0.3027)
    small = validate_domain([interval(0, F(1, 8))])
    assert check_opr(_irrational_union(), small).status == Status.HOLDS


def test_opr_irrational_root_inside_fails():
    # D-D = (-2/5, 2/5) strictly contains the irrational root ≈ 0.3027
    region = validate_domain([interval(0, F(2, 5))])
    v = check_opr(_irrational_union(), region)
    assert v.status == Status.FAILS
    (root,) = v.witness["point"]
    assert 0.30 < abs(root) < 0.31


def test_opr_irrational_root_straddling_boundary_inconclusive():
    from spectile.fourier import roots_1d

    ar = roots_1d(_irrational_union())
    approx = ar.irrational_zeros[0]
    # a rational body edge within the root's error bound: cannot certify
    edge = F(round(approx * 10**9), 10**9)
    region = validate_domain([interval(0, edge)])
    v = check_opr(_irrational_union(), region)
    assert v.status == Status.INCONCLUSIVE


def _coverage_by_direct_loop(om, ws, xs, eps=1e-9):
    """(count, boundary) per grid point: every translate, every box, one at a time."""
    out = []
    for x in xs:
        count = near = 0
        for p in np.array(ws.points, dtype=float):
            for b in om.boxes:
                u = [xj - pj for xj, pj in zip(x, p)]
                lo, hi = [float(v) for v in b.lo], [float(v) for v in b.hi]
                count += all(a + eps < c < z - eps for a, c, z in zip(lo, u, hi))
                near += all(a - eps < c < z + eps for a, c, z in zip(lo, u, hi))
        out.append((count, near != count))
    return out


@pytest.mark.parametrize("seed", range(4))
def test_set_tiling_windowed_matches_direct_loop(seed):
    rng = np.random.default_rng(seed)
    om = validate_domain([box([F(9)], [F(19, 2)]), box([F(10)], [F(21, 2)])])
    ws = window(periodic_set(diagonal_lattice([2]), [[0], [F(1, 2)]]), box([-12], [12]))
    shift = float(rng.integers(0, 4)) / 8
    # drop some of the translates that cover the unit cell; seed 0 keeps the tiling
    pts = tuple(
        (float(p[0]) + shift,)
        for p in ws.points
        if not (-11 < p[0] < -8 and rng.random() < 0.25 * seed)
    )
    ws = WindowSet(pts, ws.window)
    xs = [(i / 16,) for i in range(16)]
    v = check_set_tiling_windowed(om, ws, 16)
    direct = _coverage_by_direct_loop(om, ws, xs)
    clean = [i for i, (_, boundary) in enumerate(direct) if not boundary]
    bad = [i for i in clean if direct[i][0] != 1]
    if bad:
        assert v.status == Status.FAILS
        assert v.witness["count"] == direct[bad[0]][0]
        assert v.witness["x"] == xs[bad[0]]
        assert v.margins["points_checked"] == clean.index(bad[0]) + 1
    else:
        assert v.status == Status.INCONCLUSIVE
        assert v.margins["points_checked"] == len(clean)


def test_kernel_pair_budget_refuses_before_any_kernel_work(monkeypatch, budget):
    import spectile.criteria as criteria
    import spectile.kernels as kernels

    def must_not_run(*args):
        raise AssertionError("work started on an over-budget input")

    ws = window(zd(1), box([-5], [5]))  # 9 translates
    grid = 4  # 36 pairs
    budget("kernel_pairs", 36)
    _, vals = criteria._field(unit_cube(1), ws, grid)
    assert len(vals) == 4
    budget("kernel_pairs", 35)
    monkeypatch.setattr(kernels, "power_sum_field", must_not_run)
    monkeypatch.setattr(kernels, "cover_count", must_not_run)
    with pytest.raises(BudgetExceeded):
        criteria._field(unit_cube(1), ws, grid)
    with pytest.raises(BudgetExceeded):
        check_set_tiling_windowed(unit_cube(1), ws, grid)
    # the windowed defect check refuses too
    with pytest.raises(BudgetExceeded):
        check_tiling_defect(unit_cube(1), window(zd(1), box([-9], [9])), grid)


def test_grid_budget_refuses_before_any_array(monkeypatch, budget):
    import spectile.criteria as criteria
    import spectile.kernels as kernels

    def must_not_run(*args):
        raise AssertionError("an array was built for an over-budget grid")

    ws = window(zd(2), box([-3, -3], [3, 3]))
    budget("grid_points", 16)
    axes, vals = criteria._field(unit_cube(2), zd(2), 4)  # 4² points: at the budget
    assert len(list(product(*axes))) == len(vals) == 16
    for name in ("poisson_field", "power_sum_field", "cover_count"):
        monkeypatch.setattr(kernels, name, must_not_run)
    for name in ("_poisson_terms", "_grid_point"):
        monkeypatch.setattr(criteria, name, must_not_run)
    for lam in (zd(2), ws):
        with pytest.raises(BudgetExceeded, match="^25 grid points exceed"):
            criteria._field(unit_cube(2), lam, 5)
    with pytest.raises(BudgetExceeded):
        check_set_tiling_windowed(unit_cube(2), ws, 5)
    with pytest.raises(BudgetExceeded):
        check_tiling_defect(unit_cube(2), ws, 5)


def _union_1d(data, q):
    """A random union of 1-3 intervals with endpoints in (1/q)·Z."""
    lo = F(data.draw(st.integers(-2 * q, 2 * q)), q)
    boxes = []
    for _ in range(data.draw(st.integers(1, 3))):
        hi = lo + F(data.draw(st.integers(1, q)), q)
        boxes.append(interval(lo, hi))
        lo = hi + F(data.draw(st.integers(0, q)), q)
    return validate_domain(boxes)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_product_domain_factors_are_recovered_sorted(data):
    q = data.draw(st.sampled_from([1, 2, 3, 4]))
    legs = [_union_1d(data, q) for _ in range(data.draw(st.integers(1, 3)))]
    shuffled = [validate_domain(data.draw(st.permutations(leg.boxes))) for leg in legs]
    assert product_domain(shuffled).factors() == tuple(legs)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_poisson_field_sandwiches_windowed_field(data):
    """The windowed sum drops nonnegative terms only, so at every grid point
    0 ≤ exact − windowed ≤ the rigorous tail bound (plus float rounding)."""
    import spectile.criteria as criteria

    kind = data.draw(st.sampled_from(["union", "product", "skew"]))
    q = data.draw(st.sampled_from([1, 2, 3, 4]))
    rational = st.builds(F, st.integers(0, 2 * q), st.just(q))
    if kind == "union":
        om = _union_1d(data, q)
        lat = diagonal_lattice([data.draw(st.sampled_from([1, F(3, 2), 2, 3]))])
        radius, n = 40, 32
    else:
        om = product_domain([_union_1d(data, q), _union_1d(data, q)])
        if kind == "product":
            lat = diagonal_lattice(data.draw(st.lists(st.sampled_from([1, F(3, 2), 2]), min_size=2, max_size=2)))
        else:
            skew = data.draw(st.sampled_from([F(1, 3), F(1, 2), F(2, 3), 1]))
            lat = Lattice(((F(1), skew), (F(-skew), F(data.draw(st.sampled_from([1, 2]))))))
        radius, n = 10, 8
    reps = data.draw(st.lists(st.lists(rational, min_size=lat.dim, max_size=lat.dim), min_size=1, max_size=3))
    try:
        lam = periodic_set(lat, reps)
    except ValueError:
        return  # two reps in one coset
    ws = window(lam, box([-radius] * lat.dim, [radius] * lat.dim))
    _, exact = criteria._field(om, lam, n)
    _, windowed = criteria._field(om, ws, n)
    tail = tail_bound(om, float(lam.density()), criteria._effective_radius(ws))
    assert tail.rigorous
    gap = np.subtract(exact, windowed)
    assert gap.min() >= -1e-12
    assert gap.max() <= tail.bound + 1e-12


def _assert_field_matches_meshed_reference(om, lam, n):
    """`_field` against every Poisson term added on the meshed grid, bit for bit."""
    import spectile.criteria as criteria

    axes, vals = criteria._field(om, lam, n)
    grid = [np.arange(n) / n] * om.dim
    assert axes == [a.tolist() for a in grid]
    want = poisson_field_reference(list(criteria._poisson_terms(om, lam)), mesh(grid))
    assert vals == want.tolist()
    assert [criteria._grid_point(axes, i) for i in range(len(vals))] == list(product(*axes))


def _periodic_problem(path):
    """(Ω, Λ) of a fixture with a valid domain and a periodic point set, else None."""
    obj = json.loads(path.read_text())
    try:
        om, lam = domain_from_json(obj["domain"]), pointset_from_json(obj["pointset"])
    except (KeyError, OverlapError):
        return None
    return (om, lam) if isinstance(lam, PeriodicSet) else None


_PERIODIC_FIXTURES = sorted(p.name for p in FIXTURES.glob("*.json") if _periodic_problem(p))


@pytest.mark.parametrize("name", _PERIODIC_FIXTURES)
def test_field_is_the_meshed_poisson_sum_on_every_periodic_fixture(name):
    om, lam = _periodic_problem(FIXTURES / name)
    for n in (1, 7, 16):
        _assert_field_matches_meshed_reference(om, lam, n)


def test_constant_field_is_rounded_as_the_kernel_adds_it():
    """(0, 3/10) on Z + {0, 1/3, 2/3}: no dual point but 0 in Ω − Ω, and the
    constant is float(3/10)·3 = 0.8999999999999999, not float(9/10)."""
    import spectile.criteria as criteria

    om = validate_domain([interval(0, F(3, 10))])
    lam = periodic_set(diagonal_lattice([1]), [[0], [F(1, 3)], [F(2, 3)]])
    _assert_field_matches_meshed_reference(om, lam, 5)
    assert criteria._field(om, lam, 5)[1] == [0.3 * 3] * 5 != [0.9] * 5


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_field_is_the_meshed_poisson_sum(data):
    """A box spectral for the lattice has the one constant term; a union of
    intervals per axis and several reps, exact or float, have more."""
    import spectile.criteria as criteria

    d = data.draw(st.integers(1, 3))
    n = data.draw(st.integers(1, 9))
    periods = data.draw(st.lists(st.sampled_from([1, F(3, 2), 2]), min_size=d, max_size=d))
    lat = diagonal_lattice(periods)
    if data.draw(st.booleans()):  # one term: Ω − Ω = ∏ (−1/c, 1/c) holds no dual point but 0
        lo = data.draw(st.lists(st.builds(F, st.integers(-4, 4), st.just(2)), min_size=d, max_size=d))
        om = validate_domain([box(lo, [a + 1 / F(c) for a, c in zip(lo, periods)])])
        lam = periodic_set(lat, [[data.draw(st.sampled_from([0, F(1, 3), 0.25])) for _ in range(d)]])
        assert len(list(criteria._poisson_terms(om, lam))) == 1
    else:
        # one or two intervals inside (0, 2) per axis, so Ω − Ω ⊂ (−2, 2)ᵈ
        q = data.draw(st.sampled_from([2, 3, 4]))
        legs = []
        for _ in range(d):
            ends = sorted(data.draw(st.sets(st.integers(0, 2 * q), min_size=2, max_size=4)))
            ends = ends[: len(ends) // 2 * 2]
            legs.append(validate_domain([interval(F(a, q), F(b, q)) for a, b in zip(ends[::2], ends[1::2])]))
        om = product_domain(legs)
        coordinate = st.one_of(
            st.builds(F, st.integers(0, 2 * q), st.just(q)),
            st.floats(0, 2, allow_nan=False, allow_infinity=False),
        )
        reps = data.draw(st.lists(st.lists(coordinate, min_size=d, max_size=d), min_size=1, max_size=3))
        try:
            lam = periodic_set(lat, reps)
        except ValueError:
            return  # two reps in one coset
    _assert_field_matches_meshed_reference(om, lam, n)
