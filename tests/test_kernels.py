"""The numpy field kernel against a direct oracle, the scalar transform and
frozen copies of its formulas; its working set; the scans that stream its values."""

import json
import tracemalloc
import warnings
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

import oracles
import spectile.cli
import spectile.kernels
from oracles import direct_power_sum, mesh
from spectile.fourier import power_spectrum
from spectile.geometry import box, two_interval_domain, unit_cube, validate_domain
from spectile.cli import main
from spectile.criteria import _field
from spectile.errors import SpectileError
from spectile.jsonio import domain_from_json, pointset_from_json
from spectile.kernels import backend_name, cover_count, poisson_field, power_sum_field


def _boxes(dom):
    lo = np.array([[float(v) for v in b.lo] for b in dom.boxes])
    hi = np.array([[float(v) for v in b.hi] for b in dom.boxes])
    return lo, hi


def _uneven_axes(rng, sizes):
    """Per-axis grid values: sorted random points in (−2, 2), a different count per axis."""
    return [np.sort(rng.uniform(-2, 2, size=n)) for n in sizes]


@pytest.mark.parametrize("dom_name", ["cube1", "cube2", "two_interval"])
def test_ref_matches_direct_oracle(dom_name):
    dom = {"cube1": unit_cube(1), "cube2": unit_cube(2), "two_interval": two_interval_domain()}[dom_name]
    rng = np.random.default_rng(3)
    pts = rng.uniform(-40, 40, size=(200, dom.dim))
    axes = _uneven_axes(rng, [50] if dom.dim == 1 else [9, 6])
    got = power_sum_field(*_boxes(dom), pts, axes)
    want = direct_power_sum(dom, pts, mesh(axes))
    np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)


def test_kernel_matches_scalar_power_spectrum():
    dom = two_interval_domain()
    lo, hi = _boxes(dom)
    axes = [np.array([0.3, 1.7, -0.9])]
    pts = np.array([[0.0]])
    got = power_sum_field(lo, hi, pts, axes)
    want = [power_spectrum(dom, [x]) for x in axes[0]]
    np.testing.assert_allclose(got, want, rtol=1e-12)


def test_kernel_handles_tiny_frequencies():
    dom = unit_cube(1)
    lo, hi = _boxes(dom)
    axes = [np.array([0.0, 1e-9, 1e-7, -1e-8])]
    pts = np.array([[0.0]])
    vals = power_sum_field(lo, hi, pts, axes)
    np.testing.assert_allclose(vals, 1.0, atol=1e-10)


def test_backend_reported():
    assert backend_name() == "numpy"


def _dyadic_union(rng, dim):
    """Disjoint boxes with dyadic corners, one inside each of a few cells of
    side 1/2 around a random centre up to 12 away from the origin."""
    centre = [Fraction(int(c), 2) for c in rng.integers(-24, 25, size=dim)]
    cells = list(product(range(-2, 2), repeat=dim))
    picks = rng.choice(len(cells), size=int(rng.integers(1, 4)), replace=False)
    boxes = []
    for k in picks:
        lo, hi = [], []
        for j, i in enumerate(cells[k]):
            a, b = sorted(rng.choice(9, size=2, replace=False))
            lo.append(centre[j] + Fraction(int(i), 2) + Fraction(int(a), 16))
            hi.append(centre[j] + Fraction(int(i), 2) + Fraction(int(b), 16))
        boxes.append(box(lo, hi))
    return validate_domain(boxes)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("seed", range(6))
def test_separable_field_matches_direct_oracle(dim, seed):
    """Random 1–3 box unions; the pair terms of distinct boxes carry the phase."""
    rng = np.random.default_rng(100 + seed)
    dom = _dyadic_union(rng, dim)
    pts = rng.uniform(-30, 30, size=(150, dim))
    axes = _uneven_axes(rng, [11, 7, 5][:dim])
    got = power_sum_field(*_boxes(dom), pts, axes)
    want = direct_power_sum(dom, pts, mesh(axes))
    np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)


def test_separable_field_boxes_sharing_an_axis_midpoint():
    """Two boxes stacked along y share their x midpoint: that factor of the
    pair term has no phase and stays real."""
    dom = validate_domain([box([0, 0], [1, Fraction(1, 2)]), box([0, 2], [1, Fraction(5, 2)])])
    rng = np.random.default_rng(5)
    pts = rng.uniform(-20, 20, size=(120, 2))
    axes = _uneven_axes(rng, [8, 13])
    got = power_sum_field(*_boxes(dom), pts, axes)
    np.testing.assert_allclose(got, direct_power_sum(dom, pts, mesh(axes)), rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("seed", range(6))
def test_cover_count_matches_exact_membership(dim, seed):
    rng = np.random.default_rng(seed)
    dom = _dyadic_union(rng, dim)
    sizes = [12, 4, 3][:dim] if dim < 3 else [3, 2, 4]
    axes = [sorted({Fraction(int(v), 8) for v in rng.integers(-8, 9, size=n)}) for n in sizes]
    xs = list(product(*axes))
    lam = [tuple(Fraction(int(v), 16) for v in rng.integers(-400, 401, size=dim)) for _ in range(40)]
    # translates that put grid points exactly on box faces and corners
    for g in rng.choice(len(xs), size=min(6, len(xs)), replace=False):
        x = xs[int(g)]
        b = dom.boxes[int(rng.integers(len(dom.boxes)))]
        corner = [b.lo[j] if rng.integers(2) else b.hi[j] for j in range(dim)]
        lam.append(tuple(c - k for c, k in zip(x, corner)))
        mixed = list(b.midpoint())
        mixed[0] = b.lo[0]
        lam.append(tuple(c - k for c, k in zip(x, mixed)))
    lo, hi = _boxes(dom)
    got = cover_count(lo, hi, np.array(lam, dtype=float), [np.array(a, dtype=float) for a in axes])
    want = [oracles.cover_count(dom, lam, x) for x in xs]
    assert got.tolist() == want


def _two_box_workload():
    dom = validate_domain([box([0, 0], [1, Fraction(1, 2)]), box([Fraction(1, 2), Fraction(1, 2)], [Fraction(3, 2), 1])])
    rng = np.random.default_rng(11)
    pts = rng.uniform(-60, 60, size=(5000, 2))
    return _boxes(dom), pts, _uneven_axes(rng, [17, 9])


def test_two_calls_are_bit_identical():
    (lo, hi), pts, axes = _two_box_workload()
    assert np.array_equal(power_sum_field(lo, hi, pts, axes), power_sum_field(lo, hi, pts, axes))
    assert np.array_equal(cover_count(lo, hi, pts, axes), cover_count(lo, hi, pts, axes))


def test_blocked_equals_unblocked(monkeypatch):
    """A table budget small enough to split the translates into many column
    chunks changes only the summation order of the field, and no count."""
    (lo, hi), pts, axes = _two_box_workload()
    field, count = power_sum_field(lo, hi, pts, axes), cover_count(lo, hi, pts, axes)
    assert spectile.kernels._TABLE_ENTRIES >= 17 * len(pts)  # one chunk by default
    monkeypatch.setattr(spectile.kernels, "_TABLE_ENTRIES", 17 * 7)  # 715 chunks of 7
    np.testing.assert_allclose(power_sum_field(lo, hi, pts, axes), field, rtol=0, atol=1e-12)
    assert np.array_equal(cover_count(lo, hi, pts, axes), count)


@pytest.mark.parametrize("n_boxes", [1, 2, 3])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_kernels_match_the_frozen_formulas_bit_for_bit(monkeypatch, dim, n_boxes):
    """The in-place kernels give exactly the floats of one fresh array per
    intermediate (`oracles`), over dozens of column chunks, the last one short."""
    rng = np.random.default_rng(40 + 3 * dim + n_boxes)
    lo = rng.uniform(-3, 3, size=(n_boxes, dim))
    hi = lo + rng.uniform(0.1, 2, size=(n_boxes, dim))
    if dim > 1:  # midpoints shared on axis 0: a real pair table beside complex ones
        lo[:, 0], hi[:, 0] = 0.0, 1.0
    pts = rng.uniform(-30, 30, size=(500, dim))
    pts[0] = 0.0
    axes = _uneven_axes(rng, [7, 5, 4][:dim])
    axes[0][0] = 0.0  # a phase of exactly 0, where sinc is 1
    monkeypatch.setattr(spectile.kernels, "_TABLE_ENTRIES", 97)
    monkeypatch.setattr(oracles, "TABLE_ENTRIES", 97)  # chunks of 13 translates, the last of 6
    got = power_sum_field(lo, hi, pts, axes)
    assert np.array_equal(got, oracles.kernel_power_sum_field(lo, hi, pts, axes))
    assert np.array_equal(cover_count(lo, hi, pts, axes), oracles.kernel_cover_count(lo, hi, pts, axes))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_poisson_field_matches_the_frozen_formula_bit_for_bit(dim):
    rng = np.random.default_rng(dim)
    terms = [(rng.uniform(0, 1), complex(*rng.uniform(-1, 1, 2)), tuple(rng.uniform(-5, 5, dim))) for _ in range(6)]
    axes = _uneven_axes(rng, [9, 6, 4][:dim])
    assert np.array_equal(poisson_field(0.75, terms, axes), oracles.kernel_poisson_field(0.75, terms, axes))


@pytest.mark.parametrize(
    "lo, hi, pts",
    [
        pytest.param([[-0.5]], [[0.5]], [[1e308]], id="phase"),  # π·w·u overflows
        pytest.param([[0.0], [1.6e308]], [[1.0], [1.7e308]], [[0.0]], id="midpoint"),  # of the second box
    ],
)
def test_non_finite_phase_or_midpoint_is_refused_without_warnings(lo, hi, pts):
    with pytest.raises(SpectileError), warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        power_sum_field(np.array(lo), np.array(hi), np.array(pts), [np.array([0.0, 0.5])])


def test_one_box_field_works_in_three_tables():
    """One box in d = 2 over four column chunks: the traced peak stays under
    3.5 tables of _TABLE_ENTRIES floats (both axes' amplitudes and one scratch
    table), where one fresh array per intermediate took about nine."""
    n = 16
    step = spectile.kernels._TABLE_ENTRIES // n
    pts = np.random.default_rng(8).uniform(-30, 30, size=(3 * step + 5, 2))
    axes = [np.arange(n) / n] * 2
    lo, hi = np.zeros((1, 2)), np.ones((1, 2))
    tracemalloc.start()
    try:
        power_sum_field(lo, hi, pts, axes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.5 * 8 * spectile.kernels._TABLE_ENTRIES


def test_scan_streams_the_joined_csv(monkeypatch, capsys, tmp_path):
    """The defect scan writes its rows in blocks that join to the text of all of them."""
    rng = np.random.default_rng(12)
    points = [[float(v) for v in p] for p in rng.uniform(-6, 6, size=(40, 2))]
    problem = {
        "version": 1,
        "domain": {"boxes": [{"lo": ["0", "0"], "hi": ["1", "1/2"]}, {"lo": ["0", "1/2"], "hi": ["1/2", "1"]}]},
        "pointset": {"type": "window", "points": points, "window": {"lo": ["-6", "-6"], "hi": ["6", "6"]}},
    }
    path = tmp_path / "window.json"
    path.write_text(json.dumps(problem))
    axes, vals = _field(domain_from_json(problem["domain"]), pointset_from_json(problem["pointset"]), 8)
    text = "\n".join("%.17g,%.17g,%.17g" % (*x, v - 1.0) for x, v in zip(product(*axes), vals)) + "\n"
    blocks = []
    real_emit = spectile.cli._emit

    def emit(out, out_path):
        blocks.extend(out)
        real_emit(blocks, out_path)

    monkeypatch.setattr(spectile.cli, "_ROWS_PER_BLOCK", 5)
    monkeypatch.setattr(spectile.cli, "_emit", emit)
    assert main(["scan", str(path), "--profile", "defect", "--grid", "8"]) == 0
    assert capsys.readouterr().out == "".join(blocks) == text
    assert len(blocks) == 13  # 64 rows, 5 a block


def test_scan_refused_at_its_last_sample_writes_no_row(capsys, tmp_path):
    # on Ω = (10³⁰⁸, 1.5·10³⁰⁸) every sample ξ in (0, 0.1] has a finite
    # |1̂_Ω(ξ)|², but the midpoint phase at the last sample, ξ = 0, overflows
    path = tmp_path / "far.json"
    domain = {"boxes": [{"lo": [str(10**308)], "hi": [str(15 * 10**307)]}]}
    path.write_text(json.dumps({"version": 1, "domain": domain}))
    samples = spectile.cli._ROWS_PER_BLOCK + 1
    assert main(["scan", str(path), "--profile", "power", "--range", f"0.1:0:{samples}"]) == 3
    assert capsys.readouterr().out == ""
