"""The numpy field kernel against a direct oracle and the scalar transform."""

from fractions import Fraction
from itertools import product

import numpy as np
import pytest

import oracles
import spectile.kernels
from oracles import direct_power_sum
from spectile.fourier import power_spectrum
from spectile.geometry import box, two_interval_domain, unit_cube, validate_domain
from spectile.kernels import backend_name, cover_count, power_sum_field


def _boxes(dom):
    lo = np.array([[float(v) for v in b.lo] for b in dom.boxes])
    hi = np.array([[float(v) for v in b.hi] for b in dom.boxes])
    return lo, hi


def _random_workload(dom, n_pts, n_grid, seed):
    rng = np.random.default_rng(seed)
    d = dom.dim
    pts = rng.uniform(-40, 40, size=(n_pts, d))
    xs = rng.uniform(-2, 2, size=(n_grid, d))
    return pts, xs


@pytest.mark.parametrize("dom_name", ["cube1", "cube2", "two_interval"])
def test_ref_matches_direct_oracle(dom_name):
    dom = {"cube1": unit_cube(1), "cube2": unit_cube(2), "two_interval": two_interval_domain()}[dom_name]
    pts, xs = _random_workload(dom, 200, 50, seed=3)
    lo, hi = _boxes(dom)
    got = power_sum_field(lo, hi, pts, xs)
    want = direct_power_sum(dom, pts, xs)
    np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)


def test_kernel_matches_scalar_power_spectrum():
    dom = two_interval_domain()
    lo, hi = _boxes(dom)
    xs = np.array([[0.3], [1.7], [-0.9]])
    pts = np.array([[0.0]])
    got = power_sum_field(lo, hi, pts, xs)
    want = [power_spectrum(dom, [x[0]]) for x in xs]
    np.testing.assert_allclose(got, want, rtol=1e-12)


def test_kernel_handles_tiny_frequencies():
    dom = unit_cube(1)
    lo, hi = _boxes(dom)
    xs = np.array([[0.0], [1e-9], [1e-7], [-1e-8]])
    pts = np.array([[0.0]])
    vals = power_sum_field(lo, hi, pts, xs)
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


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("seed", range(6))
def test_cover_count_matches_exact_membership(dim, seed):
    rng = np.random.default_rng(seed)
    dom = _dyadic_union(rng, dim)
    xs = [tuple(Fraction(int(v), 8) for v in rng.integers(-8, 9, size=dim)) for _ in range(12)]
    lam = [tuple(Fraction(int(v), 16) for v in rng.integers(-400, 401, size=dim)) for _ in range(40)]
    # translates that put grid points exactly on box faces and corners
    for x in xs[:6]:
        b = dom.boxes[int(rng.integers(len(dom.boxes)))]
        corner = [b.lo[j] if rng.integers(2) else b.hi[j] for j in range(dim)]
        lam.append(tuple(c - k for c, k in zip(x, corner)))
        mixed = list(b.midpoint())
        mixed[0] = b.lo[0]
        lam.append(tuple(c - k for c, k in zip(x, mixed)))
    lo, hi = _boxes(dom)
    got = cover_count(lo, hi, np.array(lam, dtype=float), np.array(xs, dtype=float))
    want = [oracles.cover_count(dom, lam, x) for x in xs]
    assert got.tolist() == want


def test_blocked_equals_unblocked(monkeypatch):
    dom = two_interval_domain()
    lo, hi = _boxes(dom)
    rng = np.random.default_rng(11)
    pts = rng.uniform(-60, 60, size=(5000, 1))  # two translate chunks
    xs = rng.uniform(-2, 2, size=(150, 1))  # three row blocks at the default budget
    field, count = power_sum_field(lo, hi, pts, xs), cover_count(lo, hi, pts, xs)
    monkeypatch.setattr(spectile.kernels, "_PAIR_BUDGET", 7)
    assert np.array_equal(power_sum_field(lo, hi, pts, xs), field)
    assert np.array_equal(cover_count(lo, hi, pts, xs), count)
