"""The numpy field kernel against a direct oracle and the scalar transform."""

import numpy as np
import pytest

from oracles import direct_power_sum
from spectile.fourier import power_spectrum
from spectile.geometry import two_interval_domain, unit_cube
from spectile.kernels import backend_name, power_sum_field


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
