"""Every budget of `spectile.errors.BUDGETS` pinned at its edge: with the
limit set small, the largest input within it runs, and one unit more is
refused with BudgetExceeded before any of the work the budget bounds."""

import importlib
from fractions import Fraction as F
from pathlib import Path

import pytest

import spectile.cli
import spectile.criteria
import spectile.fourier
import spectile.geometry
import spectile.kernels
import spectile.search
from spectile.cli import main
from spectile.criteria import Status, check_orthogonality
from spectile.errors import BUDGETS, BudgetExceeded
from spectile.fourier import coset_in_zero_set, roots_1d, zero_set
from spectile.geometry import box, interval, multiplicity, unit_cube, validate_domain
from spectile.lattice import Lattice, PeriodicSet, diagonal_lattice, integer_lattice, periodic_set, window
from spectile.search import SearchProblem, search_spectra, search_tilings

FIXTURES = Path(__file__).parent.parent / "fixtures"


def must_not_run(*args):
    raise AssertionError("work started past the budget")


def problem(dom, periods, step):
    return SearchProblem(dom, diagonal_lattice(periods), F(step))


def test_search_candidates_edge(budget):
    # the unit interval with period 2 on the 1/4 grid: 8 candidates
    budget("search_candidates", 8)
    for search in (search_spectra, search_tilings):
        assert [s.reps for s in search(problem(unit_cube(1), [2], F(1, 4)))] == [((0,), (1,))]
    # period 3 on the 1/3 grid: 9, refused as the problem is made
    with pytest.raises(BudgetExceeded, match="^9 grid candidates per period exceed"):
        problem(unit_cube(1), [3], F(1, 3))


# (0, 1/3) ∪ (1, 4/3) ∪ (2, 7/3) with period 3 on the 1/3 grid has 3² anchored
# spectra; the unit square in the 3 × 1 torus on the 1/4 grid, 4² tilings
@pytest.mark.parametrize(
    "p, search, check, count",
    [
        pytest.param(
            problem(validate_domain([interval(a, a + F(1, 3)) for a in range(3)]), [3], F(1, 3)),
            search_spectra, "check_spectrum_periodic", 9, id="spectra",
        ),
        pytest.param(problem(unit_cube(2), [3, 1], F(1, 4)), search_tilings, "check_set_tiling", 16, id="tilings"),
    ],
)
def test_search_solutions_edge(monkeypatch, budget, p, search, check, count):
    budget("search_solutions", count)
    assert len(search(p)) == count
    budget("search_solutions", count - 1)
    monkeypatch.setattr(spectile.search, check, must_not_run)
    with pytest.raises(BudgetExceeded, match=f"^{count} rep sets exceed"):
        search(p)


def test_cells_edge(monkeypatch, budget):
    # the unit square on the basis [[1, 1/2], [0, 1]]: N = 4 reps on 2Z², so
    # N²·boxes = 16 is spent before they are built, and their 4 translates ×
    # 4·2 torus cells = 32 before any cover is computed
    square = validate_domain([box([0, 0], [1, 1])])
    lam = periodic_set(Lattice(((F(1), F(1, 2)), (F(0), F(1)))), [[0, 0]])
    budget("cells", 32)
    assert multiplicity(square, lam).is_tiling()
    monkeypatch.setattr(spectile.geometry, "torus_cover", must_not_run)
    for limit in (31, 16):
        budget("cells", limit)
        with pytest.raises(BudgetExceeded, match="^32 box translates × torus cells exceed"):
            multiplicity(square, lam)
    budget("cells", 15)
    monkeypatch.setattr(PeriodicSet, "rectangularized", must_not_run)
    with pytest.raises(BudgetExceeded, match="^16 box translates × torus cells exceed"):
        multiplicity(square, lam)


def test_orthogonality_pairs_edge(monkeypatch, budget):
    # 2Z + {0, 1}: 2² rep differences; Z in (−1, 4): 4 points, 6 pairs
    lam = periodic_set(diagonal_lattice([2]), [[0], [1]])
    points = window(periodic_set(integer_lattice(1), [[0]]), box([-1], [4]))
    for ps, n in ((lam, 4), (points, 6)):
        budget("orthogonality_pairs", n)
        assert check_orthogonality(unit_cube(1), ps).status == Status.HOLDS
    for name in ("coset_in_zero_set", "in_zero_set"):
        monkeypatch.setattr(spectile.criteria, name, must_not_run)
    monkeypatch.setattr(PeriodicSet, "rectangularized", must_not_run)
    for ps, n in ((lam, 4), (points, 6)):
        budget("orthogonality_pairs", n - 1)
        with pytest.raises(BudgetExceeded, match=f"^{n} difference pairs exceed"):
            check_orthogonality(unit_cube(1), ps)


def test_grid_points_edge(monkeypatch, budget, capsys):
    # `scan --range` samples one axis; the field grids are pinned in
    # test_criteria.test_grid_budget_refuses_before_any_array
    argv = ["scan", str(FIXTURES / "cube1_z.json"), "--profile", "power", "--range"]
    budget("grid_points", 5)
    assert main(argv + ["0:1:5"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 5
    monkeypatch.setattr(spectile.cli, "power_spectrum", must_not_run)
    assert main(argv + ["0:1:6"]) == 3
    assert "6 grid points exceed the grid_points budget of 5" in capsys.readouterr().err


def test_lattice_candidates_edge(budget):
    # Z in the window (−5, 5): k runs over ⌊−5⌋ − 1 … ⌈5⌉ + 1, 13 candidates
    zed, w = periodic_set(integer_lattice(1), [[0]]), box([-5], [5])
    budget("lattice_candidates", 13)
    assert len(window(zed, w).points) == 9
    budget("lattice_candidates", 12)
    with pytest.raises(BudgetExceeded, match="^13 lattice point candidates exceed"):
        window(zed, w)


def test_root_orders_edge(monkeypatch, budget):
    # (0, 1): P = 1 − z, 8·1 candidate orders × 2 terms
    unit = validate_domain([interval(0, 1)])
    budget("root_orders", 16)
    assert roots_1d(unit).orders == (1,)
    budget("root_orders", 15)
    monkeypatch.setattr(spectile.fourier, "_root_order_candidates", must_not_run)
    with pytest.raises(BudgetExceeded, match="^16 candidate root orders × terms exceed"):
        roots_1d(unit)


def _irrational_union():
    return validate_domain([interval(0, F(3, 5)), interval(1, F(6, 5)), interval(F(7, 5), F(8, 5)),
                            interval(2, F(13, 5))])


def test_root_degree_edge(monkeypatch, budget):
    degree = len(roots_1d(_irrational_union()).residual()) - 1
    budget("root_degree", degree)
    assert len(roots_1d(_irrational_union()).irrational_zeros) == 4
    budget("root_degree", degree - 1)
    monkeypatch.setattr(spectile.kernels, "roots", must_not_run)
    with pytest.raises(BudgetExceeded, match=f"^{degree} degrees of a residual polynomial exceed"):
        roots_1d(_irrational_union()).irrational_zeros


def test_coset_tests_edge(monkeypatch, budget):
    # the staircase, no product, has q = (2, 2): on the periods (1, 1) each
    # axis offers den(1/2) + 1 = 3 choices, so the coset Z² takes 9 tests
    staircase = validate_domain([box([0, 0], [1, F(1, 2)]), box([F(1, 2), F(1, 2)], [F(3, 2), 1])])
    z, coset = zero_set(staircase), ((F(0), F(0)), (F(1), F(1)))
    budget("coset_tests", 9)
    assert coset_in_zero_set(z, *coset) == (True, None)
    budget("coset_tests", 8)
    monkeypatch.setattr(spectile.fourier, "union_vanishes", must_not_run)
    with pytest.raises(BudgetExceeded, match="^9 zero tests exceed"):
        coset_in_zero_set(z, *coset)


# every budget's edge tests, as module.function
EDGE_TESTS = {
    "search_candidates": ["test_budgets.test_search_candidates_edge"],
    "search_solutions": ["test_budgets.test_search_solutions_edge"],
    "cells": ["test_budgets.test_cells_edge"],
    "orthogonality_pairs": ["test_budgets.test_orthogonality_pairs_edge"],
    "kernel_pairs": ["test_criteria.test_kernel_pair_budget_refuses_before_any_kernel_work"],
    "grid_points": ["test_criteria.test_grid_budget_refuses_before_any_array", "test_budgets.test_grid_points_edge"],
    "mann_coordinates": ["test_exact.test_slice_budget_refuses_before_any_class_is_reduced"],
    "lattice_candidates": ["test_budgets.test_lattice_candidates_edge"],
    "root_orders": ["test_budgets.test_root_orders_edge"],
    "binomial_passes": ["test_fourier.test_residual_budget_refuses_before_any_pass"],
    "root_degree": ["test_budgets.test_root_degree_edge"],
    "coset_tests": ["test_budgets.test_coset_tests_edge"],
}


def test_every_budget_has_an_edge_test():
    assert EDGE_TESTS.keys() == BUDGETS.keys()
    for tests in EDGE_TESTS.values():
        for path in tests:
            module, name = path.split(".")
            assert callable(getattr(importlib.import_module(module), name)), path
