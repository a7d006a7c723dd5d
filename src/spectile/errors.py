"""Exception types raised by the exact and numeric pipelines."""

from __future__ import annotations


class SpectileError(Exception):
    """Base class for all toolkit errors."""


class DimensionMismatch(SpectileError):
    pass


class OverlapError(SpectileError):
    """Two boxes of a would-be domain share interior points."""

    def __init__(self, i: int, j: int, point):
        self.indices = (i, j)
        self.point = point
        pretty = ", ".join(str(c) for c in point)
        super().__init__(f"boxes {i} and {j} overlap at ({pretty})")


class IrrationalData(SpectileError):
    """Non-rational input reached an exact-only code path."""


class NotDualPoint(SpectileError):
    """The frequency is not a point of the dual lattice."""


class RadiusTooSmall(SpectileError):
    pass


class BudgetExceeded(SpectileError):
    """A computation's pre-flight cost estimate exceeds its fixed budget."""


class MeasureNotOne(SpectileError):
    pass


class IntegralMismatch(SpectileError):
    pass


class PreconditionFailed(SpectileError):
    """A check's mathematical precondition does not hold for the given data."""


class MissingDependency(SpectileError):
    """A numeric route needs numpy, and this interpreter has none."""


class SchemaError(SpectileError):
    """A problem file does not match the expected JSON schema."""


# Every limit on the work of one computation, by name: the limit and the
# unit it counts.  Each is spent (`spend`) before the work it bounds starts,
# so an input over a limit does none of that work.  The comment on each gives
# the wall time at the limit on one core of a 2-vCPU Xeon with Python 3.11,
# measured, or extrapolated where it says so.
BUDGETS: dict[str, tuple[int, str]] = {
    # `search.SearchProblem`: a 1-D search of the unit interval on 2048
    # candidates per unit, 0.26 s for spectra or tilings.
    "search_candidates": (4096, "grid candidates per period"),
    # Cliques or exact covers a search lists before it verifies them: the
    # 6 561 spectra of a 9-interval comb take 2.9 s and 187 MB end to end,
    # extrapolated to 4–5 s and 300 MB at the limit.
    "search_solutions": (10_000, "rep sets"),
    # `geometry.multiplicity`: reps × boxes × torus cells, and N²·boxes
    # before a skew Λ is rectangularized into N reps.  3–4 s and 40 MB for a
    # dense covering, 0.1 s for a sparse 3-D one.
    "cells": (10**7, "box translates × torus cells"),
    # `criteria.check_orthogonality`: N² rep differences of a periodic set,
    # 6.9 s for the 3 162 reps of a skew lattice (most of it rectangularizing);
    # the pairs of a point list, 39 s for 4 472 integer points.
    "orthogonality_pairs": (10**7, "difference pairs"),
    # A windowed kernel field or coverage count: 1 s for one box on a 64²
    # grid and 244 140 translates.
    "kernel_pairs": (10**9, "(grid point, translate) pairs"),
    # One sampling grid (nᵈ points, or `--range` samples): `scan --profile
    # defect` of Z² on a 1000² grid 1.5 s and 24 MB, of Z³ on 100³ 1.7 s.
    "grid_points": (10**6, "grid points"),
    # `exact.sum_of_roots_of_unity_is_zero`: Mann classes × their order m;
    # one class of m = 2·3·…·19 = 9 699 690 whose rewrite grows to 1.7·10⁶
    # terms takes 0.7 s and 180 MB.
    "mann_coordinates": (10**7, "Mann class coordinates"),
    # `lattice._lattice_points`, per offset: listing and filtering 5·10⁶
    # candidates of Z² takes 7 s, before any work on the points.
    "lattice_candidates": (5_000_000, "lattice point candidates"),
    # `fourier.roots_1d`: 8·deg candidate orders × terms, 2 s.
    "root_orders": (10**7, "candidate root orders × terms"),
    # `fourier.AxisRoots.residual`: passes × longest coefficient list, at most
    # 90 ns a coefficient whatever d (`exact.over_binomial`); one pass over
    # 10⁷ coefficients takes 0.3–0.9 s.
    "binomial_passes": (10**7, "binomial passes × coefficients"),
    # `fourier.AxisRoots.irrational_zeros`: `kernels.roots` is O(deg³), 1.9 s
    # at degree 1000.
    "root_degree": (1000, "degrees of a residual polynomial"),
    # `fourier._union_coset`: zero tests of one coset of a union that is no
    # product, 10–50 µs each, so 1–5 s.
    "coset_tests": (10**5, "zero tests"),
}


def spend(name: str, work: int) -> None:
    """Refuse, with BudgetExceeded, `work` units of the budget `name` when they
    exceed its limit in `BUDGETS`; callers spend before the work starts."""
    limit, unit = BUDGETS[name]
    if work > limit:
        raise BudgetExceeded(f"{work} {unit} exceed the {name} budget of {limit}")
