"""Closed-form transforms, structured zero sets, coset tests, tail bounds.

Numeric expectations are checked against the Gauss-Legendre quadrature
oracle; zero-set factorizations (cube, two-interval, (0,2)) were derived by
hand from P(z) = Σ (z^{q·lo} - z^{q·hi}) and frozen here.
"""

import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import (
    cyclotomic_residual,
    direct_power_sum,
    quadrature_ft,
    roots_1d_reference,
    zero_set_polynomial,
)
from spectile.errors import BudgetExceeded, IrrationalData, RadiusTooSmall
from spectile import fourier
from spectile.fourier import (
    _root_order_candidates,
    coset_in_zero_set,
    ft_indicator,
    in_zero_set,
    power_spectrum,
    roots_1d,
    tail_bound,
    zero_set,
)
from spectile.geometry import (
    box,
    interval,
    two_interval_domain,
    unit_cube,
    validate_domain,
)

F = Fraction


def test_ft_at_zero_is_measure():
    for dom in (unit_cube(1), unit_cube(2), unit_cube(3), two_interval_domain()):
        assert abs(ft_indicator(dom, [0] * dom.dim) - float(dom.measure)) < 1e-12


def test_ft_cube_integer_zero():
    assert abs(ft_indicator(unit_cube(1), [1])) < 1e-15
    assert abs(ft_indicator(unit_cube(1), [-3])) < 1e-14


def test_ft_cube_half():
    assert ft_indicator(unit_cube(1), [0.5]).real == pytest.approx(2 / math.pi)
    assert power_spectrum(unit_cube(1), [0.5]) == pytest.approx(4 / math.pi**2)


def test_ft_two_interval_half_vanishes():
    # factor (1 + e^{-2πiξ}) kills ξ = 1/2; quadrature agrees
    om = two_interval_domain()
    assert abs(ft_indicator(om, [0.5])) < 1e-14
    assert abs(quadrature_ft(om, [0.5])) < 1e-12


def test_power_spectrum_is_squared_modulus():
    dom = two_interval_domain()
    for xi in (0.3, -1.7, 2.25):
        v = ft_indicator(dom, [xi])
        assert power_spectrum(dom, [xi]) == pytest.approx(abs(v) ** 2)


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(["cube1", "cube2", "two_interval", "union3"]),
    st.floats(-5, 5, allow_nan=False),
    st.floats(-5, 5, allow_nan=False),
)
def test_ft_matches_quadrature(name, x0, x1):
    doms = {
        "cube1": unit_cube(1),
        "cube2": unit_cube(2),
        "two_interval": two_interval_domain(),
        "union3": validate_domain(
            [interval(F(-3, 4), 0), interval(F(1, 4), 1), interval(F(3, 2), 2)]
        ),
    }
    dom = doms[name]
    xi = [x0, x1][: dom.dim]
    assert ft_indicator(dom, xi) == pytest.approx(quadrature_ft(dom, xi), abs=1e-8)


@given(st.floats(-20, 20, allow_nan=False))
def test_hermitian_symmetry(x):
    dom = two_interval_domain()
    assert ft_indicator(dom, [-x]) == pytest.approx(
        ft_indicator(dom, [x]).conjugate(), abs=1e-12
    )


@settings(max_examples=50)
@given(
    st.integers(-8, 8),
    st.integers(1, 6),
    st.floats(-4, 4, allow_nan=False),
)
def test_translation_modulus_invariance(num, den, x):
    dom = two_interval_domain()
    t = F(num, den)
    a = abs(ft_indicator(dom.translate([t]), [x]))
    b = abs(ft_indicator(dom, [x]))
    assert a == pytest.approx(b, abs=1e-10)


# ---------------------------------------------------------------------------
# Zero sets


def _zeros_in(ar, lo, hi, den=12):
    grid = (F(k, den) for k in range(lo * den, hi * den + 1))
    return [x for x in grid if ar.contains_rational(x)]


def test_roots_cube_axis():
    # (-1/2, 1/2): q = 2, P(z) = 1 - z^2, so den(ξ/2) ∈ {1, 2} and the zeros are Z ∖ {0}
    ar = roots_1d(unit_cube(1))
    assert (ar.q, ar.orders) == (2, (1, 2))
    assert _zeros_in(ar, -2, 2) == [-2, -1, 1, 2]
    assert not ar.irrational_zeros


def test_roots_two_interval():
    # P(z) = 1 - z + z^2 - z^3 = (1-z)(1+z^2): z=1 -> 2Z\{0}; z=±i -> 1/2+Z
    ar = roots_1d(two_interval_domain())
    assert (ar.q, ar.orders) == (2, (1, 4))
    assert _zeros_in(ar, 0, 2) == [F(1, 2), F(3, 2), 2]


def test_roots_long_interval():
    ar = roots_1d(validate_domain([interval(0, 2)]))
    assert ar.orders == (1, 2)
    assert _zeros_in(ar, -1, 1) == [-1, F(-1, 2), F(1, 2), 1]


def _family_members(ar, count=3):
    """The rational zeros q·k/n of each order n, gcd(k, n) = 1, 0 < |k| ≤ count·n."""
    for n in ar.orders:
        for k in range(-count * n, count * n + 1):
            if k and math.gcd(k, n) == 1:
                yield F(ar.q * k, n)


@pytest.mark.parametrize(
    "boxes",
    [
        [(0, F(1, 2)), (1, F(3, 2))],
        [(0, 1), (F(3, 2), 2)],
        [(F(-1, 3), F(1, 3)), (F(2, 3), 1)],
        [(0, F(1, 4)), (F(1, 2), F(3, 4)), (1, F(5, 4))],
    ],
)
def test_reported_roots_vanish(boxes):
    dom = validate_domain([interval(a, b) for a, b in boxes])
    ar = roots_1d(dom)
    for v in _family_members(ar):
        assert ar.contains_rational(v)
        assert abs(ft_indicator(dom, [v])) < 1e-10, f"rational zero {v}"
    # irrational zeros: |1̂| bounded by error bound times the derivative cap
    max_t = max(abs(float(b.hi[0])) for b in dom.boxes) + float(ar.q)
    deriv_cap = 2 * math.pi * max_t * float(dom.measure)
    for approx in ar.irrational_zeros:
        assert abs(ft_indicator(dom, [approx])) < 10 * ar._UNIT_CIRCLE_TOL * deriv_cap + 1e-12


def test_zero_set_variants():
    assert len(zero_set(unit_cube(3)).axes) == 3
    assert len(zero_set(two_interval_domain()).axes) == 1
    plain = validate_domain(
        [interval(0, 1), interval(F(3, 2), 2)]
    )
    from spectile.geometry import Box, Domain

    nonprod = Domain(
        (
            Box((F(0), F(0)), (F(1), F(1))),
            Box((F(1), F(1)), (F(2), F(3, 2))),
        )
    )
    assert not zero_set(nonprod).structured
    assert len(zero_set(plain).axes) == 1


def test_zero_set_rejects_float_endpoints():
    from spectile.geometry import Box, Domain

    with pytest.raises(IrrationalData):
        zero_set(Domain((Box((0.0,), (0.5,)),)))


def test_in_zero_set_cube_mixed_coordinates():
    z = zero_set(unit_cube(2))
    # first coordinate is a nonzero integer: exactly True even with a float second
    assert in_zero_set(z, (F(3), 0.7)) is True
    assert in_zero_set(z, (F(1, 2), F(1, 2))) is False
    assert in_zero_set(z, (F(0), F(0))) is False
    # no exact axis hit and a float coordinate: numeric, False only when clearly nonzero
    assert in_zero_set(z, (F(1, 2), 0.3)) is False
    assert in_zero_set(z, (F(1, 2), 1.0)) is None


def test_in_zero_set_two_interval():
    z = zero_set(two_interval_domain())
    assert in_zero_set(z, (F(3, 2),)) is True
    assert in_zero_set(z, (F(2),)) is True
    assert in_zero_set(z, (F(1),)) is False
    # a float at a true zero is not decided: the tolerance cannot tell it from a near miss
    assert in_zero_set(z, (1.5,)) is None


def test_in_zero_set_numeric_near_band():
    dom = unit_cube(1)
    z = zero_set(dom)
    # pick x with |ft| between tol and 11 tol: |sinc| grows ~ (pi^2/3) dx near 1
    target = 5e-9
    dx = target / abs(
        (ft_indicator(dom, [1 + 1e-6]) - ft_indicator(dom, [1])).real / 1e-6
    )
    assert in_zero_set(z, (1 + dx,)) is None
    assert in_zero_set(z, (1 + 3 * dx,)) is False  # above 11·tol


# ---------------------------------------------------------------------------
# Coset membership


def test_coset_cube_integer_difference():
    z = zero_set(unit_cube(1))
    ok, _ = coset_in_zero_set(z, (F(1),), (F(2),))
    assert ok


def test_coset_cube_half_difference_fails():
    z = zero_set(unit_cube(1))
    ok, witness = coset_in_zero_set(z, (F(1, 2),), (F(2),))
    assert not ok
    assert witness == (F(1, 2),)


def test_coset_two_interval():
    z = zero_set(two_interval_domain())
    assert coset_in_zero_set(z, (F(1, 2),), (F(2),))[0]
    assert coset_in_zero_set(z, (F(3, 2),), (F(2),))[0]
    assert not coset_in_zero_set(z, (F(1),), (F(2),))[0]


def test_coset_cube2_column_pair():
    z = zero_set(unit_cube(2))
    # inter-column difference (1, 1/2): first axis covers (odd integers)
    ok, _ = coset_in_zero_set(z, (F(1), F(1, 2)), (F(2), F(1)))
    assert ok
    # zero offset: lattice coset diag(2,1)Z^2 \ {0}
    ok, _ = coset_in_zero_set(z, (F(0), F(0)), (F(2), F(1)))
    assert ok
    # (1/2, 1/2) offset: (1/2, 1/2) itself breaks both axes
    ok, witness = coset_in_zero_set(z, (F(1, 2), F(1, 2)), (F(2), F(1)))
    assert not ok
    assert witness is not None and witness[0] % 1 == F(1, 2)


# ---------------------------------------------------------------------------
# Interval hits


def test_rational_family_in_interval():
    cube, pair = roots_1d(unit_cube(1)), roots_1d(two_interval_domain())
    assert cube.zero_in(F(-1), F(1)) == (None, 0)
    assert cube.zero_in(F(1, 2), F(3, 2)) == (1, 0)
    assert pair.zero_in(F(-2), F(0)) == (F(-3, 2), 0)
    # endpoints are not hits, and the least zero is named: -5/2 before -2
    assert pair.zero_in(F(1, 2), F(3, 2)) == (None, 0)
    assert pair.zero_in(F(-3), F(3)) == (F(-5, 2), 0)


_COSET_DOMAINS = {
    "cube1": unit_cube(1),
    "two_interval": two_interval_domain(),
    "long": validate_domain([interval(0, 2)]),
}
# (0,1)×(0,½) ∪ (½,3⁄2)×(½,1): it tiles with Z², but is no product of intervals
_STAIRCASE = validate_domain([box([0, 0], [1, F(1, 2)]), box([F(1, 2), F(1, 2)], [F(3, 2), 1])])


def test_staircase_zeros_are_exact():
    z = zero_set(_STAIRCASE)
    # Z² ∖ 0 is a spectrum; (1/2, 0) and (0, 1/2) are not zeros, (2, 1/2) is
    # (ξ₁ ∈ 2·Z ∖ 0 kills every box factor)
    for xi, want in [((1, 0), True), ((0, 1), True), ((3, -7), True), ((F(1, 2), 0), False),
                     ((0, F(1, 2)), False), ((2, F(1, 2)), True), ((0, 0), False)]:
        assert in_zero_set(z, tuple(map(F, xi))) is want
    assert coset_in_zero_set(z, (F(0), F(0)), (F(1), F(1))) == (True, None)
    assert coset_in_zero_set(z, (F(1, 4), F(0)), (F(1), F(1))) == (False, (F(1, 4), F(0)))


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(sorted(_COSET_DOMAINS)),
    st.integers(-60, 60),
    st.integers(1, 6),
    st.integers(1, 40),
    st.integers(1, 6),
)
def test_rational_zero_in_is_the_least_zero(name, an, ad, wn, wd):
    """Against the first point of (1/12)·Z in (a, b) where |1̂| vanishes in floats."""
    dom = _COSET_DOMAINS[name]
    a, b = F(an, ad), F(an, ad) + F(wn, wd)
    grid = (F(k, 12) for k in range(math.floor(a * 12), math.ceil(b * 12) + 1))
    brute = next(
        (x for x in grid if a < x < b and x != 0 and abs(ft_indicator(dom, [x])) < 1e-9), None
    )
    assert roots_1d(dom).zero_in(a, b) == (brute, 0)  # no irrational zeros here


def test_irrational_family_in_interval():
    # the families x + 5·Z, x ≈ 0.3027, 0.7050, 4.2950, 4.6973; the rational zeros are (5/4)·Z ∖ 0
    ar = roots_1d(_irrational_union())
    x = ar.irrational_zeros[0]
    assert ar.zero_in(F(1, 4), F(1, 2)) == (x, 0)
    assert ar.zero_in(F(21, 4), F(11, 2)) == (x + 5, 0)
    assert ar.zero_in(F(1, 2), F(3, 5)) == (None, 0)
    assert ar.zero_in(F(1, 4), F(3, 2)) == (F(5, 4), 0)  # a rational zero is exact and comes first
    # an end within the error bound of x straddles: x is not strictly inside
    near = F(x - 5e-9)
    assert ar.zero_in(near, F(1, 2)) == (None, 1)
    assert ar.zero_in(near, F(3, 4)) == (ar.irrational_zeros[1], 1)
    assert roots_1d(unit_cube(1)).zero_in(F(0), F(1, 2)) == (None, 0)


# ---------------------------------------------------------------------------
# Tail bounds and the cube tiling identity


def test_tail_bound_cube_matches_integral_comparison():
    tb = tail_bound(unit_cube(1), 1.0, 1000.0)
    assert tb.rigorous
    # independent integral-comparison oracle: 2 Σ_{n>999} 1/(π² n²) ≈ 2/(π²·999)
    oracle = 2 / (math.pi**2 * 999)
    assert tb.bound == pytest.approx(oracle, rel=0.15)
    assert 1.8e-4 < tb.bound < 2.3e-4


def test_tail_bound_shrinks_like_inverse_radius():
    a = tail_bound(unit_cube(1), 1.0, 1000.0).bound
    b = tail_bound(unit_cube(1), 1.0, 1e6).bound
    assert b / a == pytest.approx(1e-3, rel=0.05)


def test_tail_bound_flags():
    from spectile.geometry import Box, Domain

    nonprod = Domain(
        (
            Box((F(0), F(0)), (F(1), F(1))),
            Box((F(1), F(1)), (F(2), F(3, 2))),
        )
    )
    assert not tail_bound(nonprod, 1.0, 50.0).rigorous
    assert tail_bound(unit_cube(2), 1.0, 50.0).rigorous  # a product of intervals
    with pytest.raises(RadiusTooSmall):
        tail_bound(unit_cube(1), 1.0, 0.5)


def test_tail_bound_dominates_true_tail():
    # actual truncated mass for Λ = Z at x in [0,1): Σ_{|n|>R} sinc²(x-n)
    rng = np.random.default_rng(7)
    xs = rng.uniform(0, 1, size=50)
    inner = np.arange(-3000, 3001)
    outer_mass = []
    for x in xs:
        u = x - inner
        full = np.sum(np.sinc(u) ** 2)  # = 1 up to fp error
        near = np.sum(np.sinc(x - np.arange(-1000, 1001)) ** 2)
        outer_mass.append(full - near)
    tb = tail_bound(unit_cube(1), 1.0, 1000.0)
    assert max(outer_mass) <= tb.bound


def test_cube_tiling_identity_truncated():
    # Σ_{|n|≤1000} |1̂_Q(x-n)|² ∈ [1 - 3e-4, 1] for random x
    rng = np.random.default_rng(42)
    xs = rng.uniform(0, 1, size=1000).reshape(-1, 1)
    pts = np.arange(-1000, 1001, dtype=float).reshape(-1, 1)
    vals = direct_power_sum(unit_cube(1), pts, xs)
    assert np.all(vals <= 1 + 1e-9)
    assert np.all(vals >= 1 - 3e-4)


def _irrational_union():
    # trig polynomial with unit-circle roots that are not roots of unity
    return validate_domain(
        [
            interval(0, F(3, 5)),
            interval(1, F(6, 5)),
            interval(F(7, 5), F(8, 5)),
            interval(2, F(13, 5)),
        ]
    )


def test_roots_with_irrational_phases():
    ar = roots_1d(_irrational_union())
    # the rational zeros are (5/4)·Z ∖ {0}; the irrational ones repeat modulo q = 5
    assert (ar.q, ar.orders) == (5, (1, 2, 4))
    assert _zeros_in(ar, 0, 5, 20) == [F(5, 4), F(5, 2), F(15, 4), 5]
    assert len(ar.irrational_zeros) == 4
    dom = _irrational_union()
    for approx in ar.irrational_zeros:
        assert abs(ft_indicator(dom, [approx])) < 1e-10
    # smallest positive root is irrational, ≈ 0.3027
    assert 0.30 < ar.irrational_zeros[0] < 0.31


def _check_against_reference(dom, samples=200):
    """The reference's irrational zeros are ar's, its rational phases and their
    family members are zeros, and sampled rationals are zeros exactly when they
    lie in the family."""
    ar = roots_1d(dom)
    period, phases, irrational = roots_1d_reference(dom)
    assert ar.irrational_zeros == irrational
    for ph in phases:
        for k in range(-2, 3):
            if ph + k * period != 0:
                assert ar.contains_rational(ph + k * period)
    rng = np.random.default_rng(len(dom.boxes))
    members = set(phases)
    for num, den in zip(rng.integers(-400, 400, samples), rng.integers(1, 60, samples)):
        x = F(int(num), int(den)) * ar.q
        assert ar.contains_rational(x) == (x != 0 and x % period in members)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(1, 30),
    st.integers(-30, 30),
    st.lists(st.tuples(st.integers(0, 8), st.integers(1, 8)), min_size=1, max_size=5),
    st.booleans(),
)
def test_roots_1d_matches_cyclotomic_reference(den, start, gaps_widths, mirror):
    """Mann-filtered orders and Mann-class tests give the same rational and
    irrational phases as dividing out every Φ_n with φ(n) ≤ deg.
    Mirrored unions (at most 4 boxes) have real irrational zeros."""
    ends, x = [], start
    for gap, width in gaps_widths[:2] if mirror else gaps_widths:
        ends.append((x + gap, x + gap + width))
        x += gap + width
    if mirror:  # reflect about x + gap/2, with the first gap in the middle
        ends += [(2 * x + gaps_widths[0][0] - b, 2 * x + gaps_widths[0][0] - a) for a, b in ends]
    dom = validate_domain([interval(F(a, den), F(b, den)) for a, b in ends])
    _check_against_reference(dom)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    st.integers(1, 30),
    st.integers(-30, 30),
    st.lists(st.tuples(st.integers(0, 8), st.integers(1, 8)), min_size=1, max_size=5),
    st.booleans(),
)
def test_residual_matches_dense_division(den, start, gaps_widths, mirror):
    """The binomial batch leaves what long division by every Φ_n, as often
    as it divides, leaves, on random and mirrored unions."""
    ends, x = [], start
    for gap, width in gaps_widths[:2] if mirror else gaps_widths:
        ends.append((x + gap, x + gap + width))
        x += gap + width
    if mirror:
        ends += [(2 * x + gaps_widths[0][0] - b, 2 * x + gaps_widths[0][0] - a) for a, b in ends]
    dom = validate_domain([interval(F(a, den), F(b, den)) for a, b in ends])
    ar = roots_1d(dom)
    residual, orders = cyclotomic_residual(zero_set_polynomial(dom)[1])
    assert ar.residual() == residual
    assert set(ar.orders) == orders


@pytest.mark.parametrize(
    "ends, orders",
    [([(0, 2), (3, 5)], (1, 2, 6)), ([(0, 1), (2, 6), (7, 8)], (1, 2, 3, 6))],
    ids=["phi2_twice", "phi6_twice"],
)
def test_residual_divides_repeated_factors(ends, orders):
    # P = −Φ_1·Φ_2²·Φ_6 and −Φ_1·Φ_2·Φ_3·Φ_6²: only the sign is left
    ar = roots_1d(validate_domain([interval(a, b) for a, b in ends]))
    assert ar.orders == orders
    assert ar.residual() == [-1]
    assert ar.irrational_zeros == ()


def test_residual_budget_refuses_before_any_pass(monkeypatch, budget):
    # (0, 2) ∪ (3, 5): −Φ_1·Φ_2²·Φ_6 has the net binomials (x³ − 1)^−1 (x² − 1)(x⁶ − 1),
    # so one multiplication and two divisions over up to 6 + 3 coefficients
    dom = validate_domain([interval(0, 2), interval(3, 5)])
    passes = []
    for name in ("times_binomial", "over_binomial"):
        real = getattr(fourier, name)
        monkeypatch.setattr(fourier, name, lambda p, d, real=real: passes.append(len(p)) or real(p, d))
    budget("binomial_passes", 3 * 9)  # at the budget
    assert roots_1d(dom).residual() == [-1]
    assert passes == [6, 9, 3]
    passes.clear()
    budget("binomial_passes", 3 * 9 - 1)
    with pytest.raises(BudgetExceeded, match="^27 binomial passes × coefficients exceed"):
        roots_1d(dom).residual()
    with pytest.raises(BudgetExceeded):
        roots_1d(dom).irrational_zeros
    assert passes == []


def test_roots_1d_matches_cyclotomic_reference_on_fine_cells():
    # 64 of the 128 cells [k/128, (k+1)/128), the first and last always in
    rng = np.random.default_rng(7)
    ks = sorted({0, 127, *(int(k) for k in rng.choice(np.arange(1, 127), 62, replace=False))})
    dom = validate_domain([interval(F(k, 128), F(k + 1, 128)) for k in ks])
    _check_against_reference(dom)


def test_roots_1d_tests_only_mann_orders():
    # P(z) = 1 − z^500 + z^2000 − z^2501: 4 terms, so a root order divides
    # M_4·Δ = 6·Δ for a gap Δ to the first exponent; only z = 1 is a root
    dom = validate_domain([interval(0, F(1, 2)), interval(2, F(2501, 1000))])
    t0 = time.perf_counter()
    ar = roots_1d(dom)
    assert time.perf_counter() - t0 < 1.0
    exps = [e for e, _ in ar.terms]
    assert exps == [0, 500, 2000, 2501]
    candidates = _root_order_candidates(exps)
    assert all(any(6 * d % n == 0 for d in (500, 2000, 2501)) for n in candidates)
    assert {1, 4, 8, 24, 41, 123} <= set(candidates)
    assert ar.orders == (1,)


def test_roots_1d_refuses_over_budget_before_enumerating(monkeypatch):
    def no_enumeration(*args):
        raise AssertionError("candidate orders enumerated before the budget check")

    monkeypatch.setattr(fourier, "_root_order_candidates", no_enumeration)
    dom = validate_domain([interval(0, F(1, 2)), interval(2, 2 + F(1, 999983))])
    with pytest.raises(BudgetExceeded):
        roots_1d(dom)


def test_rational_query_near_irrational_root_is_exact_no():
    z = zero_set(_irrational_union())
    # 3/10 sits within 3e-3 of an irrational root but is exactly not a zero
    assert in_zero_set(z, (F(3, 10),)) is False


@settings(max_examples=120, deadline=None)
@given(
    st.sampled_from(["cube1", "two_interval", "long"]),
    st.integers(-12, 12),
    st.integers(1, 4),
    st.integers(1, 4),
)
def test_coset_decision_matches_pointwise_enumeration(name, dnum, dden, c):
    """The whole-coset verdict must equal exhaustively testing coset points."""
    z = zero_set(_COSET_DOMAINS[name])
    delta = F(dnum, dden)
    ok, witness = coset_in_zero_set(z, (delta,), (F(c),))
    # enumerate enough of the coset to cover every residue class and the origin
    points = [delta + k * c for k in range(-60, 61)]
    brute = all(in_zero_set(z, (x,)) for x in points if x != 0)
    assert ok == brute
    if not ok:
        assert witness is not None
        (w,) = witness
        assert w != 0 and (w - delta) % c == 0
        assert in_zero_set(z, (w,)) is False


def _random_union(data, d):
    """A random union of grid cells that is no product: per-axis cuts at
    random rationals over 1, 2, 3 or 4, and a random subset of the cells."""
    cuts = []
    for _ in range(d):
        den = data.draw(st.sampled_from([1, 2, 3, 4]))
        nums = data.draw(st.lists(st.integers(-6, 6), min_size=3, max_size=4, unique=True))
        cuts.append(sorted(F(n, den) for n in nums))
    cells = list(itertools.product(*(range(len(c) - 1) for c in cuts)))
    chosen = data.draw(st.lists(st.sampled_from(cells), min_size=2, max_size=6, unique=True))
    dom = validate_domain(
        [box([c[i] for c, i in zip(cuts, cell)], [c[i + 1] for c, i in zip(cuts, cell)]) for cell in chosen]
    )
    assume(dom.factors() is None)
    return dom


def _is_zero(dom, xi) -> bool:
    return abs(ft_indicator(dom, [float(x) for x in xi])) < 1e-12


@settings(max_examples=120, deadline=None, derandomize=True)
@given(data=st.data())
def test_union_membership_agrees_with_abs_ft(data):
    """On a union that is no product, a rational ξ is an exact zero iff |1̂_Ω(ξ)| < 1e-12."""
    dom = _random_union(data, data.draw(st.sampled_from([2, 3])))
    z = zero_set(dom)
    assert not z.structured
    coord = st.builds(F, st.integers(-24, 24), st.sampled_from([1, 2, 3, 4, 6, 12]))
    for xi in data.draw(st.lists(st.tuples(*[coord] * dom.dim), min_size=25, max_size=25)):
        assert in_zero_set(z, xi) is _is_zero(dom, xi)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_union_coset_matches_enumeration(data):
    """The coset verdict on a 2-D union that is no product equals testing every
    coset point δ + diag(c)·k over a box of k that holds each residue class
    twice and the index of the origin."""
    dom = _random_union(data, 2)
    z = zero_set(dom)
    delta = tuple(F(data.draw(st.integers(-12, 12)), data.draw(st.sampled_from([1, 2, 6]))) for _ in range(2))
    c = tuple(F(data.draw(st.sampled_from([1, 2, 3, 4, 6, 12])), data.draw(st.sampled_from([1, 2, 3]))) for _ in range(2))
    ok, witness = coset_in_zero_set(z, delta, c)
    q, _ = z.domain.grid
    ranges = []
    for dj, cj, qj in zip(delta, c, q):
        k = (cj / qj).denominator + abs(dj / cj) + 1
        ranges.append(range(-int(k), int(k) + 1))
    points = [tuple(dj + kj * cj for dj, kj, cj in zip(delta, ks, c)) for ks in itertools.product(*ranges)]
    assert ok == all(_is_zero(dom, p) for p in points if any(p))
    if not ok:
        assert any(witness) and not _is_zero(dom, witness)
        assert all(((w - dj) / cj).denominator == 1 for w, dj, cj in zip(witness, delta, c))


def _random_product(data, d):
    """A random product of 1-D unions: per axis one or two intervals with ends
    over 1, 2 or 3.  A single interval of width a/q has the zeros (q/a)·Z ∖ 0,
    so its least period is q/a, and den(c/q) exceeds den(c/(q/a)) whenever a
    shares a prime with den(c/q)."""
    factors = []
    for _ in range(d):
        den = data.draw(st.sampled_from([1, 2, 3]))
        ends = sorted(data.draw(st.lists(st.integers(-4, 6), min_size=2, max_size=4, unique=True)))
        ends = ends[: len(ends) // 2 * 2]
        factors.append([(F(a, den), F(b, den)) for a, b in zip(ends[::2], ends[1::2])])
    cells = itertools.product(*factors)
    return validate_domain([box([lo for lo, _ in c], [hi for _, hi in c]) for c in cells])


@settings(max_examples=120, deadline=None, derandomize=True)
@given(data=st.data())
def test_product_coset_matches_union_route(data):
    """On a product the per-axis walk modulo q_j and the union route (every
    residue class, `union_vanishes`) agree on the coset, and the walk's
    witness is a nonzero coset point where 1̂_Ω does not vanish."""
    d = data.draw(st.sampled_from([2, 3]))
    dom = _random_product(data, d)
    z = zero_set(dom)
    assert z.structured
    union = fourier.ZeroSet(dom, None)
    delta = tuple(F(data.draw(st.integers(-12, 12)), data.draw(st.sampled_from([1, 2, 3, 6]))) for _ in range(d))
    c = tuple(F(data.draw(st.sampled_from([1, 2, 3, 4, 6])), data.draw(st.sampled_from([1, 2, 3, 6]))) for _ in range(d))
    ok, witness = coset_in_zero_set(z, delta, c)
    assert ok == coset_in_zero_set(union, delta, c)[0]
    if not ok:
        assert any(witness)
        assert all(((w - dj) / cj).denominator == 1 for w, dj, cj in zip(witness, delta, c))
        assert not fourier.union_vanishes(union, witness)


class _CountingSet(frozenset):
    def __contains__(self, item):
        self.tests += 1
        return super().__contains__(item)


def test_coset_walk_is_bounded_by_degree():
    # den(c_j/q_j) = 10⁶ on both axes, yet the walk stops at the first bad
    # residue: at most deg P_j + 1 order-set tests per axis
    dom = validate_domain([box([0, 0], [1, F(1, 2)]), box([F(3, 2), 0], [F(5, 2), F(1, 2)])])
    z = zero_set(dom)
    for ar in z.axes:
        counter = _CountingSet(ar.orders)
        counter.tests = 0
        ar.__dict__["order_set"] = counter
    periods = tuple(ar.q * F(1, 10**6) for ar in z.axes)
    ok, witness = coset_in_zero_set(z, (F(1, 2), F(0)), periods)
    assert ok is False and witness[1] != 0
    for ar in z.axes:
        assert 0 < ar.order_set.tests <= ar.terms[-1][0] + 1


def test_tail_bound_2d_product_dominates_true_tail():
    # true mass outside the ℓ∞ window of radius R for Λ = Z², at random x
    rng = np.random.default_rng(12)
    r = 30
    big = 6 * r
    n = np.arange(-big, big + 1)
    tb = tail_bound(unit_cube(2), 1.0, float(r))
    assert tb.rigorous
    worst = 0.0
    for x1, x2 in rng.uniform(0, 1, size=(20, 2)):
        s1 = np.sinc(x1 - n) ** 2
        s2 = np.sinc(x2 - n) ** 2
        inside = np.abs(n) <= r
        full = np.sum(s1) * np.sum(s2)
        windowed = np.sum(s1[inside]) * np.sum(s2[inside])
        worst = max(worst, full - windowed)
    assert worst <= tb.bound
    # and the bound still shrinks like 1/R
    ratio = tail_bound(unit_cube(2), 1.0, 3000.0).bound / tail_bound(
        unit_cube(2), 1.0, 300.0
    ).bound
    assert ratio == pytest.approx(0.1, rel=0.2)
