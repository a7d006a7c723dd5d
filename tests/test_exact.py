"""The Mann-class vanishing test against division by Φ_q and radical slices;
cyclotomic polynomials as Möbius binomials, and the binomial passes."""

import cmath
import math
import random

import pytest

import spectile.exact
from oracles import _poly_divmod, cyclotomic_sum_vanishes, radical_slice_sum_vanishes
from spectile.errors import BudgetExceeded
from spectile.exact import cyclotomic, over_binomial, sum_of_roots_of_unity_is_zero, times_binomial


def _sums(q: int, rng: random.Random):
    """A random unit sum, a planted vanishing sum, and the planted sum plus a
    few random signed terms; exponents run past q so reduction is exercised."""
    yield [rng.randrange(3 * q) for _ in range(rng.randint(0, 12))], None
    divisors = [d for d in range(2, q + 1) if q % d == 0]
    exps, coeffs = [], []
    for _ in range(rng.randint(1, 3) if divisors else 0):
        # a full orbit of ζ^{q/d}, scaled and rotated: it sums to 0
        d, a, c = rng.choice(divisors), rng.randrange(q), rng.choice([-2, -1, 1, 2])
        exps += [a + j * (q // d) for j in range(d)]
        coeffs += [c] * d
    yield exps, coeffs
    extra = rng.randint(1, 3)
    yield exps + [rng.randrange(2 * q) for _ in range(extra)], coeffs + [
        rng.choice([-1, 1]) for _ in range(extra)
    ]


def test_vanishing_matches_cyclotomic_division_for_every_q_to_2000():
    rng = random.Random(20001)
    seen = {True: 0, False: 0}
    for q in range(1, 2001):
        for exps, coeffs in _sums(q, rng):
            want = cyclotomic_sum_vanishes(exps, q, coeffs)
            assert sum_of_roots_of_unity_is_zero(exps, q, coeffs) == want, (q, exps, coeffs)
            seen[want] += 1
    assert min(seen.values()) > 1000  # both answers are well represented


def test_vanishing_unit_coefficients_default():
    # 1 + ζ_6^2 + ζ_6^4 = 0, 1 + ζ_6 ≠ 0, and the empty sum is 0
    assert sum_of_roots_of_unity_is_zero([0, 2, 4], 6)
    assert not sum_of_roots_of_unity_is_zero([0, 1], 6)
    assert sum_of_roots_of_unity_is_zero([], 7)
    assert sum_of_roots_of_unity_is_zero([0, 1], 2, [3, 3])
    assert not sum_of_roots_of_unity_is_zero([0, 1], 2, [3, -3])


def _composite_orders(rng: random.Random) -> list[int]:
    """q ≤ 10⁶: multiples of 30030 and 6000, a few fixed highly composite
    orders, and random ones."""
    qs = [30030 * j for j in range(1, 34)] + [6000 * j for j in range(1, 167, 5)]
    qs += [720720, 510510, 2**19, 3**12, 997 * 1000]
    return qs + [rng.randrange(1, 10**6 + 1) for _ in range(60)]


def _planted(q: int, rng: random.Random, n_terms: int):
    """Signed orbits of ζ^{q/d} for small divisors d of q (each sums to 0),
    rotated and overlapping so that some terms merge or cancel."""
    divisors = [d for d in range(2, 61) if q % d == 0]
    exps, coeffs = [], []
    while divisors and len(exps) < n_terms:
        d = rng.choice(divisors)
        if len(exps) + d > 60:
            break
        a, c = rng.randrange(q), rng.choice([-3, -1, 1, 2])
        exps += [a + j * (q // d) for j in range(d)]
        coeffs += [c] * d
    return exps, coeffs


def test_mann_classes_match_radical_slices_on_composite_orders():
    rng = random.Random(90001)
    seen = {True: 0, False: 0}
    cases = 0
    for q in _composite_orders(rng):
        for _ in range(40):
            n = rng.randint(1, 60)
            exps, coeffs = _planted(q, rng, n)
            kind = rng.randrange(3)
            if kind == 1:  # planted plus a few stray signed terms
                extra = rng.randint(1, 3)
                exps += [rng.randrange(2 * q) for _ in range(extra)]
                coeffs += [rng.choice([-1, 1]) for _ in range(extra)]
            elif kind == 2:  # random signed terms
                exps = [rng.randrange(3 * q) for _ in range(n)]
                coeffs = [rng.choice([-2, -1, 1, 2]) for _ in range(n)]
            want = radical_slice_sum_vanishes(exps, q, coeffs)
            assert sum_of_roots_of_unity_is_zero(exps, q, coeffs) == want, (q, exps, coeffs)
            seen[want] += 1
            cases += 1
    assert cases >= 5000
    assert min(seen.values()) > 1000  # both answers are well represented


def _float_sum(exps, q, coeffs) -> complex:
    return sum(c * cmath.exp(2j * cmath.pi * (e % q) / q) for e, c in zip(exps, coeffs))


def test_planted_sums_of_huge_order_vanish_and_perturbations_do_not():
    # q ≥ 10¹⁰, far above the orders a weight was once tested at: the work
    # depends on the term count and the small primes of q, not on q
    rng = random.Random(90002)
    orders = [30030 * 10**6 + 30030 * k for k in (0, 7, 11)] + [6000 * 10**7, 2**40, 3**25, 10**12]
    perturbed_false = 0
    for q in orders:
        for _ in range(60):
            exps, coeffs = _planted(q, rng, rng.randint(2, 60))
            assert sum_of_roots_of_unity_is_zero(exps, q, coeffs), (q, exps, coeffs)
            if not exps:
                continue
            i = rng.randrange(len(exps))
            exps[i] += rng.choice([1, -1, rng.randrange(1, q)])
            got = sum_of_roots_of_unity_is_zero(exps, q, coeffs)
            if abs(_float_sum(exps, q, coeffs)) > 1e-6:
                assert not got, (q, exps, coeffs)
                perturbed_false += 1
    assert perturbed_false > 100


def test_slice_budget_refuses_before_any_class_is_reduced(budget):
    # 60 unit terms at q = 2·3·5·…·59: m = q ≈ 1.9·10²¹ coordinates, which
    # no reduction could touch, so only the pre-flight check can answer
    q = math.prod(p for p in range(2, 60) if all(p % d for d in range(2, p)))
    with pytest.raises(BudgetExceeded):
        sum_of_roots_of_unity_is_zero(range(60), q)
    # 1 + ζ_6^2 + ζ_6^4: one class of m = 6 coordinates
    budget("mann_coordinates", 5)
    with pytest.raises(BudgetExceeded):
        sum_of_roots_of_unity_is_zero([0, 2, 4], 6)
    budget("mann_coordinates", 6)
    assert sum_of_roots_of_unity_is_zero([0, 2, 4], 6)


def _expand(binomials) -> list[int]:
    """∏ (x^d − 1)^μ, the multiplications first."""
    p = [1]
    for d, mu in sorted(binomials, key=lambda b: -b[1]):
        p = times_binomial(p, d) if mu == 1 else over_binomial(p, d)
    return p


def test_cyclotomic_binomials_expand_to_long_division():
    # Φ_n by long division of x^n − 1 by every Φ_d, d | n, d < n
    dense = {}
    for n in range(1, 121):
        p = [-1] + [0] * (n - 1) + [1]
        for d in range(1, n):
            if n % d == 0:
                p, rem = _poly_divmod(p, dense[d])
                assert not rem
        dense[n] = p
        assert _expand(cyclotomic(n)) == p, n


@pytest.mark.parametrize("n", [2310, 7919, 15838, 55440, 720720])
def test_cyclotomic_binomials_invert_x_n_minus_1(n):
    # x^n − 1 = ∏_{d | n} Φ_d: the exponents of every other binomial cancel
    net = {}
    for m in (m for m in range(1, n + 1) if n % m == 0):
        for d, mu in cyclotomic(m):
            assert m % d == 0 and mu in (1, -1)
            net[d] = net.get(d, 0) + mu
    assert {d: e for d, e in net.items() if e} == {n: 1}
    assert hasattr(spectile.exact.cyclotomic, "cache_clear")


def test_binomial_passes_round_trip_and_refuse_a_remainder():
    rng = random.Random(3)
    for _ in range(2000):
        p = [rng.randint(-3, 3) for _ in range(rng.randint(0, 60))] + [1]
        d = rng.randint(1, 70)
        q = times_binomial(p, d)
        assert len(q) == len(p) + d and over_binomial(q, d) == p
        q[rng.randrange(len(q))] += 1
        assert over_binomial(q, d) is None
    assert over_binomial([1, 0, 1], 5) is None
    assert over_binomial([-1, 0, 0, 1], 3) == [1]
