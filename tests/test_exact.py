"""The radical-slice vanishing test against division by Φ_q."""

import random

from oracles import cyclotomic_sum_vanishes
from spectile.exact import sum_of_roots_of_unity_is_zero


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
