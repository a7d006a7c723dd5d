"""Exact arithmetic helpers: rationals, rational matrices, integer polynomials.

Fractions carry every coordinate in the exact pipeline (box corners, lattice
bases, coset residues).  Floats are confined to the numeric frontier and never
feed back into an exact verdict.  Each change of form has one owner here:
`to_float` is the one conversion of an exact value to a float (a value beyond
the float range is an input error, not a traceback), and `scaled` puts
rationals over one common denominator as integers, the form every integer
route works in.  Both roots-of-unity decisions in the toolkit
(which unit-circle roots of a trigonometric polynomial are rational phases,
and whether an exponential sum over coset representatives vanishes) end in
`sum_of_roots_of_unity_is_zero`, which decides an integer combination of q-th
roots of unity for any q, without building Φ_q: Mann's theorem splits it
into classes of m-th roots with m squarefree and bounded by the term count,
each reduced in ⊗_{p | m} Z[ζ_p].  Cyclotomic polynomials, divided out only
of the polynomial whose other unit-circle roots are isolated numerically, are
products of binomials x^d − 1, each multiplied or divided in one linear pass.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import gcd, prod
from operator import add, neg, sub
from typing import Iterable, Sequence

from .errors import SpectileError, spend

Vec = tuple[Fraction, ...]
Mat = tuple[tuple[Fraction, ...], ...]


def as_fraction(x) -> Fraction:
    """Coerce ints/Fractions/strings like "3/4" to Fraction; reject floats."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x.strip())
    raise TypeError(f"expected an exact rational, got {type(x).__name__}: {x!r}")


def as_coordinate(x):
    """A float stays a float (it stands for an irrational); anything else goes
    through `as_fraction`."""
    return x if isinstance(x, float) else as_fraction(x)


def to_float(x) -> float:
    """float(x): the one conversion of an exact value to a float, for a numeric
    route or a float margin; SpectileError when x lies beyond the float range."""
    try:
        return float(x)
    except OverflowError:
        raise SpectileError("an exact value lies beyond the float range") from None


def lcm_int(values: Iterable[int]) -> int:
    out = 1
    for v in values:
        out = out * v // gcd(out, v)
    return out


def scaled(v: Sequence[Fraction]) -> tuple[list[int], int]:
    """Integers u and the least common denominator n with v = u / n ([] over 1 for no v)."""
    n = lcm_int(x.denominator for x in v)
    return [x.numerator * (n // x.denominator) for x in v], n


def mat_vec(m: Mat, v: Sequence[Fraction]) -> Vec:
    return tuple(sum(row[j] * v[j] for j in range(len(v))) for row in m)


def mat_transpose(m: Mat) -> Mat:
    d = len(m)
    return tuple(tuple(m[i][j] for i in range(d)) for j in range(len(m[0])))


def mat_inv(m: Mat) -> tuple[Mat | None, Fraction]:
    """The inverse and the determinant, exact, from one Gauss-Jordan pass;
    (None, 0) when m is singular."""
    d = len(m)
    a = [list(row) + [Fraction(1) if i == j else Fraction(0) for j in range(d)]
         for i, row in enumerate(m)]
    det = Fraction(1)
    for col in range(d):
        piv = next((r for r in range(col, d) if a[r][col] != 0), None)
        if piv is None:
            return None, Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(d):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return tuple(tuple(row[d:]) for row in a), det


def floor_frac(x: Fraction) -> int:
    return x.numerator // x.denominator


def ceil_frac(x: Fraction) -> int:
    return -((-x.numerator) // x.denominator)


# ---------------------------------------------------------------------------
# Integer polynomials, ascending coefficient lists, against binomials x^d − 1.


@lru_cache(maxsize=None)
def cyclotomic(n: int) -> tuple[tuple[int, int], ...]:
    """Φ_n = ∏_d (x^d − 1)^{μ(n/d)} (Möbius inversion of x^n − 1 = ∏_{d | n} Φ_d)
    as the pairs (d, μ(n/d)), d ascending, over the d | n with n/d squarefree."""
    if n < 1:
        raise ValueError("n must be positive")
    out, rest, p = [(n, 1)], n, 2
    while rest > 1:
        if p * p > rest:
            p = rest  # what is left of n is prime
        if rest % p == 0:
            out += [(d // p, -mu) for d, mu in out]
            while rest % p == 0:
                rest //= p
        p += 1
    return tuple(sorted(out))


def times_binomial(p: list[int], d: int) -> list[int]:
    """p·(x^d − 1), in one pass: coefficient i is p[i − d] − p[i]."""
    return list(map(sub, [0] * d + p, p + [0] * d))


def over_binomial(p: list[int], d: int) -> list[int] | None:
    """p / (x^d − 1) if x^d − 1 divides p, else None.  The quotient s has
    s[i] = s[i − d] − p[i], so −s is the running sum of p along each residue
    class mod d, and x^d − 1 divides p iff that sum is 0 on the top d places.
    The sums run class by class (d slices) when d² < len(p), else block by
    block (len(p)/d slice additions), so no d costs more per coefficient."""
    t = p[:]
    if d * d < len(p):
        for r in range(d):
            t[r::d] = accumulate(p[r::d])
    else:
        for i in range(d, len(p), d):
            t[i:i + d] = map(add, t[i - d:i], p[i:i + d])
    top = max(len(p) - d, 0)
    return None if any(t[top:]) else list(map(neg, t[:top]))


def sum_of_roots_of_unity_is_zero(
    exponents: Iterable[int], q: int, coeffs: Iterable[int] | None = None
) -> bool:
    """Decide Σ_j c_j ζ^{e_j} = 0 exactly for ζ a primitive q-th root of unity.

    The coefficients c_j are integers, all 1 when `coeffs` is None.  Mann
    classes: merge the terms mod q and let k count the nonzero ones.  By
    Mann's theorem (Mathematika 1965) a vanishing sum with no vanishing
    proper subsum and at most k terms has all ratios of order dividing
    ∏_{p ≤ k} p, so its exponents agree mod q/m, where m is the product of the
    primes ≤ k that divide q.  A vanishing sum splits into such subsums, so it
    vanishes iff every class e mod q/m does.  In a class, ζ^{t + (q/m)·f} =
    ζ^t·ζ_m^f with m squarefree, and ζ_m^f ↦ ⊗_p ζ_p^{f mod p} identifies
    Z[ζ_m] with ⊗_{p | m} Z[ζ_p] (CRT); 1 + ζ_p + … + ζ_p^{p-1} = 0 lets each
    axis subtract its coordinate p-1 from all p coordinates, which leaves
    coordinates 0 … p-2, a basis.  In exponents, the p-axis through e is the
    coset e + (q/p)·Z, and e's coordinate on it is ⌊e/(q/m)⌋ mod p.  The sum
    vanishes iff every coefficient is 0 after the last axis.  The work is
    O(classes · m · #primes) whatever q is; classes × m ≤ q is spent on the
    mann_coordinates budget (`errors.BUDGETS`) before any class is reduced.
    """
    terms: dict[int, int] = {}
    # Unit sums skip the zip: searches make thousands of small-q weight calls.
    if coeffs is None:
        for e in exponents:
            e %= q
            terms[e] = terms.get(e, 0) + 1
    else:
        for e, c in zip(exponents, coeffs):
            e %= q
            terms[e] = terms.get(e, 0) + c
        terms = {e: c for e, c in terms.items() if c}
    # m = gcd(q, ∏_{p ≤ k} p): a prime is struck out of the rest of q as soon
    # as it is found, so no composite divides what is left.
    k, primes, rest, p = len(terms), [], q, 2
    while p <= k and p <= rest:
        if rest % p == 0:
            primes.append(p)
            while rest % p == 0:
                rest //= p
        p += 1
    m = prod(primes)
    r = q // m
    classes = len({e % r for e in terms})
    spend("mann_coordinates", classes * m)
    for p in primes:
        step = q // p
        # Rewriting one axis touches no other coordinate p - 1 of that prime,
        # so the snapshot of the items stays valid while the dict grows.
        for e, c in list(terms.items()):
            if c and e // r % p == p - 1:
                for f in range(e % step, q, step):
                    terms[f] = terms.get(f, 0) - c
    return not any(terms.values())
