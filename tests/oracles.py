"""Independent oracles: these recompute quantities by routes deliberately
different from the library's (quadrature instead of closed forms, direct
counting over every translate instead of per-axis torus covers, direct
float summation instead of the kernel module, division by Φ_q or radical
slices instead of Mann classes, a walk into plain data written by
`json.dumps` instead of the report writer, the Leibniz formula instead of
elimination, every Poisson term on a meshed grid instead of a constant
start and per-axis broadcasts) so tests never compare an implementation
with itself.  The one exception is marked: frozen copies of the numeric
kernel's formulas, written with a fresh array for every intermediate, that
the in-place kernel must match bit for bit."""

from __future__ import annotations

import itertools
import math
from enum import Enum
from fractions import Fraction
from functools import lru_cache

import numpy as np

_GL_NODES = 64


def quadrature_ft(domain, xi) -> complex:
    """∫_U exp(-2πi⟨ξ,t⟩)dt by tensor Gauss-Legendre, box by box."""
    nodes, weights = np.polynomial.legendre.leggauss(_GL_NODES)
    xi = [float(v) for v in xi]
    total = 0j
    for b in domain.boxes:
        f = 1 + 0j
        for j in range(b.dim):
            a, c = float(b.lo[j]), float(b.hi[j])
            t = 0.5 * (c - a) * nodes + 0.5 * (a + c)
            vals = np.exp(-2j * np.pi * xi[j] * t)
            f *= 0.5 * (c - a) * np.sum(weights * vals)
        total += f
    return total


def cover_count(domain, lam_points, x) -> int:
    """#{λ : x - λ ∈ U} by direct strict membership, exact when inputs are exact."""
    count = 0
    for lam in lam_points:
        p = tuple(a - b for a, b in zip(x, lam))
        if domain.contains(p):
            count += 1
    return count


def multiplicity_reference(domain, lam):
    """Covering multiplicity of U + Λ by midpoint counting: every translate
    of every box that meets the open rectangular cell is enumerated, the cell
    is cut at their coordinates, and each subcell's level is the number of
    translates containing its midpoint.  Returns the cuts and the row-major
    levels.  O(cells × translates)."""
    from spectile.exact import ceil_frac, floor_frac
    from spectile.geometry import Box, Multiplicity

    rect = lam.rectangularized()
    d = domain.dim
    c = tuple(rect.lattice.basis[j][j] for j in range(d))
    translated = []
    for rep in rect.reps:
        for b in domain.boxes:
            ranges = []
            for j in range(d):
                lo_j, hi_j = b.lo[j] + rep[j], b.hi[j] + rep[j]
                kmin = floor_frac(-hi_j / c[j]) + 1
                kmax = ceil_frac((c[j] - lo_j) / c[j]) - 1
                ranges.append(range(kmin, kmax + 1))
            for k in itertools.product(*ranges):
                translated.append(
                    Box(
                        tuple(b.lo[j] + rep[j] + k[j] * c[j] for j in range(d)),
                        tuple(b.hi[j] + rep[j] + k[j] * c[j] for j in range(d)),
                    )
                )
    axes = []
    for j in range(d):
        cuts = {Fraction(0), c[j]}
        cuts.update(v for t in translated for v in (t.lo[j], t.hi[j]) if 0 < v < c[j])
        axes.append(sorted(cuts))
    levels = []
    for spans in itertools.product(*(zip(a, a[1:]) for a in axes)):
        mid = tuple((a + b) / 2 for a, b in spans)
        levels.append(sum(1 for t in translated if t.contains(mid)))
    return Multiplicity(tuple(map(tuple, axes)), tuple(levels))


def direct_power_sum(domain, points, xs) -> np.ndarray:
    """Σ_λ |1̂_U(x-λ)|² by straightforward float summation (quotient form).

    Written against the exponential-difference quotient, independently of
    spectile.kernels (which uses the midpoint-sinc form).
    """
    lo = np.array([[float(v) for v in b.lo] for b in domain.boxes])
    hi = np.array([[float(v) for v in b.hi] for b in domain.boxes])
    pts = np.asarray(points, dtype=np.float64)
    xs = np.asarray(xs, dtype=np.float64)
    out = np.zeros(len(xs))
    for s in range(0, len(pts), 2048):
        u = xs[:, None, :] - pts[None, s : s + 2048, :]
        amp = np.zeros(u.shape[:2], dtype=np.complex128)
        for ib in range(len(lo)):
            f = np.ones(u.shape[:2], dtype=np.complex128)
            for j in range(u.shape[2]):
                uj = u[..., j]
                w = hi[ib, j] - lo[ib, j]
                a = 2.0 * np.pi * uj
                small = np.abs(uj * w) < 1e-7
                safe = np.where(small, 1.0, a)
                quot = (
                    np.exp(-1j * safe * lo[ib, j]) - np.exp(-1j * safe * hi[ib, j])
                ) / (1j * safe)
                mid = 0.5 * (lo[ib, j] + hi[ib, j])
                series = w * np.exp(-2j * np.pi * uj * mid) * np.sinc(w * uj)
                f = f * np.where(small, series, quot)
            amp += f
        out += np.sum(np.abs(amp) ** 2, axis=1)
    return out


def mesh(axes) -> np.ndarray:
    """All points of the product of the per-axis value arrays, first axis slowest."""
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in grids], axis=-1)


def poisson_field_reference(terms, xs: np.ndarray) -> np.ndarray:
    """Σ c·Re(w·e^{2πi⟨ξ,x⟩}) at each row x of the meshed grid xs, over (c, w, ξ)
    float terms: zeros, then each term added in order on the whole grid."""
    out = np.zeros(len(xs))
    for c, w, xi in terms:
        t = 2 * np.pi * sum(xs[:, j] * x for j, x in enumerate(xi))
        out += c * (w.real * np.cos(t) - w.imag * np.sin(t))
    return out


# ---------------------------------------------------------------------------
# Frozen kernel formulas: the same float operations in the same order as
# spectile.kernels, each intermediate a fresh array, for bit-identity tests.
# Tests that split the translates into chunks patch TABLE_ENTRIES here and
# spectile.kernels._TABLE_ENTRIES alike.

TABLE_ENTRIES = 1 << 17


def _kernel_chunks(axes, n_points: int):
    step = max(1, TABLE_ENTRIES // max(len(a) for a in axes))
    for start in range(0, n_points, step):
        yield slice(start, start + step)


def _kernel_arrays(*arrays):
    return [np.ascontiguousarray(a, dtype=np.float64) for a in arrays]


def _kernel_contract(tables) -> np.ndarray:
    shape = tuple(len(t) for t in tables)
    if len(tables) == 1:
        return tables[0].real.sum(axis=1)
    *lead, left, right = tables
    out = np.empty((math.prod(shape[:-2]), *shape[-2:]))
    for k, idx in enumerate(itertools.product(*map(range, shape[:-2]))):
        a = left
        for t, i in zip(lead, idx):
            a = a * t[i]
        out[k] = a.real @ right.real.T
        if np.iscomplexobj(a) and np.iscomplexobj(right):
            out[k] -= a.imag @ right.imag.T
    return out.reshape(shape)


def kernel_power_sum_field(lo, hi, points, axes) -> np.ndarray:
    """Σ_s |Σ_b ∏_j w·sinc(w·u)·phase|² at u = x_g − points[s], as spectile.kernels.power_sum_field."""
    lo, hi, points = _kernel_arrays(lo, hi, points)
    axes = _kernel_arrays(*axes)
    width, mid = hi - lo, 0.5 * (lo + hi)
    out = np.zeros(tuple(len(a) for a in axes))
    for cols in _kernel_chunks(axes, len(points)):
        us = [a[:, None] - points[None, cols, j] for j, a in enumerate(axes)]
        amps = [[w * np.sinc(w * u) for w, u in zip(ws, us)] for ws in width]
        for b, amp in enumerate(amps):
            out += _kernel_contract([f * f for f in amp])
            for c in range(b + 1, len(amps)):
                tables = []
                for j, u in enumerate(us):
                    t = amp[j] * amps[c][j]
                    shift = mid[b, j] - mid[c, j]
                    tables.append(t * np.exp(-2j * np.pi * shift * u) if shift else t)
                out += 2 * _kernel_contract(tables)
    return out.ravel()


def kernel_cover_count(lo, hi, points, axes) -> np.ndarray:
    """#{(s, b) : lo[b] < x_g − points[s] < hi[b]}, as spectile.kernels.cover_count."""
    lo, hi, points = _kernel_arrays(lo, hi, points)
    axes = _kernel_arrays(*axes)
    out = np.zeros(tuple(len(a) for a in axes))
    for cols in _kernel_chunks(axes, len(points)):
        us = [a[:, None] - points[None, cols, j] for j, a in enumerate(axes)]
        for b in range(len(lo)):
            out += _kernel_contract([((u > lo[b, j]) & (u < hi[b, j])).astype(np.float64) for j, u in enumerate(us)])
    return out.ravel().astype(np.int64)


def kernel_poisson_field(v0: float, terms, axes) -> np.ndarray:
    """v0 + Σ c·Re(w·e^{2πi⟨ξ,x⟩}) on the product grid, as spectile.kernels.poisson_field."""
    axes = np.ix_(*_kernel_arrays(*axes))
    out = np.full(tuple(a.size for a in axes), v0)
    for c, w, xi in terms:
        t = 2 * np.pi * sum(a * x for a, x in zip(axes, xi))
        out += c * (w.real * np.cos(t) - w.imag * np.sin(t))
    return out.ravel()


def leibniz_det(m) -> Fraction:
    """det m = Σ_σ sgn σ · ∏_i m[i][σ(i)] over every permutation σ, exact."""
    total = Fraction(0)
    for perm in itertools.permutations(range(len(m))):
        inversions = sum(perm[i] > perm[j] for i in range(len(perm)) for j in range(i + 1, len(perm)))
        total += (-1) ** inversions * math.prod((Fraction(m[i][k]) for i, k in enumerate(perm)), start=Fraction(1))
    return total


def random_fraction(rng, max_den: int = 8, lo=-2, hi=2) -> Fraction:
    den = rng.integers(1, max_den + 1)
    num = rng.integers(lo * den, hi * den + 1)
    return Fraction(int(num), int(den))



def _mobius(n: int) -> int:
    out, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            out = -out
        p += 1
    return -out if n > 1 else out


@lru_cache(maxsize=4)
def cyclotomic_poly(q: int) -> tuple[int, ...]:
    """Φ_q = ∏_{d | q} (x^d − 1)^{μ(q/d)}, ascending integer coefficients."""
    num, den = [1], []
    for d in (d for d in range(1, q + 1) if q % d == 0):
        mu = _mobius(q // d)
        if mu == 1:
            prod = [0] * d + num  # num · (x^d − 1)
            for i, a in enumerate(num):
                prod[i] -= a
            num = prod
        elif mu == -1:
            den.append(d)
    for d in den:  # exact division by x^d − 1: num[i] = s[i−d] − s[i]
        quot = [0] * (len(num) - d)
        for i in range(len(quot)):
            quot[i] = (quot[i - d] if i >= d else 0) - num[i]
        num = quot
    return tuple(num)


def cyclotomic_sum_vanishes(exponents, q: int, coeffs=None) -> bool:
    """Σ c_j ζ_q^{e_j} = 0 iff Φ_q divides Σ c_j x^(e_j mod q): long division.

    The quotient digits stay far below 2^40 for q ≤ 2000 (Φ_q has simple
    roots on the unit circle), which the division checks, so int64 is exact.
    """
    phi = np.array(cyclotomic_poly(q), dtype=np.int64)
    n = len(phi) - 1
    r = np.zeros(max(q, n + 1), dtype=np.int64)
    coeffs = [1] * len(exponents) if coeffs is None else coeffs
    np.add.at(r, np.asarray(exponents, dtype=np.int64) % q, np.asarray(coeffs, dtype=np.int64))
    for i in range(len(r) - 1, n - 1, -1):
        c = int(r[i])
        if c:
            if abs(c) >= 2**40:
                raise OverflowError("quotient digit too large for int64 long division")
            r[i - n : i + 1] -= c * phi
    return not r.any()


def _radical(q: int) -> tuple[tuple[int, ...], int]:
    """The primes dividing q, ascending, and s = q / rad(q), by trial division."""
    primes, m, p = [], q, 2
    while p * p <= m:
        if m % p == 0:
            primes.append(p)
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        primes.append(m)
    return tuple(primes), q // math.prod(primes)


def radical_slice_sum_vanishes(exponents, q: int, coeffs=None) -> bool:
    """Σ c_j ζ_q^{e_j} = 0 by radical slices, with no term-count bound.

    With r = rad(q) and s = q/r, ζ^{t + s·f} = ζ^t·ζ_r^f, and 1, ζ, …, ζ^{s-1}
    is a basis of Q(ζ) over Q(ζ_r), so the sum vanishes iff every slice
    Σ_{e ≡ t (s)} c_e ζ_r^{⌊e/s⌋} does; each slice is reduced axis by axis in
    ⊗_{p | r} Z[ζ_p], the p-axis through e being e + (q/p)·Z with coordinate
    ⌊e/s⌋ mod p.  It needs q factored and may touch O(q) coordinates.
    """
    primes, s = _radical(q)
    terms: dict[int, int] = {}
    coeffs = [1] * len(exponents) if coeffs is None else coeffs
    for e, c in zip(exponents, coeffs):
        terms[e % q] = terms.get(e % q, 0) + c
    for p in primes:
        step = q // p
        for e, c in list(terms.items()):
            if c and e // s % p == p - 1:
                for f in range(e % step, q, step):
                    terms[f] = terms.get(f, 0) - c
    return not any(terms.values())


def _poly_divmod(p: list[int], q: list[int]) -> tuple[list[int], list[int]]:
    """Euclidean division over Z by a monic divisor, ascending coefficients."""
    r, dq = list(p), len(q) - 1
    quot = [0] * max(0, len(r) - dq)
    for shift in range(len(r) - 1 - dq, -1, -1):
        c = r[shift + dq]
        quot[shift] = c
        for i, b in enumerate(q):
            r[shift + i] -= c * b
    while r and r[-1] == 0:
        r.pop()
    while quot and quot[-1] == 0:
        quot.pop()
    return quot, r


def _totient(n: int) -> int:
    out, m, p = 1, n, 2
    while p * p <= m:
        if m % p == 0:
            k = 0
            while m % p == 0:
                m //= p
                k += 1
            out *= (p - 1) * p ** (k - 1)
        p += 1
    return out * (m - 1) if m > 1 else out


def cyclotomic_residual(p: list[int]) -> tuple[list[int], set[int]]:
    """(residual, orders): p with every Φ_n, n ≤ 2·deg² and φ(n) ≤ deg,
    divided out by long division as often as it divides, and the n that did."""
    orders = set()
    deg0 = len(p) - 1
    for n in range(1, 2 * deg0 * deg0 + 5):
        if len(p) <= 1:
            break
        if _totient(n) > len(p) - 1:
            continue
        phi = list(cyclotomic_poly(n))
        while len(p) >= len(phi):
            quot, rem = _poly_divmod(p, phi)
            if rem:
                break
            p = quot
            orders.add(n)
    return p, orders


def zero_set_polynomial(dom) -> tuple[int, list[int]]:
    """(q, P): the grid denominator of a 1-D union and its zero-set polynomial
    Σ (z^{q·lo} − z^{q·hi}), ascending, with its lowest power of z stripped."""
    endpoints = [b.lo[0] for b in dom.boxes] + [b.hi[0] for b in dom.boxes]
    q = math.lcm(*(e.denominator for e in endpoints))
    exps = [(int(b.lo[0] * q), 1) for b in dom.boxes] + [(int(b.hi[0] * q), -1) for b in dom.boxes]
    emin = min(e for e, _ in exps)
    p = [0] * (max(e for e, _ in exps) - emin + 1)
    for e, s in exps:
        p[e - emin] += s
    while p[-1] == 0:
        p.pop()
    return q, p[next(k for k, c in enumerate(p) if c):]


def roots_1d_reference(dom) -> tuple[Fraction, tuple, tuple]:
    """(period, rational phases, irrational phases) of 1̂ for a 1-D union.

    The route `fourier.roots_1d` took before radical slices: divide Φ_n out of
    P(z) = Σ (z^{q·lo} − z^{q·hi}) for every n ≤ 2·deg² with φ(n) ≤ deg
    (`cyclotomic_residual`), read the rational phases off the orders that
    divide, and hand the rest to np.roots.
    """
    q, p = zero_set_polynomial(dom)
    p, orders = cyclotomic_residual(p)
    phases = {Fraction(-q * k, n) % q for n in orders for k in range(1, n + 1) if math.gcd(k, n) == 1}
    irrational = []
    if len(p) > 1:
        for z in np.roots(list(reversed(p))):
            if abs(abs(z) - 1.0) < 1e-8:
                irrational.append((-q * math.atan2(z.imag, z.real) / (2 * math.pi)) % q)
    period, rational = Fraction(q), sorted(phases)
    while rational and not irrational:  # shrink the period while shift-closed
        n = len(rational)
        for m in range(n, 1, -1):
            if n % m == 0 and all((ph + period / m) % period in phases for ph in rational):
                period /= m
                rational = sorted({ph % period for ph in rational})
                phases = set(rational)
                break
        else:
            break
    return period, tuple(rational), tuple(sorted(irrational))


def coven_meyerowitz(a) -> tuple[bool, bool, int]:
    """(T1, T2, M) of a finite A ⊂ Z (Coven–Meyerowitz, J. Algebra 1999).

    S_A holds the prime powers s with Φ_s | A(x) = Σ_{a∈A} x^a, found by
    `cyclotomic_sum_vanishes` (Φ_s divides A(x) iff Σ ζ_s^a = 0); such an s
    has s/2 ≤ φ(s) ≤ deg A.  T1: |A| = ∏_{s ∈ S_A} p_s.  T2: every product
    of powers of distinct primes from S_A is again a root order of A(x).
    M = lcm(S_A).  T1 and T2 give A ⊕ B = Z_M for some B, and they are also
    necessary for A to tile Z when |A| has at most two prime factors.
    """
    exps = [x - min(a) for x in a]
    deg = max(exps)
    by_prime: dict[int, list[int]] = {}
    for s in range(2, 2 * deg + 1):
        p = next(d for d in range(2, s + 1) if s % d == 0)
        m = s
        while m % p == 0:
            m //= p
        if m == 1 and _totient(s) <= deg and cyclotomic_sum_vanishes(exps, s):
            by_prime.setdefault(p, []).append(s)
    t1 = len(a) == math.prod(p ** len(ss) for p, ss in by_prime.items())
    t2 = all(
        cyclotomic_sum_vanishes(exps, math.prod(combo))
        for r in range(2, len(by_prime) + 1)
        for primes in itertools.combinations(sorted(by_prime), r)
        for combo in itertools.product(*(by_prime[p] for p in primes))
    )
    return t1, t2, math.lcm(1, *(s for ss in by_prime.values() for s in ss))


def first_overlap_reference(boxes):
    """The least pair (i, j), i < j, of open boxes that meet, with the midpoint
    of their intersection, by testing every pair in order; None when the
    boxes are pairwise disjoint."""
    for i, j in itertools.combinations(range(len(boxes)), 2):
        lo = [max(a, c) for a, c in zip(boxes[i].lo, boxes[j].lo)]
        hi = [min(b, e) for b, e in zip(boxes[i].hi, boxes[j].hi)]
        if all(a < b for a, b in zip(lo, hi)):
            return i, j, tuple((a + b) / 2 for a, b in zip(lo, hi))
    return None


def jsonable_reference(v):
    """v as plain JSON data, by a recursive walk: records as the object of the
    fields in their field table, exact values as "p/q" strings, complex
    numbers as {"re", "im"}."""
    if v is None or isinstance(v, (bool, int, float, str)):
        return v
    if isinstance(v, Fraction):
        return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"
    if isinstance(v, complex):
        return {"re": v.real, "im": v.imag}
    if isinstance(v, Enum):
        return v.value
    if isinstance(v, dict):
        return {str(k): jsonable_reference(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [jsonable_reference(x) for x in v]
    return {name: jsonable_reference(getattr(v, name)) for name in type(v).__record_fields__}
