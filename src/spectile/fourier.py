"""Fourier transforms of box-union indicators and their structured zero sets.

For a union of boxes the transform is a finite sum of products of complex
sinc factors, so 1̂_U(ξ) is evaluated in closed form.  In one dimension the
real zero set is decided exactly: with all endpoints on the grid (1/q)·Z,
2πiξ·1̂_U(ξ) becomes an integer polynomial P in z = exp(-2πiξ/q).  Its roots
of unity are kept as root orders: each order n that Mann's theorem on
vanishing sums allows is decided by the Mann classes of P's terms, and a
rational ξ ≠ 0 is a zero iff the denominator of ξ/q is one of the orders,
which reads ξ only modulo q.  The other unit-circle roots, of P over its Φ_n,
are isolated numerically, error-bounded, on first use.  Products of 1D
unions (`Domain.factors`) have per-axis root orders, and a coset test walks
each axis's residues modulo q to the first one outside the zero set.  Every
other union is decided at each rational ξ on its own: with the zero axes of
ξ set aside, ξ-scaled 1̂_U(ξ) is one rational combination of roots of unity
(`union_vanishes`).  Both routes read a domain's endpoints as integers over
one denominator per axis from `Domain.grid`, which is cached on the domain.

Rational frequencies are decided by their denominators with no tolerance;
a rational ξ can never coincide with an irrational zero, so the exact path
stays exact even when irrational zeros exist.
"""

from __future__ import annotations

import cmath
import itertools
import math
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .errors import RadiusTooSmall, SpectileError, spend
from .exact import (
    Vec,
    as_coordinate,
    as_fraction,
    cyclotomic,
    floor_frac,
    over_binomial,
    scaled,
    sum_of_roots_of_unity_is_zero,
    times_binomial,
    to_float,
)
from .geometry import Domain
from .records import record

_SINC_SWITCH = 1e-6


def _sinc(x: float) -> float:
    # sin(pi x)/(pi x) with the removable singularity filled in
    if abs(x) < 1e-9:
        return 1.0
    return math.sin(math.pi * x) / (math.pi * x)


def _axis_factor(lo: float, hi: float, xi: float) -> complex:
    """∫_lo^hi exp(-2πi ξ t) dt, stable near ξ = 0.  SpectileError when a
    phase 2πξ·lo or 2πξ·hi, or near ξ = 0 the midpoint phase 2πξ·(lo + hi)/2,
    is no finite float."""
    w = hi - lo
    if abs(xi * w) < _SINC_SWITCH:
        phase = -2j * math.pi * xi * (0.5 * (lo + hi))
        if not cmath.isfinite(phase):
            raise SpectileError(f"the midpoint phase at ξ = {xi!r} lies beyond the float range")
        return w * _sinc(w * xi) * cmath.exp(phase)
    a = 2.0 * math.pi * xi
    if not (math.isfinite(a * lo) and math.isfinite(a * hi)):
        raise SpectileError(f"the phase 2πξ·t at ξ = {xi!r} lies beyond the float range")
    return (cmath.exp(-1j * a * lo) - cmath.exp(-1j * a * hi)) / (1j * a)


def ft_indicator(u: Domain, xi: Sequence) -> complex:
    """1̂_U(ξ) = ∫_U exp(-2πi⟨ξ,t⟩) dt, summed in closed form over boxes."""
    x = [to_float(v) for v in xi]
    if len(x) != u.dim:
        raise ValueError(f"frequency dimension {len(x)} != domain dimension {u.dim}")
    total = 0j
    for b in u.boxes:
        f = 1 + 0j
        for j in range(u.dim):
            f *= _axis_factor(to_float(b.lo[j]), to_float(b.hi[j]), x[j])
        total += f
    return total


def power_spectrum(u: Domain, xi: Sequence) -> float:
    """|1̂_U(ξ)|², the tile whose packings/tilings encode orthogonality/completeness.
    SpectileError when it is no finite float."""
    v = ft_indicator(u, xi)
    p = v.real * v.real + v.imag * v.imag
    if not math.isfinite(p):
        raise SpectileError(f"|1̂_U(ξ)|² at ξ = {list(xi)!r} lies beyond the float range")
    return p


# ---------------------------------------------------------------------------
# Structured zero sets


@record
class AxisRoots:
    """The real zeros of a 1-D transform, by root order: a rational ξ ≠ 0 is one
    iff (ξ/q).denominator is in `orders`.

    `orders` lists every n whose primitive n-th roots of unity are roots of
    the zero-set polynomial P (`terms`: (exponent, coefficient) pairs) in
    z = exp(-2πiξ/q).  Membership reads ξ modulo q, and at most deg P
    residues modulo q are zeros (0 among them).  The irrational zeros are
    the other unit-circle roots of P, given modulo q; they are isolated by
    `kernels.roots` on first use, so exact membership and coset tests never
    pay for them.  Each is known to within _UNIT_CIRCLE_TOL.
    """

    q: int
    terms: tuple[tuple[int, int], ...]
    orders: tuple[int, ...]

    _UNIT_CIRCLE_TOL = 1e-8  # of ||z| − 1| on the unit circle, and of each irrational zero

    @cached_property
    def order_set(self) -> frozenset[int]:
        return frozenset(self.orders)

    def residual(self) -> list[int]:
        """P / ∏_n Φ_n^{k_n} over the root orders n, ascending coefficients.

        A root of order n has multiplicity k_n ≥ k iff (z·d/dz)^i P = Σ c_j e_j^i
        z^{e_j} vanishes there for i < k.  In binomials (`exact.cyclotomic`) the
        divisor is one batch of net exponents of x^d − 1, the negative ones
        multiplied in first so that every division is exact; passes × longest
        list are spent on the binomial_passes budget before any pass."""
        exps, net = [e for e, _ in self.terms], {}
        for n in self.orders:
            k, coeffs = 1, [c * e for e, c in self.terms]
            while sum_of_roots_of_unity_is_zero(exps, n, coeffs):
                k, coeffs = k + 1, [c * e for e, c in zip(exps, coeffs)]
            for d, mu in cyclotomic(n):
                net[d] = net.get(d, 0) + k * mu
        up = [d for d, e in sorted(net.items()) for _ in range(-e)]
        down = [d for d, e in sorted(net.items(), reverse=True) for _ in range(e)]
        passes, longest = len(up) + len(down), exps[-1] + 1 + sum(up)
        spend("binomial_passes", passes * longest)
        p = [0] * (exps[-1] + 1)
        for e, c in self.terms:
            p[e] = c
        for d in up:
            p = times_binomial(p, d)
        for d in down:
            p = over_binomial(p, d)
        return p

    @cached_property
    def irrational_zeros(self) -> tuple[float, ...]:
        """ξ modulo q, ascending, at the unit-circle roots of the residual,
        whose degree is spent on the root_degree budget before `kernels.roots`."""
        p = self.residual()
        spend("root_degree", len(p) - 1)
        if len(p) <= 1:
            return ()
        from . import kernels

        return tuple(sorted(
            (-self.q * math.atan2(z.imag, z.real) / (2 * math.pi)) % self.q
            for z in kernels.roots(p)
            if abs(abs(z) - 1.0) < self._UNIT_CIRCLE_TOL
        ))

    def contains_rational(self, x: Fraction) -> bool:
        """Exact membership of a rational value in the zero set."""
        return x != 0 and (x / self.q).denominator in self.order_set

    def zero_in(self, a: Fraction, b: Fraction) -> tuple[Fraction | float | None, int]:
        """(v, straddles) on the open interval (a, b).  v is the least rational
        zero inside if any: those of order n are q·k/n, gcd(k, n) = 1, k ≠ 0,
        so take the first above a for each order.  Else, in floats, each family
        x + q·Z of irrational zeros, ascending in x, meets [a, b] first at a v
        within _UNIT_CIRCLE_TOL; v is the first such v strictly inside with that
        bound, or None, and straddles counts those before it that cover an end."""
        best = None
        for n in self.orders:
            k = floor_frac(a * n / self.q) + 1
            while k == 0 or math.gcd(k, n) != 1:
                k += 1
            v = Fraction(self.q * k, n)
            if best is None or v < best:
                best = v
        if best < b:
            return best, 0
        zeros, straddles, err = self.irrational_zeros, 0, self._UNIT_CIRCLE_TOL
        if zeros:
            period, a, b = to_float(self.q), to_float(a), to_float(b)
        for x in zeros:
            k = math.floor((a - x - err) / period)
            while (v := x + k * period) + err < a:
                k += 1
            if v - err <= b:
                if a < v - err and v + err < b:
                    return v, straddles
                straddles += 1
        return None, straddles


@record
class ZeroSet:
    """Z(1̂_U): per-axis root orders for products of 1D unions (`axes`); any
    other union is decided at each rational point (`union_vanishes`)."""

    domain: Domain
    axes: tuple[AxisRoots, ...] | None

    @property
    def structured(self) -> bool:
        return self.axes is not None


def default_tol(u: Domain) -> float:
    return 1e-9 * max(1.0, to_float(u.measure))


def roots_1d(i: Domain) -> AxisRoots:
    """Complete periodic description of the real zeros of 1̂_I for a 1D union.

    Substituting z = exp(-2πiξ/q) (q = lcm of endpoint denominators, from
    `Domain.grid`) turns 2πiξ·1̂_I(ξ) into P(z) = Σ_k (z^{q·lo_k} - z^{q·hi_k}).
    The orders of the roots of unity among P's roots decide the rational
    zeros exactly; the rest of the unit-circle roots come from the companion
    matrix with a ±1e-8 bound.
    P's candidate orders (at most 8·deg) times its terms are spent on the
    root_orders budget before any order is enumerated.
    """
    if i.dim != 1:
        raise ValueError("roots_1d needs a one-dimensional domain")
    [q], boxes = i.grid
    coeffs: dict[int, int] = {}
    for [(lo, hi)] in boxes:
        coeffs[lo] = coeffs.get(lo, 0) + 1
        coeffs[hi] = coeffs.get(hi, 0) - 1
    # Strip z^emin: roots at z=0 never lie on the unit circle.
    emin = min(e for e, c in coeffs.items() if c)
    terms = tuple(sorted((e - emin, c) for e, c in coeffs.items() if c))
    exps = [e for e, _ in terms]
    signs = [c for _, c in terms]
    deg = exps[-1]
    # Every n with φ(n) ≤ deg is below 8·deg: n/φ(n) = ∏_{p|n} p/(p-1) < 7.3
    # while n has at most 15 distinct primes, and any n with more has
    # φ(n) ≥ sqrt(n/2) > 4·10⁹ > deg.
    spend("root_orders", 8 * deg * len(terms))
    orders = tuple(
        n for n in _root_order_candidates(exps) if sum_of_roots_of_unity_is_zero(exps, n, signs)
    )
    return AxisRoots(q, terms, orders)


def _root_order_candidates(exps: list[int]) -> list[int]:
    """Every order n whose primitive roots can be roots of Σ_j c_j z^{e_j}, ascending.

    The exponents ascend from e_0 = 0 to deg, and every c_j ≠ 0.  A root
    order n has φ(n) ≤ deg.  By Mann's theorem (Mathematika 1965), a
    vanishing rational combination of k roots of unity with no vanishing
    proper subsum has all ratios of order dividing M_k = ∏_{p ≤ k} p.  Merge
    the terms of P(ζ_n) = 0 with equal roots: if e_0 shares its root with
    some e_j, n divides e_j − e_0; otherwise e_0 lies in a minimal vanishing
    subsum with some e_j.  Either way n divides M_k·(e_j − e_0).  Divisors of
    a target are closed under division, so n is built from prime powers with
    p - 1 ≤ deg and a branch stops at the first n that divides no target.
    """
    deg = exps[-1]
    sieve = bytearray([1]) * (deg + 2)
    sieve[:2] = b"\0\0"
    for p in range(2, math.isqrt(deg + 1) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, deg + 2, p)))
    primes = [p for p in range(2, deg + 2) if sieve[p]]
    m_k = math.prod(p for p in primes if p <= len(exps))
    targets = sorted({m_k * (e - exps[0]) for e in exps[1:]})
    out: list[int] = []

    def walk(n: int, phi: int, start: int, live: list[int]) -> None:
        out.append(n)
        for i in range(start, len(primes)):
            p = primes[i]
            m, f = n * p, phi * (p - 1)
            if f > deg:
                break  # the primes ascend, so every later branch is over too
            divisible = live
            while f <= deg:
                divisible = [t for t in divisible if t % m == 0]
                if not divisible:
                    break
                walk(m, f, i + 1, divisible)
                m, f = m * p, f * p

    walk(1, 1, 0, targets)
    return sorted(out)


def zero_set(u: Domain) -> ZeroSet:
    """Per-axis root orders when U is a product of 1D unions, numeric-only otherwise."""
    factors = u.factors()
    return ZeroSet(u, None if factors is None else tuple(roots_1d(f) for f in factors))


def union_vanishes(z: ZeroSet, xi: Sequence[Fraction]) -> bool:
    """Is 1̂_U(ξ) = 0 at a rational ξ?  One vanishing-sum test, for any union.

    With S = {j : ξ_j = 0}, w_bj the widths of box b and e(t) = exp(2πit),
    1̂_U(ξ)·∏_{j∉S} 2πiξ_j = Σ_b ∏_{j∈S} w_bj · ∏_{j∉S} (e(−ξ_j·lo_bj) −
    e(−ξ_j·hi_bj)), and the left factor is nonzero.  The endpoints are
    integers over q_j (`Domain.grid`), so every phase is an integer over Q,
    the lcm of the denominators of ξ_j/q_j, and the widths on S share the
    denominator ∏_{j∈S} q_j: the right side, expanded into 2^{d−|S|} terms per
    box, is an integer combination of Q-th roots of unity.
    """
    q, boxes = z.domain.grid
    steps, big_q = scaled([x / n for x, n in zip(xi, q)])
    exps, coeffs = [], []
    for b in boxes:
        es, cs = [0], [1]
        for (lo, hi), s in zip(b, steps):
            if s:
                es = [e - s * v for e in es for v in (lo, hi)]
                cs = [c * sign for c in cs for sign in (1, -1)]
            else:
                cs = [c * (hi - lo) for c in cs]
        exps += es
        coeffs += cs
    return sum_of_roots_of_unity_is_zero(exps, big_q, coeffs)


def in_zero_set(z: ZeroSet, xi: Sequence) -> bool | None:
    """Is ξ in Z(1̂_U)?  True or False when decided exactly, None when not.

    One exact (rational) coordinate whose axis holds it decides True on a
    product, and a rational ξ is decided either way (per axis on a product,
    by `union_vanishes` otherwise).  Anything else is numeric: False when
    |1̂_U(ξ)| is clearly nonzero, above 11·default_tol(U), and None
    otherwise, since a float cannot tell a zero from a near miss.
    """
    coords = list(xi)
    exact = [not isinstance(c, float) for c in coords]
    if z.structured:
        for j, ar in enumerate(z.axes):
            if exact[j] and ar.contains_rational(as_fraction(coords[j])):
                return True
        if all(exact):
            return False
    elif all(exact):
        return union_vanishes(z, [as_fraction(c) for c in coords])
    if abs(ft_indicator(z.domain, coords)) > 11 * default_tol(z.domain):
        return False
    return None


# ---------------------------------------------------------------------------
# Whole-coset membership (exact): drives orthogonality and Keller checks.


def coset_in_zero_set(
    z: ZeroSet, delta: Sequence, periods: Vec
) -> tuple[bool | None, tuple | None]:
    """Decide (δ + diag(periods)·Z^d) ∖ {0} ⊆ Z(1̂_U) exactly.

    Rational cosets never meet irrational zeros, so only the root orders
    matter and membership of the whole coset reduces to finitely many
    residues modulo each axis's q: per axis, the first residue outside the
    zero set and whether 0 is a coset value.  Returns (holds, witness), the
    witness being a nonzero coset point outside the zero set.  A union that
    is no product goes by `_union_coset` instead.

    A float δ_j stands for an irrational number, so axis j covers no coset
    point and is never 0 on one.  A witness with a float coordinate is
    numeric: it stands only when |1̂_U| there is clearly nonzero (`in_zero_set`
    answers False); otherwise holds is None, undecided.
    """
    delta = tuple(as_coordinate(x) for x in delta)
    periods = tuple(as_fraction(x) for x in periods)
    if not z.structured:
        return _union_coset(z, delta, periods)
    firsts = []
    for ar, c, dj in zip(z.axes, periods, delta):
        if isinstance(dj, float):
            firsts.append(dj)
            continue
        # Membership reads ξ_j modulo q_j, and the residues δ_j + k·c_j,
        # k < den(c_j/q_j), are distinct modulo q_j and cover the coset; at
        # most deg P of them are zeros, so the first bad one turns up within
        # deg P + 1 steps.  A residue ≡ 0 is never bad (order 1 is a root).
        walk = (dj + k * c for k in range((c / ar.q).denominator))
        bad = next((x for x in walk if (x / ar.q).denominator not in ar.order_set), None)
        if bad is None and dj % c:
            return True, None  # this axis alone covers every coset point
        firsts.append(bad)
    if all(x is None for x in firsts):
        return True, None  # the only candidate was the origin, which is excluded
    # A nonzero point failing every axis; on an axis with no bad residue,
    # 0 is the only value outside the zero set.
    witness = tuple(Fraction(0) if x is None else x for x in firsts)
    if any(isinstance(x, float) for x in witness) and in_zero_set(z, witness) is not False:
        return None, witness
    return False, witness


def _union_coset(z: ZeroSet, delta: tuple, periods: Vec) -> tuple[bool | None, tuple | None]:
    """`coset_in_zero_set` for a union that is no product, by residues.

    Off the zero axes S of a point, `union_vanishes` reads ξ_j only modulo
    q_j, and ξ_j = δ_j + k·c_j modulo q_j only through k modulo
    t_j = den(c_j/q_j).  So axis j offers 0 (when δ_j ∈ c_j·Z) and one point
    per residue k < t_j, except where ξ_j ∈ q_j·Z ∖ 0: there every box factor
    e(−ξ_j·lo) − e(−ξ_j·hi) is 0.  Every combination but the origin is
    tested, in product order, once ∏_j (t_j + 1), a bound on their count,
    has been spent on the coset_tests budget.  A float δ_j stands for an
    irrational, which no exact test reads, so such a coset is refuted only
    numerically, at δ.
    """
    if any(isinstance(x, float) for x in delta):
        return (False if in_zero_set(z, delta) is False else None), delta
    q, _ = z.domain.grid
    spend("coset_tests", math.prod((c / n).denominator + 1 for c, n in zip(periods, q)))
    choices = [
        [Fraction(0)] * ((dj / c).denominator == 1)
        + [x for x in (dj + k * c for k in range((c / n).denominator)) if (x / n).denominator != 1]
        for dj, c, n in zip(delta, periods, q)
    ]
    for point in itertools.product(*choices):
        if any(point) and not union_vanishes(z, point):
            return False, point
    return True, None


# ---------------------------------------------------------------------------
# Truncation tails


@record
class TailBound:
    radius: float
    bound: float
    rigorous: bool


def _g_sq(t: float, k: int, length: float) -> float:
    # pointwise bound on |1̂|² along one axis: min(L², K²/(π² t²))
    cap = length * length
    if t <= 0:
        return cap
    return min(cap, (k * k) / (math.pi * math.pi * t * t))


def _g_sq_integral(r: float, k: int, length: float) -> float:
    # ∫_r^∞ min(L², K²/(π² t²)) dt
    tstar = k / (math.pi * length)
    if r >= tstar:
        return (k * k) / (math.pi * math.pi * r)
    return length * length * (tstar - r) + (k * k) / (math.pi * math.pi * tstar)


def _axis_sum_all(k: int, length: float) -> float:
    # Σ over side-2 cells of sup |1̂_axis|², any grid offset
    total = _g_sq(0.0, k, length)
    j = 1
    tstar = k / (math.pi * length)
    while 2 * j - 1 <= tstar + 2:
        total += 2 * _g_sq(2 * j - 1, k, length)
        j += 1
    t0 = 2 * j - 1
    total += 2 * (_g_sq(t0, k, length) + 0.5 * _g_sq_integral(t0, k, length))
    return total


def _axis_sum_tail(t: float, k: int, length: float) -> float:
    t0 = max(t - 2.0, 1e-9)
    return 2.0 * (_g_sq(t0, k, length) + 0.5 * _g_sq_integral(t0, k, length))


def _unit_ball_volume(d: int) -> float:
    return math.pi ** (d / 2) / math.gamma(d / 2 + 1)


def _product_tail(axes: list[tuple[int, float]], rho: float, r: float) -> float:
    d = len(axes)
    if d == 1:
        k, length = axes[0]
        return 4.0 * rho * (
            _g_sq(r, k, length) + 0.5 * _g_sq_integral(r, k, length)
        )
    n_cell = rho * _unit_ball_volume(d) * d ** (d / 2)
    fulls = [_axis_sum_all(k, length) for k, length in axes]
    total = 0.0
    for j, (k, length) in enumerate(axes):
        term = _axis_sum_tail(r, k, length)
        for i, f in enumerate(fulls):
            if i != j:
                term *= f
        total += term
    return n_cell * total


def tail_bound(u: Domain, rho: float, r: float) -> TailBound:
    """Upper bound on sup_x Σ_{|λ-x|_∞ > R} |1̂_U(x-λ)|² over sets of density ≤ ρ.

    Rigorous for products of 1D unions (per-axis |1̂| ≤ min(L, K/(π|ξ|)) plus
    integral comparison against the density bound); for other unions the
    same machinery runs per box and the result is flagged non-rigorous.
    """
    if rho <= 0:
        raise ValueError("density bound must be positive")
    if r <= to_float(u.diameter()):
        raise RadiusTooSmall(f"radius {r} must exceed the domain diameter")
    factors = u.factors()
    if factors is not None:
        axes = [(len(f.boxes), to_float(f.measure)) for f in factors]
        return TailBound(r, _product_tail(axes, rho, r), True)
    total = sum(_product_tail([(1, to_float(w)) for w in b.widths], rho, r) for b in u.boxes)
    return TailBound(r, len(u.boxes) * total, False)
