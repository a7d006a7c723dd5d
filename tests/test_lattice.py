"""Lattice duality, rectangularization, dual-point weights, windows."""

import cmath
import itertools
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import cyclotomic_sum_vanishes, leibniz_det
from spectile.errors import NotDualPoint, SpectileError
from spectile.exact import (
    lcm_int,
    mat_inv,
    mat_transpose,
    mat_vec,
)
from spectile.geometry import box, minkowski_difference, two_interval_domain, unit_cube
from spectile.jsonio import domain_from_json, pointset_from_json
from spectile.lattice import (
    Lattice,
    diagonal_lattice,
    dual,
    dual_weights,
    enumerate_dual_in,
    integer_lattice,
    periodic_set,
    weight,
    window,
)

F = Fraction


def test_density_examples():
    assert periodic_set(integer_lattice(2), [[0, 0]]).density() == 1
    assert periodic_set(diagonal_lattice([2]), [[0], [F(1, 2)]]).density() == 1
    assert periodic_set(integer_lattice(1), [[0], [F(1, 2)]]).density() == 2


def test_dual_examples():
    assert dual(integer_lattice(3)).basis == integer_lattice(3).basis
    assert dual(diagonal_lattice([2])).basis == diagonal_lattice([F(1, 2)]).basis
    assert dual(diagonal_lattice([2, 1])).basis == diagonal_lattice([F(1, 2), 1]).basis


@settings(max_examples=40)
@given(
    st.lists(st.integers(-3, 3), min_size=4, max_size=4),
    st.sampled_from([1, 2, 3]),
)
def test_dual_involution(entries, den):
    a, b, c, d = (F(e, den) for e in entries)
    if a * d - b * c == 0:
        return
    lat = Lattice(((a, b), (c, d)))
    assert dual(dual(lat)).basis == lat.basis


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data(), st.sampled_from([2, 3]))
def test_det_and_inverse_from_one_elimination(data, d):
    """On random rational bases the determinant is Leibniz's, basis · inverse
    is the identity, and a singular basis is no lattice."""
    rational = st.builds(F, st.integers(-3, 3), st.sampled_from([1, 2, 3]))
    basis = tuple(tuple(data.draw(rational) for _ in range(d)) for _ in range(d))
    det = leibniz_det(basis)
    if det == 0:
        assert mat_inv(basis) == (None, 0)
        with pytest.raises(ValueError):
            Lattice(basis)
        return
    lat = Lattice(basis)
    assert lat.det == det
    product = [[sum(basis[i][k] * lat.inverse[k][j] for k in range(d)) for j in range(d)] for i in range(d)]
    assert product == [[int(i == j) for j in range(d)] for i in range(d)]


def test_singular_basis_is_no_lattice():
    for basis in [((F(1), F(2)), (F(2), F(4))), ((F(0), F(0)), (F(0), F(1)))]:
        with pytest.raises(ValueError):
            Lattice(basis)


def test_rectangularize_identity_cases():
    z2 = periodic_set(integer_lattice(2), [[0, 0]])
    assert z2.rectangularized() is z2
    lam = periodic_set(diagonal_lattice([2]), [[0], [F(1, 2)]])
    assert lam.rectangularized() is lam


def test_rectangularize_unimodular():
    lam = periodic_set(Lattice(((F(1), F(1)), (F(0), F(1)))), [[0, 0]])
    rect = lam.rectangularized()
    assert rect.lattice.basis == integer_lattice(2).basis
    assert rect.reps == ((F(0), F(0)),)


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.integers(-2, 2), min_size=4, max_size=4),
    st.integers(1, 2),
)
def test_rectangularize_preserves_point_set(entries, den):
    a, b, c, d = (F(e, den) for e in entries)
    if a * d - b * c == 0:
        return
    lam = periodic_set(Lattice(((a, b), (c, d))), [[0, 0], [F(1, 3), F(1, 5)]])
    rect = lam.rectangularized()
    w = box([-3, -3], [3, 3])
    assert window(lam, w).points == window(rect, w).points


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.integers(-2, 2), min_size=4, max_size=4),
    st.integers(1, 2),
    st.tuples(st.integers(1, 11), st.integers(1, 11)),
    st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
    st.tuples(st.integers(1, 3), st.integers(1, 3)),
)
def test_window_matches_membership(entries, den, num, k, sides):
    """window() against a membership test of every fine-grid point in the window.

    The window's lower corner is a point of Λ, so two of its edges pass
    through lattice points, which must be excluded (the window is open).
    """
    a, b, c, d = (F(e, den) for e in entries)
    assume(a * d - b * c != 0 and (b, c) != (0, 0))
    basis = ((a, b), (c, d))
    rep = (F(num[0], 3), F(num[1], 4))
    try:
        lam = periodic_set(Lattice(basis), [rep, (rep[0] + F(1, 2), rep[1])])
    except ValueError:
        assume(False)  # the two reps coincide mod this lattice
    lo = tuple(x + y for x, y in zip(lam.reps[0], mat_vec(basis, tuple(map(F, k)))))
    w = box(lo, [x + s for x, s in zip(lo, sides)])
    inv, _ = mat_inv(basis)
    n = lcm_int([den, 12])  # every coordinate of Λ lies on the 1/n grid
    brute = []
    for i in range(1, sides[0] * n):
        for j in range(1, sides[1] * n):
            x = (lo[0] + F(i, n), lo[1] + F(j, n))
            for r in lam.reps:
                y = mat_vec(inv, (x[0] - r[0], x[1] - r[1]))
                if all(v.denominator == 1 for v in y):
                    brute.append(x)
    assert window(lam, w).points == tuple(sorted(brute))


def test_weight_single_rep():
    lam = periodic_set(integer_lattice(1), [[0]])
    for xi in ([1], [5], [-2]):
        dw = weight(lam, xi)
        assert dw.weight == pytest.approx(1)
        assert dw.exact_zero is False


def test_weight_half_shift_vanishes_at_one():
    lam = periodic_set(diagonal_lattice([2]), [[0], [F(1, 2)]])
    dw = weight(lam, [1])
    assert dw.exact_zero is True
    assert abs(dw.weight) < 1e-12


def test_weight_half_shift_at_half():
    lam = periodic_set(diagonal_lattice([2]), [[0], [F(1, 2)]])
    dw = weight(lam, [F(1, 2)])
    assert dw.exact_zero is False
    assert dw.weight == pytest.approx(1 - 1j)
    assert abs(dw.weight) == pytest.approx(math.sqrt(2))


def test_weight_at_origin_counts_reps():
    lam = periodic_set(diagonal_lattice([2]), [[0], [F(1, 2)], [F(3, 4)]])
    assert weight(lam, [0]).weight == pytest.approx(3)


def test_weight_requires_dual_point():
    lam = periodic_set(diagonal_lattice([2]), [[0]])
    with pytest.raises(NotDualPoint):
        weight(lam, [F(1, 3)])
    weight(lam, [F(1, 2)])  # fine


def test_weight_modulus_bounded_by_rep_count():
    lam = periodic_set(diagonal_lattice([3]), [[0], [F(1, 3)], [F(5, 4)]])
    for k in range(-6, 7):
        dw = weight(lam, [F(k, 3)])
        assert abs(dw.weight) <= len(lam.reps) + 1e-12


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 4),
    st.sets(st.integers(0, 11), min_size=1, max_size=4),
    st.integers(-8, 8),
)
def test_exact_zero_consistent_with_float(c, numerators, k):
    """exact_zero=True must mean the float weight is numerically zero, and
    a comfortably nonzero float weight must mean exact_zero=False."""
    numerators = {n for n in numerators if n < 3 * c}  # distinct mod c
    if not numerators:
        return
    lam = periodic_set(diagonal_lattice([c]), [[F(n, 3)] for n in numerators])
    dw = weight(lam, [F(k, c)])
    if dw.exact_zero:
        assert abs(dw.weight) < 1e-10
    if abs(dw.weight) > 1e-6:
        assert dw.exact_zero is False


def test_enumerate_dual_two_interval_body():
    om = two_interval_domain()
    body = minkowski_difference(om, om)
    lam = periodic_set(diagonal_lattice([2]), [[0], [F(1, 2)]])
    pts = enumerate_dual_in(lam, body)
    assert pts == [(-1,), (1,)]


def test_enumerate_dual_open_boundary():
    lam = periodic_set(integer_lattice(1), [[0]])
    body = minkowski_difference(unit_cube(1), unit_cube(1))
    assert enumerate_dual_in(lam, body) == []


def test_enumerate_dual_2d():
    lam = periodic_set(diagonal_lattice([2, 1]), [[0, 0]])
    body = minkowski_difference(unit_cube(2), unit_cube(2))
    assert enumerate_dual_in(lam, body) == [(F(-1, 2), F(0)), (F(1, 2), F(0))]


def test_enumerate_dual_negation_closed():
    om = two_interval_domain()
    body = minkowski_difference(om, om)
    lam = periodic_set(diagonal_lattice([2]), [[0], [F(3, 2)]])
    pts = enumerate_dual_in(lam, body)
    assert sorted(tuple(-x for x in p) for p in pts) == pts


def test_window_count():
    lam = periodic_set(integer_lattice(2), [[0, 0]])
    w = window(lam, box([-2, -2], [2, 2]))
    assert len(w.points) == 9


def _shifted_columns(shifts):
    # column n carries (n, m + s_{n mod k}): decoded as diag(k, 1)·Z² + {(j, s_j)}
    return pointset_from_json(
        {"type": "shifted_columns", "shifts": shifts, "window": {"lo": ["-2", "-2"], "hi": ["2", "2"]}}
    )


def test_shifted_column_cubes_rational():
    w = window(_shifted_columns(["0", "1/2"]), box([-2, -2], [2, 2]))
    cols = {}
    for x, y in w.points:
        cols.setdefault(x, []).append(y)
    assert set(cols) == {-1, 0, 1}
    assert all(y % 1 == F(1, 2) for y in cols[F(-1)])
    assert all(y % 1 == 0 for y in cols[F(0)])


def test_shifted_column_cubes_thirds():
    w = window(_shifted_columns(["0", "1/3"]), box([-2, -2], [2, 2]))
    offsets = {y % 1 for x, y in w.points if x == 1}
    assert offsets == {F(1, 3)}


def test_contains_zero_flag():
    lam = periodic_set(diagonal_lattice([2]), [[0], [F(1, 2)]])
    assert lam.contains_zero
    shifted = lam.translate([F(1, 4)])
    assert not shifted.contains_zero
    back, off = shifted.normalized_to_zero()
    assert back.contains_zero
    assert off == (F(-1, 4),)


def test_weight_full_cyclotomic_vanishing():
    # all twelfth-of-period shifts: the weight at the first dual point is a
    # full sum of 12th roots of unity, exactly zero
    lam = periodic_set(diagonal_lattice([1]), [[F(k, 12)] for k in range(12)])
    dw = weight(lam, [1])
    assert dw.exact_zero is True
    assert abs(dw.weight) < 1e-12


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(-2, 2), min_size=4, max_size=4),
    st.integers(1, 2),
)
def test_enumerate_dual_matches_brute_force(entries, den):
    """Bounding-box enumeration must find exactly the dual points inside."""
    from spectile.geometry import DifferenceBody, box as gbox

    a, b, c, d = (F(e, den) for e in entries)
    if a * d - b * c == 0:
        return
    lam = periodic_set(Lattice(((a, b), (c, d))), [[0, 0]])
    body = DifferenceBody((gbox([-2, -2], [2, 2]),))
    got = enumerate_dual_in(lam, body)
    dl = dual(lam.lattice)
    brute = []
    for m1 in range(-40, 41):
        for m2 in range(-40, 41):
            if m1 == m2 == 0:
                continue
            p = (
                dl.basis[0][0] * m1 + dl.basis[0][1] * m2,
                dl.basis[1][0] * m1 + dl.basis[1][1] * m2,
            )
            if all(F(-2) < x < F(2) for x in p):
                brute.append(p)
    assert got == sorted(brute)


def _search_ranges(lam, body):
    """Per axis, the dual coordinates m whose point D·m may meet the body."""
    lo = [min(b.lo[j] for b in body.boxes) for j in range(body.dim)]
    hi = [max(b.hi[j] for b in body.boxes) for j in range(body.dim)]
    images = [mat_vec(mat_transpose(lam.lattice.basis), c) for c in itertools.product(*zip(lo, hi))]
    return [
        range(math.floor(min(i[j] for i in images)) - 1, math.ceil(max(i[j] for i in images)) + 2)
        for j in range(lam.dim)
    ]


def _dual_reference(lam, body):
    """The Fraction route: every dual point D·m of the search range, tested exactly."""
    dl = dual(lam.lattice)
    out = []
    for m in itertools.product(*_search_ranges(lam, body)):
        xi = mat_vec(dl.basis, tuple(F(k) for k in m))
        if any(xi) and any(b.contains(xi) for b in body.boxes):
            out.append(xi)
    return sorted(out)


def _weight_reference(lam, xi):
    """The Fraction route: (float weight, exact_zero) or NotDualPoint."""
    coords = mat_vec(mat_transpose(lam.lattice.basis), xi)
    if not all(c.denominator == 1 for c in coords):
        raise NotDualPoint(xi)
    phases = [sum(x * a for x, a in zip(xi, rep)) % 1 for rep in lam.reps]
    w = sum(cmath.exp(-2j * cmath.pi * float(ph)) for ph in phases)
    q = math.lcm(*(ph.denominator for ph in phases))
    return w, cyclotomic_sum_vanishes([int(ph * q) for ph in phases], q)


@settings(max_examples=40, deadline=None)
@given(st.data(), st.sampled_from([2, 3]))
def test_integer_dual_route_matches_fractions(data, d):
    """Integer enumeration and weights equal the Fraction route bit for bit,
    on random non-diagonal lattices, reps and bodies."""
    from spectile.geometry import DifferenceBody, box as gbox

    rational = st.builds(F, st.integers(-4, 4), st.sampled_from([1, 2, 3]))
    basis = data.draw(st.lists(st.lists(rational, min_size=d, max_size=d), min_size=d, max_size=d))
    if leibniz_det(basis) == 0:
        return
    lat = Lattice(tuple(map(tuple, basis)))
    reps = data.draw(st.lists(st.lists(rational, min_size=d, max_size=d), min_size=1, max_size=4))
    try:
        lam = periodic_set(lat, reps)
    except ValueError:
        return  # two reps in one coset
    boxes = []
    for _ in range(data.draw(st.integers(1, 2))):
        lo = data.draw(st.lists(rational, min_size=d, max_size=d))
        width = st.builds(F, st.integers(1, 6), st.sampled_from([2, 3, 5]))
        widths = data.draw(st.lists(width, min_size=d, max_size=d))
        boxes.append(gbox(lo, [a + w for a, w in zip(lo, widths)]))
    body = DifferenceBody(tuple(boxes))
    assume(math.prod(map(len, _search_ranges(lam, body))) <= 1000)  # keeps the reference quick
    # {0, b/2} for a basis column b: weights vanish where ⟨ξ, b⟩ is odd
    halves = periodic_set(lat, [[0] * d, [lat.basis[i][0] / 2 for i in range(d)]])
    for lam in (lam, halves):
        points = enumerate_dual_in(lam, body)
        assert points == _dual_reference(lam, body)
        for xi in points:
            dw = weight(lam, xi)
            assert (dw.weight, dw.exact_zero) == _weight_reference(lam, xi)
    # half a dual basis vector off the dual lattice
    dl = dual(lat).basis
    off = tuple(dl[i][0] / 2 + dl[i][1] for i in range(d))
    with pytest.raises(NotDualPoint):
        _weight_reference(lam, off)
    with pytest.raises(NotDualPoint):
        weight(lam, off)


def _bits(w: complex) -> tuple[str, str]:
    return complex(w).real.hex(), complex(w).imag.hex()


def _float_columns(shifts):
    """diag(k, 1)·Z² + {(j, s_j)}: planar columns with float (irrational) shifts."""
    return periodic_set(diagonal_lattice([len(shifts), 1]), [(j, s) for j, s in enumerate(shifts)])


def _column_duals(k):
    return [(F(a, k), F(b)) for a in range(-2 * k, 2 * k + 1) for b in range(-2, 3)]


def test_dual_weights_decide_each_phase_class_once(monkeypatch):
    # 6Z + {0, 1} at ξ = k/6: the phases (0, k/6) reduce to (0, 1) over q = 6, 3
    # and 2 for k = 1, 2, 3, which vanish only for q = 2; ξ and ξ + 1 share a
    # class, so 12 dual points make 6 decisions
    import spectile.lattice

    calls = []
    decide = spectile.lattice.sum_of_roots_of_unity_is_zero
    monkeypatch.setattr(spectile.lattice, "sum_of_roots_of_unity_is_zero",
                        lambda e, q: calls.append(q) or decide(e, q))
    lam = periodic_set(diagonal_lattice([6]), [[0], [1]])
    duals = [(F(k, 6),) for k in range(1, 13)]
    got = [dw.exact_zero for dw in dual_weights(lam, duals)]
    assert got == [cyclotomic_sum_vanishes([0, k % 6], 6) for k in range(1, 13)]
    assert got[2] and not got[0] and not got[1]
    assert sorted(calls) == [1, 2, 3, 3, 6, 6]


def test_dual_weights_on_float_columns_decide_all_three_ways():
    # shifts ¼ and ¾: at (0, 1) the float masses −i and i cancel (undecided),
    # at (½, 1) they add to −2i (nonzero), and at (½, 0) the exact mass 1 − 1 vanishes
    lam = _float_columns([0.25, 0.75])
    got = {dw.xi: dw.exact_zero for dw in dual_weights(lam, _column_duals(2))}
    assert got[(F(0), F(1))] is None
    assert got[(F(1, 2), F(1))] is False
    assert got[(F(1, 2), F(0))] is True


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.lists(st.one_of(st.floats(0, 1, exclude_max=True), st.sampled_from([0.25, 0.5, 0.75])), min_size=1, max_size=4))
def test_dual_weights_equal_per_point_weights_on_float_columns(shifts):
    """One batch over the dual list gives the bits and verdicts of one
    `weight` call per point, on exact and on float axes alike."""
    lam = _float_columns(shifts)
    duals = _column_duals(len(shifts))
    single = [weight(lam, xi) for xi in duals]
    batch = dual_weights(lam, duals)
    assert [(dw.xi, _bits(dw.weight), dw.exact_zero) for dw in batch] == [
        (dw.xi, _bits(dw.weight), dw.exact_zero) for dw in single
    ]
    masses = dual_weights(lam, duals, decide=False)
    assert [_bits(dw.weight) for dw in masses] == [_bits(dw.weight) for dw in batch]
    assert all(dw.exact_zero is None for dw in masses)


def _periodic_fixtures():
    """(name, Ω, Λ) for every fixture with a domain and a periodic point set."""
    root = Path(__file__).parent.parent / "fixtures"
    out = []
    for path in sorted(root.glob("**/*.json")):
        obj = json.loads(path.read_text())
        if "domain" in obj and obj.get("pointset", {}).get("type") == "periodic":
            try:
                out.append((path.stem, domain_from_json(obj["domain"]), pointset_from_json(obj["pointset"])))
            except SpectileError:
                continue  # a negative fixture (overlapping boxes)
    return out


def test_weight_bits_match_reference_on_fixtures_and_skew_sets():
    """`weight` keeps its float bits and exact verdicts, so certificates stay
    byte-identical: every dual point in Ω − Ω of every periodic fixture, and
    of random non-diagonal 2-D sets with two to four rational reps."""
    cases = [(om, lam) for _, om, lam in _periodic_fixtures()]
    assert len(cases) >= 20
    rng = random.Random(5)
    while len(cases) < 40:
        basis = tuple(tuple(F(rng.randint(-4, 4), rng.choice([1, 2, 3])) for _ in range(2)) for _ in range(2))
        if leibniz_det(basis) == 0 or all(basis[i][j] == 0 for i in range(2) for j in range(2) if i != j):
            continue
        reps = [[F(rng.randint(-6, 6), rng.choice([1, 2, 3, 5, 7])) for _ in range(2)] for _ in range(rng.randint(2, 4))]
        try:
            lam = periodic_set(Lattice(basis), reps)
        except ValueError:
            continue  # two reps in one coset
        cases.append((unit_cube(2), lam))
    checked = 0
    for om, lam in cases:
        for xi in [tuple(F(0) for _ in range(lam.dim)), *enumerate_dual_in(lam, minkowski_difference(om, om))]:
            dw = weight(lam, xi)
            w, exact = _weight_reference(lam, xi)
            assert _bits(dw.weight) == _bits(w)
            assert dw.exact_zero == exact
            checked += 1
    assert checked > 100
