"""Search: the translated spectra row and cover masks, cliques, exact covers,
duality scans."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import coven_meyerowitz

import spectile.search
from spectile.criteria import Status, check_set_tiling, check_spectrum_periodic
from spectile.errors import BudgetExceeded, PreconditionFailed
from spectile.geometry import (
    Box,
    Domain,
    box,
    interval,
    product_domain,
    two_interval_domain,
    unit_cube,
    validate_domain,
)
from spectile.lattice import PeriodicSet, diagonal_lattice, periodic_set
from spectile.search import (
    _GRID_BUDGET,
    _SOLUTION_BUDGET,
    SearchProblem,
    _cover_masks,
    _exact_covers,
    _shift,
    _spectra_row,
    duality_scan,
    search_spectra,
    search_tilings,
)

F = Fraction


def problem(dom, period_entries, step, normalize=True):
    return SearchProblem(dom, diagonal_lattice(period_entries), as_frac(step), normalize)


def as_frac(x):
    return x if isinstance(x, Fraction) else Fraction(x)


def reps_of(solutions):
    return sorted(s.reps for s in solutions)


def bits(mask):
    return {i for i in range(mask.bit_length()) if mask >> i & 1}


# The compatibility graph is the Cayley graph of the candidate group: u and v
# coexist iff bit u − v of the row of 0 is set.


def test_compatibility_graph_cube():
    p = problem(unit_cube(1), [2], F(1, 2))
    assert p.candidates() == [(F(0),), (F(1, 2),), (F(1),), (F(3, 2),)]
    assert bits(_spectra_row(p)) == {2}


def test_compatibility_graph_two_interval():
    p = problem(two_interval_domain(), [2], F(1, 2))
    assert bits(_spectra_row(p)) == {1, 3}


def test_compatibility_graph_no_edges():
    # period 1 with a half-step grid: difference 1/2 is never orthogonal for Q
    p = problem(unit_cube(1), [1], F(1, 2))
    assert _spectra_row(p) == 0


_STAIRCASE = validate_domain([box([0, 0], [1, F(1, 2)]), box([F(1, 2), F(1, 2)], [F(3, 2), 1])])
_SPLIT_STEP = Domain((Box((F(0), F(0)), (F(1), F(1, 2))), Box((F(1), F(1, 2)), (F(2), F(1)))))


@pytest.mark.parametrize(
    "dom, period, step, count",
    [
        pytest.param(_STAIRCASE, [2, 1], F(1, 3), 3, id="staircase_2x1_third"),
        pytest.param(_STAIRCASE, [1, 2], F(1, 4), 1, id="staircase_1x2_quarter"),
        pytest.param(_STAIRCASE, [2, 1], F(1, 4), 4, id="staircase_2x1_quarter"),
        pytest.param(_SPLIT_STEP, [1, 2], F(1, 4), 4, id="split_step_1x2_quarter"),
    ],
)
def test_search_spectra_on_a_non_product_is_the_spectrum_oracle(dom, period, step, count):
    """On a union that is no product, the search (exact coset tests on the
    zero set) returns exactly the anchored grid subsets on which the dual
    route, which needs no zero set, holds."""
    assert dom.factors() is None
    p = SearchProblem(dom, diagonal_lattice(period), step)
    got = {s.reps for s in search_spectra(p)}
    cands, k = p.candidates(), int(p.target_count())
    want = set()
    for rest in itertools.combinations(cands[1:], k - 1):
        lam = periodic_set(p.period, [cands[0], *rest])
        if check_spectrum_periodic(dom, lam)[0].status == Status.HOLDS:
            want.add(lam.reps)
    assert got == want
    assert len(got) == count


@pytest.mark.parametrize("shape", [(5,), (2, 3), (3, 1, 4)])
def test_shift_is_a_per_axis_translation(shape):
    grid = list(itertools.product(*map(range, shape)))
    index = {t: i for i, t in enumerate(grid)}
    masks = [1 << i for i in range(len(grid))] + [0b1011001 % (1 << len(grid)), (1 << len(grid)) - 2]
    for v in grid:
        for mask in masks:
            naive = 0
            for i, t in enumerate(grid):
                if mask >> i & 1:
                    naive |= 1 << index[tuple((a + b) % n for a, b, n in zip(t, v, shape))]
            assert _shift(mask, v, shape) == naive


def test_search_spectra_cube_unit_period():
    p = problem(unit_cube(1), [1], F(1, 2))
    sols = search_spectra(p)
    assert reps_of(sols) == [((F(0),),)]


def test_search_spectra_two_interval():
    p = problem(two_interval_domain(), [2], F(1, 2))
    sols = search_spectra(p)
    assert reps_of(sols) == [
        ((F(0),), (F(1, 2),)),
        ((F(0),), (F(3, 2),)),
    ]


def test_search_spectra_cube_period_two():
    p = problem(unit_cube(1), [2], F(1, 2))
    sols = search_spectra(p)
    assert reps_of(sols) == [((F(0),), (F(1),))]


def test_search_tilings_cube():
    p = problem(unit_cube(1), [1], F(1, 2))
    assert reps_of(search_tilings(p)) == [((F(0),),)]


def test_search_tilings_two_interval():
    p = problem(two_interval_domain(), [2], F(1, 2))
    assert reps_of(search_tilings(p)) == [
        ((F(0),), (F(1, 2),)),
        ((F(0),), (F(3, 2),)),
    ]


def test_search_tilings_cube_2d_columns():
    p = SearchProblem(unit_cube(2), diagonal_lattice([2, 1]), F(1, 2))
    sols = reps_of(search_tilings(p))
    assert ((F(0), F(0)), (F(1), F(1, 2))) in sols
    assert ((F(0), F(0)), (F(1), F(0))) in sols


def test_search_zero_solutions():
    # two-interval with integer grid: difference 1 is not orthogonal
    p = problem(two_interval_domain(), [2], F(1))
    assert search_spectra(p) == []


def test_search_unnormalized_includes_translates():
    p = problem(unit_cube(1), [1], F(1, 2), normalize=False)
    sols = reps_of(search_spectra(p))
    assert sols == [((F(0),),), ((F(1, 2),),)]


def test_solutions_reverify_and_translation_closure():
    dom = two_interval_domain()
    p = problem(dom, [2], F(1, 2))
    sols = search_spectra(p)
    all_reps = {s.reps for s in sols}
    step, period = F(1, 2), F(2)
    for s in sols:
        v, _ = check_spectrum_periodic(dom, s)
        assert v.status == Status.HOLDS
        shifted = [(r[0] + step) % period for r in s.reps]
        for base in shifted:
            variant = tuple(sorted(((x - base) % period,) for x in shifted))
            assert variant in all_reps


def test_completeness_vs_exhaustive_enumeration():
    """Backtracking must equal brute-force subset enumeration exactly."""
    cases = [
        (unit_cube(1), [2], F(1, 2), search_spectra),
        (unit_cube(1), [2], F(1, 2), search_tilings),
        (two_interval_domain(), [2], F(1, 2), search_spectra),
        (two_interval_domain(), [2], F(1, 4), search_spectra),
        (unit_cube(1), [3], F(1, 2), search_tilings),
        # non-square candidate grids: the translates roll each axis on its own
        (unit_cube(2), [2, 1], F(1, 2), search_spectra),
        (unit_cube(2), [1, 3], F(1, 2), search_spectra),
        (unit_cube(2), [1, 3], F(1, 2), search_tilings),
        (two_interval_domain(), [4], F(1, 3), search_tilings),
    ]
    for dom, period, step, search in cases:
        p = problem(dom, period, step)
        got = reps_of(search(p))
        k = int(p.target_count())
        cands = p.candidates()
        assert len(cands) <= 12
        lat = diagonal_lattice(period)
        expected = []
        for combo in itertools.combinations(cands, k):
            if combo[0] != tuple([F(0)] * dom.dim):
                continue  # normalized search: 0 ∈ A
            lam = periodic_set(lat, combo)
            if search is search_spectra:
                verdict, _ = check_spectrum_periodic(dom, lam)
            else:
                verdict = check_set_tiling(dom, lam)
            if verdict.status == Status.HOLDS:
                expected.append(lam.reps)
        assert got == sorted(expected)


def _brute_force_tilings(p):
    """Every k-subset of the candidates (through the origin when normalized)
    that check_set_tiling accepts."""
    lat = diagonal_lattice(p.period.periods)
    origin = tuple([F(0)] * p.domain.dim)
    found = []
    for combo in itertools.combinations(p.candidates(), int(p.target_count())):
        if p.normalize and origin not in combo:
            continue
        lam = periodic_set(lat, combo)
        if check_set_tiling(p.domain, lam).status == Status.HOLDS:
            found.append(lam.reps)
    return sorted(found)


@pytest.mark.parametrize(
    "dom, period, step, normalize",
    [
        pytest.param(unit_cube(2), [2, 2], F(1, 2), True, id="square_period2_step_half"),
        pytest.param(unit_cube(2), [2, 1], F(1, 2), False, id="square_unnormalized"),
        pytest.param(
            validate_domain([interval(F(1, 3), F(5, 6)), interval(F(4, 3), F(11, 6))]),
            [2], F(1, 2), True, id="two_intervals_off_grid",
        ),
        pytest.param(
            validate_domain([box([F(1, 3), F(1, 5)], [F(4, 3), F(6, 5)])]),
            [2, 1], F(1, 2), False, id="square_off_grid_unnormalized",
        ),
        pytest.param(
            validate_domain([
                box([F(1, 3), 0], [F(4, 3), 1]),
                box([F(1, 3), 1], [F(4, 3), 2]),
                box([F(4, 3), 0], [F(7, 3), 1]),
            ]),
            [3, 3], F(1), True, id="tromino_off_grid",
        ),
        pytest.param(
            validate_domain([box([0, 0], [2, F(1, 2)])]), [1, 1], F(1, 2), True,
            id="wider_than_period",
        ),
        pytest.param(
            validate_domain([interval(0, 1), interval(2, 3)]), [2], F(1), False,
            id="overlaps_itself_mod_period",
        ),
    ],
)
def test_exact_cover_matches_brute_force(dom, period, step, normalize):
    p = problem(dom, period, step, normalize)
    assert reps_of(search_tilings(p)) == _brute_force_tilings(p)


def test_square_tilings_include_shifted_rows():
    p = problem(unit_cube(2), [2, 2], F(1, 2))
    sols = reps_of(search_tilings(p))
    assert ((F(0), F(0)), (F(0), F(1)), (F(1), F(1, 2)), (F(1), F(3, 2))) in sols
    assert ((F(0), F(0)), (F(1, 2), F(1)), (F(1), F(0)), (F(3, 2), F(1))) in sols
    assert len(sols) == 3  # Z², its second row shifted by ½, its second column shifted by ½


def test_solutions_carry_their_verdicts():
    sols = search_spectra(problem(two_interval_domain(), [2], F(1, 2)))
    assert all(s.verdict.status == Status.HOLDS for s in sols)
    assert all(s.certificate.all_exact for s in sols)
    tilings = search_tilings(problem(two_interval_domain(), [2], F(1, 2)))
    assert all(t.verdict.status == Status.HOLDS and t.certificate is None for t in tilings)


def test_duality_scan_cube():
    p = problem(unit_cube(1), [1], F(1, 2))
    v = duality_scan(unit_cube(1), unit_cube(1), p)
    assert v.status == Status.HOLDS
    assert v.margins["solutions"] == 1.0


def test_duality_scan_two_interval():
    om = two_interval_domain()
    p = problem(om, [2], F(1, 2))
    v = duality_scan(om, om, p)
    assert v.status == Status.HOLDS
    assert v.margins["solutions"] == 2.0


def test_duality_scan_precondition():
    p = problem(unit_cube(1), [1], F(1, 2))
    with pytest.raises(PreconditionFailed):
        duality_scan(unit_cube(1), validate_domain([interval(0, 2)]), p)


def test_problem_validation():
    with pytest.raises(ValueError):
        problem(unit_cube(1), [2], F(3, 4))  # 2/(3/4) is not integer
    with pytest.raises(ValueError):
        problem(validate_domain([interval(0, F(3, 4))]), [1], F(1, 4))


def test_duality_scan_cube_2d_columns():
    q2 = unit_cube(2)
    p = SearchProblem(q2, diagonal_lattice([2, 1]), F(1, 2))
    v = duality_scan(q2, q2, p)
    assert v.status == Status.HOLDS
    spectra = reps_of(search_spectra(p))
    assert ((F(0), F(0)), (F(1), F(1, 2))) in spectra
    assert ((F(0), F(0)), (F(1), F(0))) in spectra


@pytest.mark.parametrize("search", [search_spectra, search_tilings])
def test_search_at_the_grid_budget(search):
    # 4096 candidates, the most one search may list
    p = problem(unit_cube(1), [2], F(1, 2048))
    assert reps_of(search(p)) == [((F(0),), (F(1),))]


# the case ids are the names these cases had when the problem carried a mode
@pytest.mark.parametrize("search", [pytest.param(search_spectra, id="Mode.SPECTRA"),
                                    pytest.param(search_tilings, id="Mode.TILINGS")])
def test_grid_budget_counts_candidates_over_all_axes(search):
    # 64 × 64 candidates sit at the budget; one more row on axis 0 is over it,
    # and each search is refused it before any candidate is listed
    assert problem(unit_cube(2), [64, 64], 1).grid_shape() == (64, 64)
    with pytest.raises(BudgetExceeded):
        search(problem(unit_cube(2), [65, 64], 1))


@pytest.mark.parametrize("period", [1, 2])
def test_spectra_of_128_cells_are_those_of_the_unit_interval(period):
    # the cells (k/128, (k+1)/128) make up (0, 1): q = 128, yet the rational zeros
    # are Z ∖ {0}, period 1, so each coset test walks one residue, not 128
    cells = validate_domain([interval(F(k, 128), F(k + 1, 128)) for k in range(128)])
    found = reps_of(search_spectra(problem(cells, [period], F(1, 64))))
    unit = validate_domain([interval(0, 1)])
    assert found == reps_of(search_spectra(problem(unit, [period], F(1, 64))))
    assert len(found) == 1


_FACTORIZATIONS = [(2,), (3,), (2, 2), (4,), (2, 3), (3, 2), (2, 2, 2), (2, 4), (4, 2), (8,), (3, 3), (9,),
                   (2, 2, 3), (2, 3, 2), (3, 2, 2), (4, 3), (3, 4), (2, 6), (6, 2)]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_1d_searches_agree_with_coven_meyerowitz(data):
    """Ω = (A + (0, 1))/n with n = |A| ∈ {2, 3, 4, 6, 8, 9, 12}, at most two
    primes.  A tiles Z iff T1 and T2 hold (Coven–Meyerowitz), and then with
    period M = lcm(S_A), so the tilings search with period M/n and step 1/n
    is non-empty iff T1 ∧ T2.  T1 ∧ T2 make A spectral with a spectrum in
    (1/M)·Z (Łaba, J. London Math. Soc. 2002), so the spectra search with
    period n and step n/M is non-empty then; the converse is not tested."""
    n = data.draw(st.sampled_from([2, 3, 4, 6, 8, 9, 12]))
    if data.draw(st.booleans()):
        a = [0, *data.draw(st.lists(st.integers(1, 3 * n - 1), min_size=n - 1, max_size=n - 1, unique=True))]
    else:
        # {Σ k_i·d_i : k_i < p_i} over a factorization n = ∏ p_i, which often
        # tiles, with one element moved by a multiple of its residue class
        # or not at all
        ps = data.draw(st.sampled_from([f for f in _FACTORIZATIONS if math.prod(f) == n]))
        ds = [1, *(data.draw(st.integers(1, 3)) * math.prod(ps[:i]) for i in range(1, len(ps)))]
        a = sorted({sum(k * d for k, d in zip(ks, ds)) for ks in itertools.product(*map(range, ps))})
        assume(len(a) == n)
        i, shift = data.draw(st.integers(1, n - 1)), data.draw(st.sampled_from([0, 0, 1, n, 2 * n]))
        a[i] += shift
        assume(len(set(a)) == n and max(a) < 3 * n)
    t1, t2, m = coven_meyerowitz(a)
    period = math.lcm(m, n)  # M itself under T1, where n divides M
    assume(period <= _GRID_BUDGET)
    dom = validate_domain([interval(F(x, n), F(x + 1, n)) for x in a])
    tilings = search_tilings(SearchProblem(dom, diagonal_lattice([F(period, n)]), F(1, n)))
    assert bool(tilings) == (t1 and t2)
    if t1 and t2:
        assert search_spectra(SearchProblem(dom, diagonal_lattice([n]), F(n, m)))


def _bits(w: complex) -> tuple[str, str]:
    return w.real.hex(), w.imag.hex()


def _unit_union(data, n):
    """(A + (0, 1))/n for n distinct integers A in [0, 3n): a union of measure 1."""
    a = data.draw(st.lists(st.integers(0, 3 * n - 1), min_size=n, max_size=n, unique=True))
    return validate_domain([interval(F(x, n), F(x + 1, n)) for x in sorted(a)])


@settings(max_examples=80, deadline=None, derandomize=True)
@given(data=st.data())
def test_search_certificates_equal_a_fresh_check(data):
    """A search verifies every solution against one dual list enumerated once;
    each verdict and certificate equals a lone `check_spectrum_periodic` on
    the solution, every dual weight bit for bit."""
    kind = data.draw(st.sampled_from(["union", "product", "staircase"]))
    if kind == "union":
        n = data.draw(st.integers(1, 4))
        dom, period = _unit_union(data, n), [n]
        step = F(1, data.draw(st.sampled_from([1, 2, 3, 4, 6])))
    elif kind == "product":
        ns = data.draw(st.lists(st.integers(1, 2), min_size=2, max_size=2))
        dom, period = product_domain([_unit_union(data, n) for n in ns]), ns
        step = F(1, data.draw(st.sampled_from([1, 2])))
    else:
        dom = _STAIRCASE
        period, step = data.draw(st.sampled_from([([2, 1], F(1, 3)), ([2, 1], F(1, 4)), ([1, 2], F(1, 4))]))
    p = problem(dom, period, step, normalize=data.draw(st.booleans()))
    for s in search_spectra(p):
        verdict, cert = check_spectrum_periodic(dom, PeriodicSet(s.lattice, s.reps, s.contains_zero))
        assert (s.verdict, s.certificate) == (verdict, cert)
        assert [_bits(dw.weight) for dw in s.certificate.dual_points_checked] == [
            _bits(dw.weight) for dw in cert.dual_points_checked
        ]


def _comb(k):
    # (3·{0, …, k−1} + (0, 1))/k with period k and step 1/3: 3^(k−1) anchored spectra
    dom = validate_domain([interval(F(3 * a, k), F(3 * a + 1, k)) for a in range(k)])
    return problem(dom, [k], F(1, 3))


def test_a_search_under_the_solution_budget_verifies_every_solution():
    sols = search_spectra(_comb(9))
    assert len(sols) == 3 ** 8 < _SOLUTION_BUDGET
    assert all(s.verdict.status == Status.HOLDS for s in sols)


@pytest.mark.parametrize(
    "p, search, check",
    [
        pytest.param(_comb(12), search_spectra, "check_spectrum_periodic", id="spectra_comb12"),
        # unit squares in the 8 × 1 torus: one column each, shifted freely on
        # the quarter grid, 4^7 tilings through the origin
        pytest.param(
            problem(unit_cube(2), [8, 1], F(1, 4)), search_tilings, "check_set_tiling", id="tilings_strip8"
        ),
    ],
)
def test_solution_budget_refuses_before_any_verification(monkeypatch, p, search, check):
    def must_not_run(*args):
        raise AssertionError("verified a solution past the budget")

    monkeypatch.setattr(spectile.search, check, must_not_run)
    with pytest.raises(BudgetExceeded):
        search(p)


def test_solution_budget_counts_rep_sets():
    # 4^6 tilings of the 7 × 1 torus sit under the budget
    assert len(_exact_covers(*_cover_masks(problem(unit_cube(2), [7, 1], F(1, 4))), [0])) == 4 ** 6
