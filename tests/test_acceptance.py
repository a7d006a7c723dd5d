"""Acceptance suite: one test per criterion, one PASS line each (run -s to see).

Every tolerance is pinned here from the criterion itself; nothing is
deferred to later calibration.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import itertools
import json
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from oracles import direct_power_sum
from spectile.cli import main as cli_main
from spectile.criteria import (
    Status,
    TileSpec,
    check_keller,
    check_opr,
    check_opr_measure_bound,
    check_orthogonality,
    check_set_tiling,
    check_spectrum_periodic,
    check_tight_pair,
    check_tiling_defect,
    transfer_harness,
)
from spectile.geometry import (
    box,
    interval,
    multiplicity,
    two_interval_domain,
    unit_cube,
    validate_domain,
)
from spectile.jsonio import domain_from_json, pointset_from_json
from spectile.lattice import diagonal_lattice, integer_lattice, periodic_set, window
from spectile.search import SearchProblem, duality_scan, search_spectra, search_tilings

F = Fraction
FIXTURES = Path(__file__).parent.parent / "fixtures"


def report(n, ok, detail):
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} | {detail}")
    assert ok, detail


def test_acceptance_1_cube_lattice_ground_truth(capsys):
    """verify spectrum + verify tiling hold exactly for (Q, Z^d), d = 1,2,3, < 1 s each."""
    ok = True
    details = []
    for d, name in ((1, "cube1_z.json"), (2, "cube2_z2.json"), (3, "cube3_z3.json")):
        for check in ("spectrum", "tiling"):
            t0 = time.perf_counter()
            code = cli_main([
                "verify", check, str(FIXTURES / name), "--threads", "1",
            ])
            dt = time.perf_counter() - t0
            out = capsys.readouterr().out
            rep = json.loads(out)
            exact = (
                rep.get("certificate", {}).get("all_exact", True)
                if check == "spectrum"
                else True
            )
            this_ok = code == 0 and dt < 1.0 and exact
            ok = ok and this_ok
            details.append(f"d={d} {check}: exit {code}, {dt:.3f}s, exact={exact}")
    with capsys.disabled():
        report(1, ok, "; ".join(details))


def test_acceptance_2_cube_corollary_exhaustive():
    """spectrum ⟺ set tiling on all 16 half-integer rep-sets (d=1)
    and shifted-column pairs s ∈ {0, 1/2, 1/3} (d=2), all exact."""
    q1 = unit_cube(1)
    lat = diagonal_lattice([2])
    candidates = [F(0), F(1, 2), F(1), F(3, 2)]
    agree = 0
    total = 0
    for r in range(len(candidates) + 1):
        for combo in itertools.combinations(candidates, r):
            lam = periodic_set(lat, [[c] for c in combo])
            sv, _ = check_spectrum_periodic(q1, lam)
            tv = check_set_tiling(q1, lam)
            total += 1
            if (sv.status == Status.HOLDS) == (tv.status == Status.HOLDS):
                agree += 1
    q2 = unit_cube(2)
    lat2 = diagonal_lattice([2, 1])
    for s in (F(0), F(1, 2), F(1, 3)):
        lam = periodic_set(lat2, [[0, 0], [1, s]])
        sv, _ = check_spectrum_periodic(q2, lam)
        tv = check_set_tiling(q2, lam)
        total += 1
        if (sv.status == Status.HOLDS) == (tv.status == Status.HOLDS):
            agree += 1
    report(2, agree == total, f"{agree}/{total} spectrum⟺tiling agreements (exact)")


def test_acceptance_3_two_interval_tight_pair():
    """tight pair holds; searches return exactly {{0,1/2},{0,3/2}}; duality scan holds."""
    om = two_interval_domain()
    tp = check_tight_pair(om, om)
    p = SearchProblem(om, diagonal_lattice([2]), F(1, 2))
    spectra = sorted(s.reps for s in search_spectra(p))
    tilings = sorted(
        s.reps
        for s in search_tilings(
            SearchProblem(om, diagonal_lattice([2]), F(1, 2))
        )
    )
    expected = [((F(0),), (F(1, 2),)), ((F(0),), (F(3, 2),))]
    ds = duality_scan(om, om, p)
    ok = (
        tp.status == Status.HOLDS
        and spectra == expected
        and tilings == expected
        and ds.status == Status.HOLDS
    )
    report(
        3,
        ok,
        f"tight pair {tp.status.value}; spectra {spectra}; tilings {tilings}; "
        f"duality scan {ds.status.value}",
    )


def test_acceptance_4_numerical_defect_vs_identity():
    """max grid tiling defect ≤ 3e-4 for (Q, Z ∩ (-1000,1000)), 512 points, < 5 s."""
    t0 = time.perf_counter()
    lam = periodic_set(integer_lattice(1), [[0]])
    ws = window(lam, box([-1000], [1000]))
    v = check_tiling_defect(unit_cube(1), ws, 512, rho=1.0)
    dt = time.perf_counter() - t0
    defect = v.margins["max_defect"]
    tail = v.margins["tail_bound"]
    ok = (
        v.status == Status.HOLDS
        and defect <= 3e-4
        and defect <= tail + 1e-9
        and dt < 5.0
    )
    report(4, ok, f"defect {defect:.3e} ≤ 3e-4, tail {tail:.3e}, {dt:.2f}s")


def _random_unit_measure_domain(rng):
    q = int(rng.integers(1, 5))
    nboxes = int(rng.integers(1, 4))
    if q < nboxes:
        nboxes = q
    # composition of q into nboxes positive parts (widths in 1/q units)
    cuts = sorted(rng.choice(np.arange(1, q), size=nboxes - 1, replace=False)) if nboxes > 1 else []
    widths = np.diff([0, *cuts, q])
    boxes = []
    lo = F(int(rng.integers(0, q + 1)), q)
    for w in widths:
        hi = lo + F(int(w), q)
        boxes.append(interval(lo, hi))
        lo = hi + F(int(rng.integers(0, q + 1)), q)  # gap before the next box
    return validate_domain(boxes)


def test_acceptance_5_transfer_theorem_fuzz():
    """100 random rational instances where both tiles pack: statuses agree 100/100, < 60 s."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260808)
    kept = 0
    tried = 0
    while kept < 100 and tried < 5000:
        tried += 1
        dom = _random_unit_measure_domain(rng)
        c = int(rng.integers(1, 5))
        k = int(rng.integers(1, c + 1))
        grid = [F(n, 4) for n in range(4 * c)]
        reps = rng.choice(len(grid), size=k, replace=False)
        lam = periodic_set(diagonal_lattice([c]), [[grid[i]] for i in reps])
        if multiplicity(dom, lam).level_max > 1:
            continue
        if check_orthogonality(dom, lam).status != Status.HOLDS:
            continue
        verdict = transfer_harness(
            TileSpec("power_spectrum", dom), TileSpec("indicator", dom), lam
        )
        assert verdict.status != Status.INCONCLUSIVE  # both packings established
        if verdict.status != Status.HOLDS:
            report(5, False, f"disagreement on {dom.boxes} with {lam.reps} + {c}Z")
        kept += 1
    dt = time.perf_counter() - t0
    ok = kept == 100 and dt < 60.0
    report(5, ok, f"{kept}/100 packing instances agree (tried {tried}), {dt:.1f}s")


def test_acceptance_6_measure_bound_corpus():
    """every (tiling Ω, verified OPR D) fixture pair satisfies |D| ≤ 1 exactly."""
    files = sorted((FIXTURES / "opr").glob("*.json"))
    assert len(files) >= 10
    checked = []
    for path in files:
        obj = json.loads(path.read_text())
        dom = domain_from_json(obj["domain"])
        lam = pointset_from_json(obj["pointset"])
        region = domain_from_json(obj["packing_region"], "packing_region")
        assert check_set_tiling(dom, lam).status == Status.HOLDS, path.name
        assert check_opr(dom, region).status == Status.HOLDS, path.name
        v = check_opr_measure_bound(dom, lam, region)
        assert v.status == Status.HOLDS, path.name
        assert region.measure <= 1
        checked.append((path.name, str(region.measure)))
    sub_unit = [m for _, m in checked if F(m) < 1]
    ok = len(checked) >= 10 and len(sub_unit) >= 1
    report(6, ok, f"{len(checked)} pairs, all |D| ≤ 1 exactly; sub-unit examples: {sub_unit}")


def test_acceptance_7_keller_fuzz():
    """50 random rational shifted-column cube tilings (periods 2 and 3): Keller holds, < 30 s."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    q2 = unit_cube(2)
    passed = 0
    for trial in range(50):
        p = 2 if trial % 2 == 0 else 3
        shifts = [F(0)] + [
            F(int(rng.integers(0, 8)), 8) for _ in range(p - 1)
        ]
        lam = periodic_set(
            diagonal_lattice([p, 1]),
            [[j, shifts[j]] for j in range(p)],
        )
        v = check_keller(q2, lam, q2)
        if v.status == Status.HOLDS:
            passed += 1
        else:
            report(7, False, f"Keller failed for shifts {shifts}: {v}")
    dt = time.perf_counter() - t0
    ok = passed == 50 and dt < 30.0
    report(7, ok, f"{passed}/50 shifted-column tilings satisfy the Keller condition, {dt:.1f}s")


def _windowed_defect_oracle(dom, reps, period, r=1e4, grid_n=128):
    """Independent classification: is max |Σ |1̂|²(x-λ) - 1| ≤ 1e-3 on the window?"""
    lam = periodic_set(diagonal_lattice([period]), [[x] for x in reps])
    ws = window(lam, box([-int(r) - 2 * period], [int(r) + 2 * period]))
    xs = (np.arange(grid_n) / grid_n * float(period)).reshape(-1, 1)
    pts = np.array(ws.points, dtype=float)
    vals = direct_power_sum(dom, pts, xs)
    return float(np.max(np.abs(vals - 1.0))) <= 1e-3


def test_acceptance_8_oracle_equivalence():
    """search output equals exhaustive windowed-defect enumeration on all
    d=1 problems with ≤ 12 candidates: zero disagreements."""
    problems = [
        (unit_cube(1), 1, F(1, 2)),
        (unit_cube(1), 2, F(1, 2)),
        (unit_cube(1), 2, F(1, 4)),
        (unit_cube(1), 3, F(1, 2)),
        (two_interval_domain(), 2, F(1, 2)),
        (two_interval_domain(), 2, F(1, 4)),
        (validate_domain([interval(0, F(2, 3)), interval(1, F(4, 3))]), 3, F(1)),
    ]
    disagreements = []
    total_subsets = 0
    for dom, period, step in problems:
        sp = SearchProblem(dom, diagonal_lattice([period]), step)
        assert len(sp.candidates()) <= 12
        found = {s.reps for s in search_spectra(sp)}
        k = int(sp.target_count())
        cands = sp.candidates()
        oracle = set()
        for combo in itertools.combinations(cands, k):
            if combo[0] != (F(0),):
                continue  # normalized search anchors 0
            total_subsets += 1
            if _windowed_defect_oracle(dom, [c[0] for c in combo], period):
                oracle.add(tuple(combo))
        if found != oracle:
            disagreements.append((dom.boxes, period, step, found, oracle))
    ok = not disagreements
    report(
        8,
        ok,
        f"{len(problems)} problems, {total_subsets} subsets classified by the "
        f"windowed defect oracle, {len(disagreements)} disagreements",
    )
