"""The three workloads: their ops, and the answer each op must give.

An op is one `spectile` CLI invocation on one problem file.  Its truth is
fixed by mathematics, never by the program's own earlier output:

- ``Verdict``: the statuses a correct program may report (the exit code must
  match the status: 0 holds, 1 fails, 2 inconclusive).  A true instance
  checked numerically may come back inconclusive; that is not a failure.
- ``InputError``: the file is invalid and the program must exit 3.
- ``Solutions``: the search's solution set, as classes modulo translation.
- ``Rows``: a scan's CSV rows, each checked against a closed form or bound.

Every op fails on a traceback, an exit code outside {0, 1, 2, 3}, or exit 3
on a valid file.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import gen
import oracle

HOLDS, FAILS, INCONCLUSIVE = "holds", "fails", "inconclusive"
EXIT_BY_STATUS = {HOLDS: 0, FAILS: 1, INCONCLUSIVE: 2}
WORKLOADS = ("corpus", "exact", "field")

# Sizes of the generated and numeric ops.  They are fixed (the seed only
# picks the random content), so every seed does the same amount of work.
HIGHQ_N = 2000  # cyclotomic order q = 3n = 6000, 2^4·3·5^3: many divisors
CELLS_M = 128  # 1/m-cells, zero-set polynomial of degree m
COLUMNS_RADIUS = 40  # explicit window of about 6.3k column points
FIELD_GRID = "32"  # grid points per axis for the 2-D field ops


@dataclass(frozen=True)
class Verdict:
    allowed: frozenset[str]


@dataclass(frozen=True)
class InputError:
    pass


@dataclass(frozen=True)
class Solutions:
    step: Fraction
    n: int  # grid points per period and axis
    expected: frozenset


@dataclass(frozen=True)
class Rows:
    count: int
    check_row: Callable[[list[float]], str | None]


Truth = Verdict | InputError | Solutions | Rows


@dataclass(frozen=True)
class Op:
    name: str
    argv: tuple[str, ...]  # arguments after `spectile`
    truth: Truth


def true_instance(exact: bool = True) -> Verdict:
    return Verdict(frozenset({HOLDS} if exact else {HOLDS, INCONCLUSIVE}))


def false_instance(exact: bool = True) -> Verdict:
    return Verdict(frozenset({FAILS} if exact else {FAILS, INCONCLUSIVE}))


def _sinc_sq_row(row: list[float]) -> str | None:
    xi, value = row
    expect = 1.0 if xi == 0 else (math.sin(math.pi * xi) / (math.pi * xi)) ** 2
    if abs(value - expect) > 1e-12:
        return f"|1^(xi)|^2 at {xi} is {value}, closed form {expect}"
    return None


def _truncated_defect(bound: float) -> Callable[[list[float]], str | None]:
    # A truncated sum of the nonnegative terms of a tiling sum to 1 lies in
    # [1 - tail, 1], so the printed defect D - 1 lies in [-tail, 0].
    def check(row: list[float]) -> str | None:
        value = row[-1]
        if not -bound <= value <= 1e-9:
            return f"defect {value} at {row[:-1]} outside [-{bound}, 0]"
        return None

    return check


def corpus_ops(fixtures: Path) -> list[Op]:
    """Every shipped fixture under its canonical command."""
    f = lambda name: str(fixtures / name)  # noqa: E731
    cube1 = oracle.classes(oracle.cube_block_tilings(1, 4), 4)
    ops = [
        ("verify", "spectrum", f("cube1_z.json"), true_instance()),
        ("verify", "spectrum", f("cube2_z2.json"), true_instance()),
        ("verify", "spectrum", f("cube3_z3.json"), true_instance()),
        ("verify", "spectrum", f("cube1_halfints.json"), false_instance()),
        ("verify", "spectrum", f("two_interval_spectrum.json"), true_instance()),
        ("verify", "tiling", f("bad_overlap.json"), InputError()),
        ("verify", "tight-pair", f("two_interval_pair.json"), true_instance()),
        ("verify", "duality", f("duality_cube.json"), true_instance()),
        ("verify", "keller", f("keller_columns.json"), true_instance()),
        ("verify", "keller", f("shifted_columns_periodic.json"), true_instance()),
        ("verify", "transfer", f("transfer_cube.json"), true_instance()),
        ("search", "duality-scan", f("two_interval_pair_search.json"), true_instance()),
        ("search", "spectra", f("cube1_search.json"), Solutions(Fraction(1, 2), 4, cube1)),
        # (0,1/2) ∪ (1,3/2) with period 2: the spectra 2Z + {0, 1/2} and
        # 2Z + {0, 3/2}, one class modulo translation.
        ("search", "spectra", f("two_interval_search.json"),
         Solutions(Fraction(1, 2), 4, oracle.classes([[(0,), (1,)], [(0,), (3,)]], 4))),
        ("search", "spectra", f("zero_solutions_search.json"), Solutions(Fraction(1), 2, frozenset())),
        ("scan", f("cube1_z.json"), "--profile", "power", "--axis", "0", "--range", "-3:3:601",
         Rows(601, _sinc_sq_row)),
        # Σ_{|n| >= 999} sinc²(x - n) ≤ 2/(π²·998) < 3e-4 for the R = 1000 window.
        ("scan", f("cube1_z_window.json"), "--profile", "defect", "--grid", "64", "--radius", "1000",
         Rows(64, _truncated_defect(3e-4))),
    ]
    # Every region of the packing-region corpus is an open box or box union
    # whose difference body misses the zero set of 1^_Ω.
    for path in sorted((fixtures / "opr").glob("*.json")):
        ops.append(("verify", "opr", str(path), true_instance()))
    out = []
    for *argv, truth in ops:
        stem = Path(argv[1] if argv[0] == "scan" else argv[2]).stem
        kind = argv[3] if argv[0] == "scan" else argv[1]
        out.append(Op(f"{argv[0]}_{kind}_{stem}".replace("-", "_"), tuple(argv), truth))
    return out


def exact_ops(fixtures: Path, tmp: Path, rng: random.Random) -> list[Op]:
    """The certificate path: Fractions, dual enumeration, cyclotomic division, cliques."""
    spectra = oracle.classes(oracle.cube_block_tilings(3, 4), 4)
    tilings = oracle.classes(oracle.cube_block_tilings(2, 8), 8)
    highq = gen.write(tmp / "highq.json", gen.highq_periodic(rng, HIGHQ_N, moved=False))
    moved = gen.write(tmp / "highq_moved.json", gen.highq_periodic(rng, HIGHQ_N, moved=True))
    cells = gen.write(tmp / "cells.json", gen.cell_domain(rng, CELLS_M, CELLS_M // 2))
    return [
        Op("spectra_cube3",
           ("search", "spectra", str(fixtures / "cube3_z3.json"), "--period", "2", "--grid-step", "1/2"),
           Solutions(Fraction(1, 2), 4, spectra)),
        Op("tilings_cube2",
           ("search", "tilings", str(fixtures / "cube2_z2.json"), "--period", "4", "--grid-step", "1/2"),
           Solutions(Fraction(1, 2), 8, tilings)),
        Op("highq_spectrum", ("verify", "spectrum", highq), true_instance()),
        Op("highq_moved", ("verify", "spectrum", moved), false_instance()),
        Op("fine_roots", ("verify", "orthogonality", cells), true_instance()),
    ]


def scan_cube2(fixtures: Path) -> Op:
    # Z² in the default R = 60 window: the missing translates add at most
    # 2·2/(π²·59) < 7e-3 to the tiling sum.
    return Op("scan_cube2",
              ("scan", str(fixtures / "cube2_z2.json"), "--profile", "defect", "--grid", FIELD_GRID),
              Rows(int(FIELD_GRID) ** 2, _truncated_defect(1e-2)))


def field_ops(fixtures: Path, tmp: Path, rng: random.Random) -> list[Op]:
    """The numeric windowed route: kernel, window enumeration, tail bound."""
    irrational = str(fixtures / "shifted_columns_irrational.json")
    columns = gen.write(tmp / "columns_window.json", gen.column_window(rng, COLUMNS_RADIUS))
    gappy = gen.write(tmp / "gappy.json", gen.gappy_window())
    return [
        scan_cube2(fixtures),
        Op("columns_spectrum", ("verify", "spectrum", irrational), true_instance(exact=False)),
        Op("columns_tiling", ("verify", "tiling", irrational), true_instance(exact=False)),
        Op("window_spectrum", ("verify", "spectrum", columns, "--grid", FIELD_GRID),
           true_instance(exact=False)),
        Op("gappy_probe", ("verify", "spectrum", gappy), false_instance(exact=False)),
    ]


def build(workload: str, root: Path, tmp: Path, seed: int) -> list[Op]:
    fixtures = root / "fixtures"
    rng = random.Random(seed)
    if workload == "corpus":
        return corpus_ops(fixtures)
    if workload == "exact":
        return exact_ops(fixtures, tmp, rng)
    return field_ops(fixtures, tmp, rng)


class Unreadable(str):
    """A failure whose output could not be judged at all (no readable report)."""


def check(op: Op, code: int, out: str, err: str) -> str | None:
    """None when the op gave its true answer, otherwise why it failed."""
    if "Traceback (most recent call last)" in err:
        return "traceback: " + err.strip().splitlines()[-1]
    if code not in (0, 1, 2, 3):
        return f"exit code {code} outside the contract"
    truth = op.truth
    if isinstance(truth, InputError):
        return None if code == 3 else f"exit {code} on an invalid file, expected 3"
    if code == 3:
        return "exit 3 on a valid file: " + err.strip()[-200:]
    if isinstance(truth, Rows):
        return _check_rows(truth, code, out)
    try:
        report = json.loads(out)
        status = report["verdicts"][0]["status"] if isinstance(truth, Verdict) else None
    except (json.JSONDecodeError, KeyError, IndexError, TypeError):
        return Unreadable(f"exit {code} with no readable report")
    if isinstance(truth, Verdict):
        if code != EXIT_BY_STATUS.get(status):
            return f"exit {code} does not match status {status}"
        if status not in truth.allowed:
            return f"status {status}, truth allows {sorted(truth.allowed)}"
        return None
    return _check_solutions(truth, code, report)


def _check_rows(truth: Rows, code: int, out: str) -> str | None:
    if code != 0:
        return f"scan exited {code}"
    try:
        rows = [[float(v) for v in line.split(",")] for line in out.splitlines() if line]
    except ValueError:
        return Unreadable("scan output is not numeric CSV")
    if len(rows) != truth.count:
        return f"{len(rows)} rows, expected {truth.count}"
    try:
        return next((p for p in map(truth.check_row, rows) if p), None)
    except ValueError:
        return Unreadable("scan rows have the wrong number of columns")


def _check_solutions(truth: Solutions, code: int, report: dict) -> str | None:
    if code != 0:
        return f"search exited {code}"
    try:
        sols, count = report["solutions"], report["count"]
        statuses = [c["verdict"]["status"] for c in report["certificates"]]
        reps = [s["reps"] for s in sols]
    except (KeyError, TypeError):
        return Unreadable("search report lacks solutions or certificates")
    if count != len(sols):
        return f"count {count} but {len(sols)} solutions listed"
    if bad := sum(s != HOLDS for s in statuses):
        return f"{bad} solutions carry a certificate that does not hold"
    try:
        got = oracle.classes((oracle.grid_points(r, truth.step, truth.n) for r in reps), truth.n)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        return f"a solution is not a rep set on the grid: {exc}"
    if got != truth.expected:
        return (
            f"{len(got)} solution classes modulo translation, expected {len(truth.expected)}: "
            f"{len(got - truth.expected)} extra, {len(truth.expected - got)} missing"
        )
    return None
