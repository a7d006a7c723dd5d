"""The exit-code contract under a fuzzer: every entry of `cli._COMMANDS`, run
in process on small problem files drawn from edge values, returns 0 (holds),
1 (fails), 2 (inconclusive) or 3 (input error), no exception escapes
`main`, no RuntimeWarning is raised (numpy reports an overflow or an
invalid operation with one; each is turned into an error here) and no
report or scan prints NaN or Infinity.

Coordinates come from a pool of edge values: exact ones as strings (0, ±½,
1/7919, 10³⁰, 10²⁰⁰, ±10⁴⁰⁰, 10⁻⁴⁰⁰) and floats as JSON floats (0.1, ±1e300,
1e308, 5e-324).  Grids are 4 per axis.  Every lattice has entries from the
exact pool, whose rectangularized rep counts are either small or over the
orthogonality budget, and whose dual points in Ω − Ω are either few or
over the enumeration budget, so the draws stay clear of the inputs that
run for about a minute under the current budgets.  Domains take their
endpoints from the whole exact pool: 10²⁰⁰ gives boxes whose squared
transform overflows, and 1/7919 gives zero-set polynomials of degree
15 838, whose cyclotomic factors `opr` and every check built on it divide
out before they isolate the irrational zeros.
"""

import contextlib
import io
import json
import re
import tempfile
import warnings
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from spectile.cli import _COMMANDS, main

_EXACT = ["0", "1/2", "-1/2", "1/7919", "1" + "0" * 30, "1" + "0" * 200, "1" + "0" * 400, "-1" + "0" * 400, "1/1" + "0" * 400]
_FLOATS = [0.1, 1e300, -1e300, 1e308, 5e-324]
# periods and grid steps: the positive exact pool, and small periods that give
# a search a few candidates
_POSITIVE = ["1/2", "1/7919", "1" + "0" * 30, "1/1" + "0" * 400, "1", "2"]

exact = st.sampled_from(_EXACT)
# half the endpoints from 0 and ±½, whose zero sets every route can decide
endpoint = st.one_of(st.sampled_from(_EXACT[:3]), exact)
coordinate = st.sampled_from(_EXACT + _FLOATS)


@st.composite
def boxes(draw, d: int, values=exact):
    """An open box, from two distinct values per axis."""
    lo, hi = [], []
    for _ in range(d):
        a, b = sorted(draw(st.lists(values, min_size=2, max_size=2, unique=True)), key=Fraction)
        lo.append(a)
        hi.append(b)
    return {"lo": lo, "hi": hi}


def domains(d: int):
    return st.lists(boxes(d, endpoint), min_size=1, max_size=2).map(lambda bs: {"boxes": bs})


@st.composite
def bases(draw, d: int):
    """A diagonal basis, or a skew one: upper triangular with a pool entry above the diagonal."""
    rows = [["0"] * d for _ in range(d)]
    for j in range(d):
        rows[j][j] = draw(exact.filter(lambda x: x != "0"))
    if d == 2 and draw(st.booleans()):
        rows[0][1] = draw(exact)
    return rows


def points(d: int, values, min_size: int = 0):
    return st.lists(st.lists(values, min_size=d, max_size=d), min_size=min_size, max_size=3)


@st.composite
def window_lists(draw, d: int):
    """Up to 3 pool points inside a window; in one list of eight, or when an
    axis of the window holds no pool value, any pool points, which decoding
    refuses unless they happen to lie inside."""
    w = draw(boxes(d))
    inside = [
        [x for x in _EXACT + _FLOATS if Fraction(lo) < Fraction(x) < Fraction(hi)]
        for lo, hi in zip(w["lo"], w["hi"])
    ]
    if all(inside) and draw(st.integers(0, 7)):
        pts = draw(st.lists(st.tuples(*map(st.sampled_from, inside)).map(list), max_size=3))
    else:
        pts = draw(points(d, coordinate))
    return {"type": "window", "points": pts, "window": w}


def pointsets(d: int):
    def kind(name, **fields):
        return st.fixed_dictionaries({"type": st.just(name), **fields})

    periodic = kind("periodic", basis=bases(d), reps=points(d, exact, 1))
    window = window_lists(d)
    if d == 1:
        return st.one_of(periodic, window)
    columns = kind("shifted_columns", shifts=st.lists(coordinate, min_size=1, max_size=3), window=boxes(2))
    return st.one_of(periodic, window, columns)


@st.composite
def problems(draw):
    """(a domain problem, a transfer problem, the extra flags of each command kind)."""
    d = draw(st.sampled_from([1, 2]))
    params = {
        "period": draw(st.lists(st.sampled_from(_POSITIVE), min_size=1, max_size=d)),
        "grid_step": draw(st.sampled_from(_POSITIVE)),
        "grid": 4,
    }
    pointset = draw(pointsets(d))
    domain_problem = {
        "version": 1,
        "domain": draw(domains(d)),
        "pointset": pointset,
        "packing_region": draw(domains(d)),
        "parameters": params,
    }
    kinds = st.sampled_from(["indicator", "power_spectrum"])
    tile = st.fixed_dictionaries({"kind": kinds, "domain": domains(d)})
    transfer_problem = {"version": 1, "f": draw(tile), "g": draw(tile), "pointset": pointset}
    flags = {
        "verify": [],
        "search": draw(st.sampled_from([[], ["--no-normalize"]])),
        "scan": ["--range", draw(st.sampled_from(["0:1:4", "-3:3:4", "0:1e300:4"])), "--axis", "0"],
    }
    return domain_problem, transfer_problem, flags


_TMP = tempfile.TemporaryDirectory()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(problems())
def test_every_command_keeps_the_exit_code_contract(problem):
    domain_problem, transfer_problem, flags = problem
    paths = {}
    for name, obj in (("domain", domain_problem), ("transfer", transfer_problem)):
        paths[name] = Path(_TMP.name) / f"{name}.json"
        paths[name].write_text(json.dumps(obj))
    for command, entries in _COMMANDS.items():
        for name, (fields, _) in entries.items():
            path = paths["transfer" if "f" in fields else "domain"]
            argv = [command, str(path), "--profile", name] if command == "scan" else [command, name, str(path)]
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
                with warnings.catch_warnings():
                    warnings.simplefilter("error", RuntimeWarning)
                    code = main([*argv, *flags[command]])
            assert code in (0, 1, 2, 3), (argv, code)
            # JSON NaN and Infinity, CSV nan and inf
            assert not re.search(r"\b(nan|inf|infinity)\b", stdout.getvalue(), re.IGNORECASE), argv
