"""Round-trips: rationals as strings, point sets through the report writer; the writer."""

import json
import math
from fractions import Fraction

import pytest

from oracles import jsonable_reference
from spectile.criteria import check_orthogonality, check_spectrum_periodic
from spectile.errors import DimensionMismatch, SchemaError
from spectile.geometry import unit_cube
from spectile.jsonio import (
    decode_rational,
    domain_from_json,
    dumps,
    pointset_from_json,
    pointset_to_json,
)
from spectile.lattice import PeriodicSet, WindowSet, diagonal_lattice, periodic_set
from spectile.search import SearchProblem, search_spectra

F = Fraction


def _written(value):
    """value as a report carries it: written by `dumps`, read back by json."""
    return json.loads(dumps(value))


def test_rational_decoding():
    assert decode_rational("3/4", "t") == F(3, 4)
    assert decode_rational("-2", "t") == -2
    assert decode_rational(5, "t") == 5
    with pytest.raises(SchemaError):
        decode_rational(0.5, "t")
    with pytest.raises(SchemaError):
        decode_rational("1/0", "t")


def test_periodic_pointset_round_trip():
    obj = {
        "type": "periodic",
        "basis": [["2", "0"], ["0", "1"]],
        "reps": [["0", "0"], ["1", "1/2"]],
    }
    ps = pointset_from_json(obj)
    assert isinstance(ps, PeriodicSet)
    assert ps.density() == 1
    assert pointset_from_json(_written(pointset_to_json(ps))).reps == ps.reps


def test_window_pointset_round_trip():
    obj = {
        "type": "window",
        "points": [["0"], [0.25], ["1/2"]],
        "window": {"lo": ["-1"], "hi": ["1"]},
    }
    ps = pointset_from_json(obj)
    assert isinstance(ps, WindowSet)
    assert ps.points[0] == (F(0),)
    assert ps.points[1] == (0.25,)
    again = pointset_from_json(_written(pointset_to_json(ps)))
    assert again.points == ps.points


def _window(points, lo, hi):
    d = len(points[0])
    return {"type": "window", "points": points, "window": {"lo": [lo] * d, "hi": [hi] * d}}


@pytest.mark.parametrize(
    "points, lo, hi",
    [
        ([[3], [0]], "-1", "1"),
        ([[0.5]], "-1/2", "1/2"),
        ([["-1/2"]], "-1/2", "1/2"),
        ([[0.3333333333333333]], "1/3", "1"),  # float(1/3) lies just below 1/3
        ([[0.0, 2.0]], "-1", "1"),
    ],
    ids=["outside", "on_bound_float", "on_bound_exact", "below_a_rounded_bound", "second_axis"],
)
def test_window_point_outside_its_window_is_refused(points, lo, hi):
    with pytest.raises(SchemaError, match="on or outside its open window"):
        pointset_from_json(_window(points, lo, hi))


def test_window_points_inside_are_kept():
    # float(1/3) lies inside (0, 1/3); a bound beyond the float range is beyond every float
    assert pointset_from_json(_window([[0.3333333333333333]], "0", "1/3")).points == ((0.3333333333333333,),)
    big = "1" + "0" * 400
    points = [[1e308], ["-" + "9" * 400], [-1e308]]
    assert len(pointset_from_json(_window(points, "-" + big, big)).points) == 3


def _columns(shifts, window=(["-3", "-3"], ["3", "3"])):
    return {"type": "shifted_columns", "shifts": shifts, "window": {"lo": window[0], "hi": window[1]}}


def test_shifted_columns_pointset():
    # column n carries (n, m + s_{n mod k}): diag(k, 1)·Z² + {(j, s_j)}, any window
    expected = periodic_set(diagonal_lattice([2, 1]), [[0, 0], [1, F(1, 2)]])
    assert pointset_from_json(_columns(["0", "1/2"])) == expected
    assert pointset_from_json(_columns(["0", "1/2"], (["-9", "0"], ["1", "1/3"]))) == expected
    thirds = pointset_from_json(_columns(["0", "4/3", "-1/3"]))
    assert thirds == periodic_set(
        diagonal_lattice([3, 1]), [[0, 0], [1, F(1, 3)], [2, F(2, 3)]]
    )
    # a float shift stands for an irrational: it stays a float
    irrational = pointset_from_json(_columns([0.0, 0.6180339887498949]))
    assert isinstance(irrational, PeriodicSet)
    assert irrational.reps == ((0, 0.0), (1, 0.6180339887498949))
    assert all(isinstance(r[1], float) for r in irrational.reps)
    assert irrational.float_axes == {1}
    assert _written(pointset_to_json(irrational))["reps"] == [["0", 0.0], ["1", 0.6180339887498949]]
    with pytest.raises(SchemaError):  # a periodic file holds exact reps only
        pointset_from_json(_written(pointset_to_json(irrational)))


@pytest.mark.parametrize(
    "obj, error",
    [
        (_columns([]), SchemaError),
        (_columns(["0", float("nan")]), SchemaError),
        (_columns(["0"], (["0"], ["1"])), DimensionMismatch),
    ],
    ids=["no_shifts", "nan_shift", "window_1d"],
)
def test_shifted_columns_rejected(obj, error):
    with pytest.raises(error):
        pointset_from_json(obj)


def test_unknown_pointset_type():
    with pytest.raises(SchemaError):
        pointset_from_json({"type": "mystery"})


def test_encode_matches_the_reference_walk():
    # {0, 1/4} + Z does not pack the unit interval: a rational difference
    # and a float |1̂_Ω| in the witness
    orthogonality = check_orthogonality(unit_cube(1), periodic_set(diagonal_lattice([1]), [[0], [Fraction(1, 4)]]))
    assert orthogonality.status.value == "fails"
    # a float shift of columns on (0, 1/2) × (0, 2): numeric dual weights
    columns = {"type": "shifted_columns", "shifts": ["0", 0.5], "window": {"lo": ["-1", "-1"], "hi": ["1", "1"]}}
    om = domain_from_json({"product": [{"boxes": [{"lo": ["0"], "hi": [hi]}]} for hi in ("1/2", "2")]})
    verdict, certificate = check_spectrum_periodic(om, pointset_from_json(columns))
    assert not certificate.all_exact
    assert any(dw.exact_zero is None for dw in certificate.dual_points_checked)
    (solution, *_) = search_spectra(SearchProblem(unit_cube(1), diagonal_lattice([2]), Fraction(1, 2)))
    values = {
        "orthogonality_fails": orthogonality,
        "numeric_spectrum": [verdict, certificate],
        "search_solution": {"verdict": solution.verdict, "certificate": solution.certificate},
        "complex": {"weight": 1 - 1j, "xi": (Fraction(1, 2),), "level": 2},
        "floats": [math.nan, math.inf, -math.inf, -0.0, 0.1, 1e300, 5e-324, complex(math.inf, math.nan)],
        "text": {"Ω − Ω": "ξ ∈ Z(1̂_Ω)", "escapes": 'a "quoted"\tline\n\\ \x00 \U0001d53c'},
        "empty": {"list": [], "tuple": (), "dict": {}, "string": ""},
        "bools": [True, 1, False, 0, None, {"flag": True, "count": 1}],
        "ints": [10**30, -7, (Fraction(-1, 3), 0.25)],
    }
    for name, value in values.items():
        got = dumps(value)
        assert got == json.dumps(jsonable_reference(value), indent=2, sort_keys=True), name
    assert dumps(values["text"]) == json.dumps(values["text"], indent=2, sort_keys=True)


def test_dumps_writes_plain_data_as_json_does():
    for value in [
        {"10": "ten", "2.5": "half", "1": "one", "-3": [{}, []]},
        {"true": [1.5, -2], "false": None},
        [[[]], [{"b": {"a": [0.0, -0.0]}}], "x"],
        {"nested": {"z": 1, "a": {"y": [None, True], "b": "\u00e9\u2028"}}},
        "top level",
        3.25,
        [],
    ]:
        assert dumps(value) == json.dumps(value, indent=2, sort_keys=True)


@pytest.mark.parametrize(
    "value",
    [{F(1, 2)}, frozenset(), range(3), object(), {1: "one"}, {"ok": {None: 0}}],
    ids=["set", "frozenset", "range", "object", "int_key", "nested_none_key"],
)
def test_dumps_refuses_what_no_report_holds(value):
    # a report holds JSON data, rationals, complex numbers and records only
    with pytest.raises(TypeError):
        dumps(value)
