"""Round-trips: rationals as strings, point sets."""

from fractions import Fraction

import pytest

from spectile.errors import DimensionMismatch, SchemaError
from spectile.jsonio import (
    decode_rational,
    pointset_from_json,
    pointset_to_json,
    to_jsonable,
)
from spectile.lattice import PeriodicSet, WindowSet, diagonal_lattice, periodic_set

F = Fraction


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
    assert pointset_from_json(pointset_to_json(ps)).reps == ps.reps


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
    again = pointset_from_json(pointset_to_json(ps))
    assert again.points == ps.points


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
    assert pointset_to_json(irrational)["reps"] == [["0", 0.0], ["1", 0.6180339887498949]]
    with pytest.raises(SchemaError):  # a periodic file holds exact reps only
        pointset_from_json(pointset_to_json(irrational))


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


def test_to_jsonable_handles_exact_and_complex():
    payload = {"xi": (F(1, 2),), "weight": 1 - 1j, "level": 2}
    out = to_jsonable(payload)
    assert out == {"xi": ["1/2"], "weight": {"re": 1.0, "im": -1.0}, "level": 2}
