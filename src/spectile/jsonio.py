"""JSON encoding/decoding: rationals as "p/q" strings, schema-checked problems.

Every rational travels as a string so round-trips are exact; floats are
reserved for genuinely non-rational data (window point coordinates,
irrational column shifts).  Unknown fields anywhere in a problem file are
rejected rather than ignored.  Shifted columns decode to the periodic set
diag(k, 1)·Z² + {(j, s_j) : 0 ≤ j < k}; their `window` is validated but has
no effect.

Reports are written by `json.dumps(report, default=encode)`: verdicts and
certificates go into a report as they are, and `encode` gives each value
that JSON has no type for (a rational, a complex number, a dataclass
instance) its JSON form.  Point sets have an explicit shape,
`pointset_to_json`, the inverse of `pointset_from_json`.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import DimensionMismatch, SchemaError
from .exact import format_rational
from .geometry import Box, Domain, box, product_domain, validate_domain
from .lattice import (
    Lattice,
    PeriodicSet,
    WindowSet,
    diagonal_lattice,
    periodic_set,
)


def _require_keys(obj: dict, where: str, required: set[str], optional: set[str] = frozenset()):
    if not isinstance(obj, dict):
        raise SchemaError(f"{where}: expected an object")
    missing = required - obj.keys()
    if missing:
        raise SchemaError(f"{where}: missing fields {sorted(missing)}")
    unknown = obj.keys() - required - optional
    if unknown:
        raise SchemaError(f"{where}: unknown fields {sorted(unknown)}")


def _array(v, where: str, length: int | None = None) -> list:
    """A JSON array, of the given length when one is given."""
    if not isinstance(v, list):
        raise SchemaError(f"{where}: expected an array")
    if length is not None and len(v) != length:
        raise SchemaError(f"{where}: expected {length} entries, got {len(v)}")
    return v


def decode_rational(v, where: str) -> Fraction:
    if isinstance(v, bool) or isinstance(v, float):
        raise SchemaError(f"{where}: rationals must be strings or integers, got {v!r}")
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, str):
        try:
            return Fraction(v.strip())
        except (ValueError, ZeroDivisionError):
            raise SchemaError(f"{where}: cannot parse rational {v!r}") from None
    raise SchemaError(f"{where}: cannot parse rational {v!r}")


def decode_coordinate(v, where: str):
    """Rational when exact (string/int), float when a finite JSON float."""
    if isinstance(v, float):
        if not math.isfinite(v):
            raise SchemaError(f"{where}: coordinates must be finite, got {v!r}")
        return v
    return decode_rational(v, where)


def box_from_json(obj, where: str = "box") -> Box:
    _require_keys(obj, where, {"lo", "hi"})
    lo = [decode_rational(v, f"{where}.lo") for v in _array(obj["lo"], f"{where}.lo")]
    hi = [decode_rational(v, f"{where}.hi") for v in _array(obj["hi"], f"{where}.hi")]
    try:
        return box(lo, hi)
    except ValueError as exc:
        raise SchemaError(f"{where}: {exc}") from None


def box_to_json(b: Box) -> dict:
    return {
        "lo": [format_rational(v) for v in b.lo],
        "hi": [format_rational(v) for v in b.hi],
    }


def domain_from_json(obj, where: str = "domain") -> Domain:
    if not isinstance(obj, dict):
        raise SchemaError(f"{where}: expected an object")
    if "product" in obj:
        _require_keys(obj, where, {"product"})
        factors = [
            domain_from_json(f, f"{where}.product[{i}]")
            for i, f in enumerate(_array(obj["product"], f"{where}.product"))
        ]
        return product_domain(factors)
    _require_keys(obj, where, {"boxes"})
    boxes = [
        box_from_json(b, f"{where}.boxes[{i}]")
        for i, b in enumerate(_array(obj["boxes"], f"{where}.boxes"))
    ]
    try:
        return validate_domain(boxes)
    except ValueError as exc:  # no boxes
        raise SchemaError(f"{where}: {exc}") from None


def pointset_from_json(obj, where: str = "pointset"):
    if not isinstance(obj, dict) or "type" not in obj:
        raise SchemaError(f"{where}: expected an object with a 'type' field")
    kind = obj["type"]
    if kind == "periodic":
        _require_keys(obj, where, {"type", "basis", "reps"})
        rows = _array(obj["basis"], f"{where}.basis")
        d = len(rows)
        if d == 0:
            raise SchemaError(f"{where}.basis: expected a non-empty square matrix")
        basis = tuple(
            tuple(
                decode_rational(v, f"{where}.basis")
                for v in _array(row, f"{where}.basis[{i}]", d)
            )
            for i, row in enumerate(rows)
        )
        reps = [
            [decode_rational(v, f"{where}.reps") for v in _array(rep, f"{where}.reps[{i}]", d)]
            for i, rep in enumerate(_array(obj["reps"], f"{where}.reps"))
        ]
        if not reps:
            raise SchemaError(f"{where}.reps: need at least one rep")
        try:
            return periodic_set(Lattice(basis), reps)
        except ValueError as exc:  # singular basis, repeated coset
            raise SchemaError(f"{where}: {exc}") from None
    if kind == "window":
        _require_keys(obj, where, {"type", "points", "window"})
        w = box_from_json(obj["window"], f"{where}.window")
        pts = tuple(
            tuple(
                decode_coordinate(v, f"{where}.points")
                for v in _array(p, f"{where}.points[{i}]", w.dim)
            )
            for i, p in enumerate(_array(obj["points"], f"{where}.points"))
        )
        return WindowSet(pts, w)
    if kind == "shifted_columns":
        # column n carries the points (n, m + s_{n mod k}) for all integers m
        _require_keys(obj, where, {"type", "shifts", "window"})
        if box_from_json(obj["window"], f"{where}.window").dim != 2:
            raise DimensionMismatch("shifted columns live in the plane")
        shifts = [
            decode_coordinate(v, f"{where}.shifts")
            for v in _array(obj["shifts"], f"{where}.shifts")
        ]
        if not shifts:
            raise SchemaError(f"{where}.shifts: need at least one shift")
        return periodic_set(
            diagonal_lattice([len(shifts), 1]), [(j, s) for j, s in enumerate(shifts)]
        )
    raise SchemaError(f"{where}: unknown pointset type {kind!r}")


def _coordinate(v):
    # a float stays a float, never its binary rational
    return format_rational(v) if isinstance(v, Fraction) else v


def pointset_to_json(ps) -> dict:
    if isinstance(ps, PeriodicSet):
        return {
            "type": "periodic",
            "basis": [
                [format_rational(v) for v in row] for row in ps.lattice.basis
            ],
            "reps": [[_coordinate(v) for v in rep] for rep in ps.reps],
        }
    return {
        "type": "window",
        "points": [[_coordinate(v) for v in p] for p in ps.points],
        "window": box_to_json(ps.window),
    }


def encode(v):
    """`json.dumps` default for report values JSON has no type for.

    A rational is its "p/q" string, a complex number {"re", "im"}, a set its
    elements sorted by repr, a dataclass instance (a verdict, a certificate,
    a dual weight) the object of its fields; anything else is its repr.
    """
    if isinstance(v, Fraction):
        return format_rational(v)
    fields = getattr(type(v), "__dataclass_fields__", None)
    if fields is not None:
        return {name: getattr(v, name) for name in fields}
    if isinstance(v, complex):
        return {"re": v.real, "im": v.imag}
    if isinstance(v, (set, frozenset)):
        return sorted(v, key=repr)
    return repr(v)
