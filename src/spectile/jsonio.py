"""JSON encoding/decoding: rationals as "p/q" strings, schema-checked problems.

Every rational travels as a string so round-trips are exact; floats are
reserved for genuinely non-rational data (window point coordinates,
irrational column shifts).  Unknown fields anywhere in a problem file are
rejected rather than ignored, and so is a window list with a point on or
outside its open window.  Shifted columns decode to the periodic set
diag(k, 1)·Z² + {(j, s_j) : 0 ≤ j < k}; their `window` is validated but has
no effect.

Reports are written by `dumps`, one recursive walk that gives the bytes of
`json.dumps(report, indent=2, sort_keys=True)`.  It writes the value types a
report holds: JSON's own (objects with string keys, lists and tuples,
strings, numbers, booleans, null), rationals as "p/q" strings, complex
numbers as {"re", "im"} and records (verdicts, certificates, dual weights)
as the objects of their fields; anything else raises TypeError.  So
verdicts and certificates go into a report as they are, and
`pointset_to_json`, the inverse of `pointset_from_json`, hands over a point
set's exact coordinates and floats as they are.
"""

from __future__ import annotations

import math
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _string

from .errors import DimensionMismatch, SchemaError, SpectileError
from .exact import as_fraction, to_float
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
    try:
        return as_fraction(v)
    except (TypeError, ValueError, ZeroDivisionError):
        raise SchemaError(f"{where}: cannot parse rational {v!r}") from None


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


def _rounded(x: Fraction) -> float:
    """x rounded monotonically: to_float(x), or ±inf beyond the float range."""
    try:
        return to_float(x)
    except SpectileError:
        return math.inf if x > 0 else -math.inf


def _require_inside(points, w: Box, where: str) -> None:
    """SchemaError unless every point lies strictly inside the open window w.

    Rounding is monotone, so a float coordinate strictly between the rounded
    bounds is strictly between the bounds; an exact coordinate, or a float
    that is not, is compared exactly.
    """
    bounds = [(_rounded(lo), _rounded(hi), lo, hi) for lo, hi in zip(w.lo, w.hi)]
    for i, p in enumerate(points):
        for x, (lo_f, hi_f, lo, hi) in zip(p, bounds):
            if not (type(x) is float and lo_f < x < hi_f) and not lo < x < hi:
                raise SchemaError(f"{where}[{i}]: the point lies on or outside its open window")


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
        _require_inside(pts, w, f"{where}.points")
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


def pointset_to_json(ps) -> dict:
    """The point set's report shape, exact values and floats as they are."""
    if isinstance(ps, PeriodicSet):
        return {"type": "periodic", "basis": ps.lattice.basis, "reps": ps.reps}
    return {"type": "window", "points": ps.points, "window": {"lo": ps.window.lo, "hi": ps.window.hi}}


def _float(x: float) -> str:
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


def _members(pairs, out: list[str], nl: str) -> None:
    # an object from its (key text, value) pairs, in order
    inner = nl + "  "
    sep = "{" + inner
    for k, x in pairs:
        out.append(sep + k + ": ")
        _write(x, out, inner)
        sep = "," + inner
    out.append(nl + "}")


def _write(v, out: list[str], nl: str) -> None:
    """Append v's text to out; nl is a newline and the indent of v's line.

    JSON's own types are tested in json's order (so a str or int subclass is
    written as its base); a rational, the most common value of a report,
    is tested first, by its exact type, since no JSON type is one.  A key
    that is no str raises TypeError in `_string`.
    """
    if type(v) is Fraction:
        out.append('"%s"' % v)  # "p/q", or "p" when q = 1: nothing to escape
    elif isinstance(v, str):
        out.append(_string(v))
    elif v is None or v is True or v is False:
        out.append("null" if v is None else "true" if v else "false")
    elif isinstance(v, int):
        out.append(int.__repr__(v))
    elif isinstance(v, float):
        out.append(_float(v))
    elif isinstance(v, (list, tuple)):
        if not v:
            out.append("[]")
            return
        inner = nl + "  "
        sep = "[" + inner
        for x in v:
            out.append(sep)
            _write(x, out, inner)
            sep = "," + inner
        out.append(nl + "]")
    elif isinstance(v, dict):
        if v:
            _members([(_string(k), x) for k, x in sorted(v.items())], out, nl)
        else:
            out.append("{}")
    elif isinstance(v, complex):
        inner = nl + "  "
        out.append(f'{{{inner}"im": {_float(v.imag)},{inner}"re": {_float(v.real)}{nl}}}')
    elif hasattr(type(v), "__record_fields__"):
        _members([(_string(n), getattr(v, n)) for n in sorted(type(v).__record_fields__)], out, nl)
    else:
        raise TypeError(f"a report holds no {type(v).__name__}")


def dumps(v) -> str:
    """v as `json.dumps(v, indent=2, sort_keys=True)` writes the report encoding.

    JSON values are written as json writes them (strings ASCII-escaped, json's
    spellings of the non-finite floats, keys sorted); a rational is its "p/q"
    string, a record (a verdict, a certificate, a dual weight) the object of
    its fields and a complex number {"re", "im"}.  A key that is no string,
    or a value of any other type, raises TypeError.
    """
    out: list[str] = []
    _write(v, out, "\n")
    return "".join(out)
