"""JSON encoding/decoding: rationals as "p/q" strings, schema-checked problems.

Every rational travels as a string so round-trips are exact; floats are
reserved for genuinely non-rational data (window point coordinates,
irrational column shifts).  Unknown fields anywhere in a problem file are
rejected rather than ignored.  Shifted columns decode to the periodic set
diag(k, 1)·Z² + {(j, s_j) : 0 ≤ j < k}; their `window` is validated but has
no effect.

Reports are written by `dumps`, one recursive walk that gives the bytes of
`json.dumps(report, indent=2, sort_keys=True)`: verdicts and certificates go
into a report as they are, and `dumps` gives each value that JSON has no
type for (a rational, a complex number, a record) its JSON form.  Point sets
have an explicit shape, `pointset_to_json`, the inverse of
`pointset_from_json`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _string

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


# json's spellings of its constants
_CONSTANTS = {None: "null", True: "true", False: "false"}


def _float(x: float) -> str:
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


def _key(k) -> str:
    # a key that is no string is spelled as json spells the value
    if isinstance(k, str):
        return _string(k)
    if k is None or k is True or k is False:
        return f'"{_CONSTANTS[k]}"'
    if isinstance(k, int):
        return f'"{int.__repr__(k)}"'
    if isinstance(k, float):
        return f'"{_float(k)}"'
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(k).__name__}")


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
    is tested first, by its exact type, since no JSON type is one.
    """
    if type(v) is Fraction:
        out.append('"%s"' % v)  # str(v) is format_rational(v): nothing to escape
    elif isinstance(v, str):
        out.append(_string(v))
    elif v is None or v is True or v is False:
        out.append(_CONSTANTS[v])
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
            _members([(_key(k), x) for k, x in sorted(v.items())], out, nl)
        else:
            out.append("{}")
    elif isinstance(v, complex):
        inner = nl + "  "
        out.append(f'{{{inner}"im": {_float(v.imag)},{inner}"re": {_float(v.real)}{nl}}}')
    elif hasattr(type(v), "__record_fields__"):
        _members([(_string(n), getattr(v, n)) for n in sorted(type(v).__record_fields__)], out, nl)
    elif isinstance(v, (set, frozenset)):
        _write(sorted(v, key=repr), out, nl)
    else:
        out.append(_string(repr(v)))


def dumps(v) -> str:
    """v as `json.dumps(v, indent=2, sort_keys=True)` writes the report encoding.

    JSON values are written as json writes them (strings ASCII-escaped, json's
    spellings of the non-finite floats, keys sorted); a rational is its "p/q"
    string, a record (a verdict, a certificate, a dual weight) the object of
    its fields, a complex number {"re", "im"}, a set its elements sorted by
    repr, and anything else its repr.
    """
    out: list[str] = []
    _write(v, out, "\n")
    return "".join(out)
