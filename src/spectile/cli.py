"""Batch front end: verify / search / scan over JSON problem files.

Exit codes encode the mathematical outcome so shell pipelines can branch:
0 = Holds, 1 = Fails, 2 = Inconclusive, 3 = input or usage error.
Reports are JSON on stdout (or --out); scans emit CSV.  Timings are
opt-in (--timings) so default reports are byte-identical across runs.

Every command (a verify check, a search, a scan profile) is one entry of
`_COMMANDS`: the problem fields it decodes and the call that runs it; the
parser takes its choices from there.  A report holds its verdicts and
certificates as they are; `jsonio.dumps` writes them, with the bytes
`json.dumps` would give with indent 2 and sorted keys.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from fractions import Fraction
from itertools import islice, product

from . import __version__
from .criteria import (
    DEFAULT_GRID,
    Status,
    TileSpec,
    check_keller,
    check_opr,
    check_orthogonality,
    check_set_tiling,
    check_set_tiling_windowed,
    check_spectrum_periodic,
    check_tight_pair,
    check_tiling_defect,
    duality_roundtrip,
    transfer_harness,
    _field,
)
from .errors import DimensionMismatch, SchemaError, SpectileError, spend
from .fourier import power_spectrum
from .jsonio import (
    _require_keys,
    decode_rational,
    domain_from_json,
    dumps,
    pointset_from_json,
    pointset_to_json,
)
from .lattice import PeriodicSet, diagonal_lattice
from .search import SearchProblem, duality_scan, search_spectra, search_tilings

_EXIT_BY_STATUS = {Status.HOLDS: 0, Status.FAILS: 1, Status.INCONCLUSIVE: 2}
# rows of scan CSV formatted and written at a time
_ROWS_PER_BLOCK = 4096

class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage errors; 2 means Inconclusive here,
    # so usage problems are remapped to the input-error exit code 3.
    def error(self, message):
        raise SchemaError(message)


def _load_problem(path: str, required: tuple[str, ...]) -> dict:
    """The problem file at path, with the fields a command decodes.

    A file may carry the fields that other checks of its kind need (a domain
    problem: domain, point set, packing region; a transfer: f, g, point set),
    but any other field is rejected.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except FileNotFoundError:
        raise SchemaError(f"no such file: {path}") from None
    except OSError as exc:
        raise SchemaError(f"{path}: cannot read ({exc.strerror or exc})") from None
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: not UTF-8 text ({exc})") from None
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: invalid JSON ({exc})") from None
    except RecursionError:
        raise SchemaError(f"{path}: JSON nested too deeply to decode") from None
    kind = {"f", "g", "pointset"} if "f" in required else {"domain", "pointset", "packing_region"}
    _require_keys(obj, path, {*required, "version"}, (kind - set(required)) | {"parameters"})
    if obj["version"] != 1:
        raise SchemaError(f"{path}: unsupported version {obj['version']!r}")
    params = obj.get("parameters", {})
    _require_keys(params, f"{path}.parameters", set(), set(_PARAM_CHECKS))
    return obj


def _tile_spec_from_json(obj, where: str) -> TileSpec:
    _require_keys(obj, where, {"kind", "domain"})
    if obj["kind"] not in ("indicator", "power_spectrum"):
        raise SchemaError(f"{where}: unknown tile kind {obj['kind']!r}")
    return TileSpec(obj["kind"], domain_from_json(obj["domain"], f"{where}.domain"))


def _decode(problem: dict, *names: str) -> list:
    """Decode the named fields; domains, point set and tiles must share one dimension."""
    decoders = {"pointset": pointset_from_json, "f": _tile_spec_from_json, "g": _tile_spec_from_json}
    objs = [decoders.get(name, domain_from_json)(problem[name], name) for name in names]
    dims = [getattr(obj, "domain", obj).dim for obj in objs]  # a tile has its domain's
    if len(set(dims)) > 1:
        raise DimensionMismatch(", ".join(f"{n} has dimension {d}" for n, d in zip(names, dims)))
    return objs


def _count(name: str):
    def check(v) -> int:
        if isinstance(v, bool) or not isinstance(v, int) or v < 1:
            raise SchemaError(f"{name} must be an integer >= 1, got {v!r}")
        return v

    return check


def _radius(v) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v) or v <= 0:
        raise SchemaError(f"radius must be a finite number > 0, got {v!r}")
    return v


def _positive_rational(v, where: str) -> Fraction:
    q = decode_rational(v, where)
    if q <= 0:
        raise SchemaError(f"{where} must be positive, got {v!r}")
    return q


def _period(v) -> list[Fraction]:
    if isinstance(v, str):
        v = [p for p in v.split(",") if p]
    if not isinstance(v, list) or not v:
        raise SchemaError(f"period must be a non-empty list of positive rationals, got {v!r}")
    return [_positive_rational(p, "period") for p in v]


_PARAM_CHECKS = {
    "grid": _count("grid"),
    "radius": _radius,
    "period": _period,
    "grid_step": lambda v: _positive_rational(v, "grid_step"),
}


def _parameters(args, problem: dict) -> dict:
    """Each parameter from its flag, else from the file; None when absent
    (the grid then has its default).

    Every value is checked here, once: a bad one is an input error (exit 3).
    """
    params = problem.get("parameters", {})
    out = {}
    for name, check in _PARAM_CHECKS.items():
        flag = getattr(args, name, None)
        value = flag if flag is not None else params.get(name)
        out[name] = None if value is None else check(value)
    out["grid"] = out["grid"] or DEFAULT_GRID
    return out


def _problem(args, fields: tuple[str, ...]) -> list:
    """The decoded fields of the problem file, with its parameters resolved
    into args; the parsed document is released on return."""
    problem = _load_problem(args.file, fields)
    objs = _decode(problem, *fields)
    vars(args).update(_parameters(args, problem))
    return objs


def _verdict(verdict, **extras) -> tuple[dict, int]:
    return {"verdicts": [verdict], **extras}, _EXIT_BY_STATUS[verdict.status]


def _spectrum(args, dom, ps):
    if isinstance(ps, PeriodicSet):
        verdict, cert = check_spectrum_periodic(dom, ps)
        return _verdict(verdict, certificate=cert)
    return _verdict(check_tiling_defect(dom, ps, args.grid))


def _tiling(args, dom, ps):
    if isinstance(ps, PeriodicSet):
        return _verdict(check_set_tiling(dom, ps))
    return _verdict(check_set_tiling_windowed(dom, ps, args.grid))


def _search_problem(args, dom) -> SearchProblem:
    period, step = args.period, args.grid_step
    if period is None or step is None:
        raise SchemaError("search needs a period and a grid step (file or flags)")
    if len(period) not in (1, dom.dim):
        raise SchemaError(f"period needs 1 or {dom.dim} entries, got {len(period)}")
    try:
        lattice = diagonal_lattice(period * dom.dim if len(period) == 1 else period)
        return SearchProblem(dom, lattice, step, normalize=not args.no_normalize)
    except ValueError as exc:
        raise SchemaError(str(exc)) from None


def _solutions(solutions, certified: bool) -> tuple[dict, int]:
    """A search report's fields: each solution with the verdict that verified
    it in the search, and for spectra its certificate."""
    return {
        "verdicts": [],
        "count": len(solutions),
        "solutions": [pointset_to_json(s) for s in solutions],
        "certificates": [
            {"verdict": s.verdict, "certificate": s.certificate} if certified else {"verdict": s.verdict}
            for s in solutions
        ],
    }, 0


def _parse_range(spec: str) -> list[float]:
    try:
        a, b, n = spec.split(":")
        a, b, n = float(a), float(b), int(n)
    except ValueError:
        raise SchemaError(f"--range must look like start:stop:count, got {spec!r}") from None
    if n < 2:
        raise SchemaError("--range needs at least 2 samples")
    spend("grid_points", n)
    samples = [a + (b - a) * i / (n - 1) for i in range(n)]
    if not all(map(math.isfinite, samples)):  # an infinite end, or b − a overflows
        raise SchemaError(f"--range samples must be finite, got {spec!r}")
    return samples


def _csv(rows):
    """The CSV text of the row strings, in blocks of _ROWS_PER_BLOCK rows."""
    rows = iter(rows)
    while block := list(islice(rows, _ROWS_PER_BLOCK)):
        yield "\n".join(block) + "\n"


def _power(args, dom):
    if args.range_spec is None:
        raise SchemaError("power profile needs --range start:stop:count")
    if not (0 <= args.axis < dom.dim):
        raise SchemaError(f"--axis must be in [0, {dom.dim})")

    def on_axis(t: float) -> list[float]:
        xi = [0.0] * dom.dim
        xi[args.axis] = t
        return xi

    samples = _parse_range(args.range_spec)
    values = [power_spectrum(dom, on_axis(t)) for t in samples]  # a refusal comes before any row
    row = ",".join(["%.17g"] * (dom.dim + 1))
    return _csv(row % (*on_axis(t), v) for t, v in zip(samples, values)), 0


def _defect(args, dom, ps):
    axes, vals = _field(dom, ps, args.grid)  # plot data, not a verdict; computed before any row
    row = ",".join(["%.17g"] * (dom.dim + 1))
    return _csv(row % (*x, v - 1.0) for x, v in zip(product(*axes), vals)), 0


# command -> name -> (the fields it decodes, in argument order; the call that
# runs it on the parsed arguments, their parameters resolved, and the decoded
# fields, giving the report's fields, or a scan's CSV text in blocks, and the
# exit code).
# Each call looks its check up in this module when it runs, so a check that a
# test or a tracer replaces on the module is the one that runs.
_COMMANDS = {
    "verify": {
        "spectrum": (("domain", "pointset"), _spectrum),
        "tiling": (("domain", "pointset"), _tiling),
        "orthogonality": (("domain", "pointset"), lambda args, *o: _verdict(check_orthogonality(*o))),
        "opr": (("domain", "packing_region"), lambda args, *o: _verdict(check_opr(*o))),
        "tight-pair": (("domain", "packing_region"), lambda args, *o: _verdict(check_tight_pair(*o))),
        "keller": (("domain", "pointset", "packing_region"), lambda args, *o: _verdict(check_keller(*o))),
        "transfer": (("f", "g", "pointset"), lambda args, *o: _verdict(transfer_harness(*o))),
        "duality": (
            ("domain", "packing_region", "pointset"),
            lambda args, *o: _verdict(duality_roundtrip(*o)),
        ),
    },
    "search": {
        "spectra": (
            ("domain",),
            lambda args, dom: _solutions(search_spectra(_search_problem(args, dom)), certified=True),
        ),
        "tilings": (
            ("domain",),
            lambda args, dom: _solutions(search_tilings(_search_problem(args, dom)), certified=False),
        ),
        "duality-scan": (
            ("domain", "packing_region"),
            lambda args, dom, region: _verdict(duality_scan(dom, region, _search_problem(args, dom))),
        ),
    },
    "scan": {
        "power": (("domain",), _power),
        "defect": (("domain", "pointset"), _defect),
    },
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="spectile",
        description="Verify and search spectra, tilings, and orthogonal packing "
        "regions of box-union domains.",
    )
    parser.add_argument("--version", action="version", version=f"spectile {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument(
            "--radius",
            type=float,
            default=None,
            help="has no effect (still validated): periodic sets are summed exactly "
            "and point lists carry their own window",
        )
        p.add_argument("--grid", type=int, default=None, help="grid points per axis")
        p.add_argument(
            "--threads",
            type=int,
            default=os.cpu_count() or 1,
            help="has no effect (still validated, at least 1): the kernel's matrix products run in BLAS",
        )
        p.add_argument("--out", default=None, help="write the report here instead of stdout")
        p.add_argument("--timings", action="store_true", help="include wall-clock timings in the report")

    v = sub.add_parser("verify", help="run one criterion on a problem file")
    v.add_argument("name", choices=list(_COMMANDS["verify"]))
    v.add_argument("file")
    common(v)

    s = sub.add_parser("search", help="enumerate all spectra/tilings on a rational grid")
    s.add_argument("name", choices=list(_COMMANDS["search"]))
    s.add_argument("file")
    s.add_argument("--period", default=None, help="comma-separated rational period entries")
    s.add_argument("--grid-step", dest="grid_step", default=None, help="rational grid step")
    s.add_argument("--no-normalize", action="store_true", help="do not anchor 0 in rep sets")
    common(s)

    c = sub.add_parser("scan", help="emit CSV profiles (power spectrum or tiling defect)")
    c.add_argument("file")
    c.add_argument("--profile", dest="name", choices=list(_COMMANDS["scan"]), required=True)
    c.add_argument("--axis", type=int, default=0)
    c.add_argument("--range", dest="range_spec", default=None, help="start:stop:count")
    common(c)
    return parser


def _emit(blocks, out_path: str | None):
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.writelines(blocks)
        except OSError as exc:
            raise SchemaError(f"--out {out_path}: cannot write ({exc.strerror or exc})") from None
    else:
        sys.stdout.writelines(blocks)


def _merge_value_flags(argv: list[str]) -> list[str]:
    # argparse would read "--range -3:3:601" as a missing argument; fold the
    # value into the flag so negative range starts parse fine.
    out = []
    i = 0
    while i < len(argv):
        if argv[i] == "--range" and i + 1 < len(argv):
            out.append(f"--range={argv[i + 1]}")
            i += 2
        else:
            out.append(argv[i])
            i += 1
    return out


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_merge_value_flags(list(argv)))
    except SchemaError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 3

    t0 = time.perf_counter()
    try:
        _count("threads")(args.threads)
        fields, run = _COMMANDS[args.command][args.name]
        out, code = run(args, *_problem(args, fields))
        if isinstance(out, dict):  # a report's fields; a scan gives its CSV text in blocks
            report = {"command": f"{args.command} {args.name}", "tool_version": __version__, **out}
            if args.timings:
                report["timings_ms"] = {"total": (time.perf_counter() - t0) * 1000.0}
            out = [dumps(report) + "\n"]
        _emit(out, args.out)
    except SpectileError as exc:
        diagnostic = {"error": type(exc).__name__, "message": str(exc)}
        print(dumps(diagnostic), file=sys.stderr)
        return 3
    return code


if __name__ == "__main__":
    sys.exit(main())
