"""Per-layer tracing of spectile from outside the package.

The tracer wraps public functions of each layer module and records a span
(name, start, end, parent, op) around every call, plus counts derived from
the call's arguments and result.  Modules import names directly
(``from .lattice import weight``), so a function is patched in every
spectile module that holds it, i.e. where the name is looked up.  Recursive
encoders are patched only at their outside call sites.  A target the
program no longer has is reported and its metrics read 0, as do counts
whose arguments or result changed shape.  Spans stay in
memory and are written out when the benchmark ends.

A layer's self time is its span's duration minus the time of its direct
child spans, so the self times of one op's spans add up to the duration of
its root span (`cli.main`).
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass, field
from statistics import median
from typing import Callable

Counter = Callable[[tuple, dict, object], dict]


def _points(_a, _k, r):
    return {"points": len(r.points) if hasattr(r, "points") else len(r.reps)}


def _pairs(a, _k, _r):
    lo, _hi, points, xs = a[:4]
    return {"pairs": len(xs) * len(points)}


def _edges(_a, _k, r):
    return {"edges": sum(len(nb) for nb in r.adjacency) // 2}


# (module, function, span name, counter, patch the defining module too)
TARGETS: list[tuple[str, str, str, Counter | None, bool]] = [
    ("cli", "main", "cli.main", None, True),
    ("jsonio", "domain_from_json", "jsonio.decode", None, True),
    ("jsonio", "pointset_from_json", "jsonio.decode", _points, True),
    ("jsonio", "to_jsonable", "jsonio.encode", None, False),
    ("jsonio", "verdict_to_json", "jsonio.encode", None, True),
    ("jsonio", "pointset_to_json", "jsonio.encode", None, True),
    ("geometry", "multiplicity", "geometry.multiplicity", lambda a, k, r: {"cells": len(r.cells)}, True),
    ("fourier", "zero_set", "fourier.zero_set", None, True),
    ("fourier", "roots_1d", "fourier.roots_1d", None, True),
    ("fourier", "coset_in_zero_set", "fourier.coset", None, True),
    ("fourier", "tail_bound", "fourier.tail_bound", None, True),
    ("lattice", "window", "lattice.window", _points, True),
    ("lattice", "enumerate_dual_in", "lattice.dual_enum", lambda a, k, r: {"points": len(r)}, True),
    ("lattice", "weight", "lattice.weight", lambda a, k, r: {"exact": int(r.exact_zero is not None)}, True),
    ("lattice", "density_estimate", "lattice.density_estimate", None, True),
    ("lattice", "shifted_column_cubes", "lattice.columns", None, True),
    ("exact", "sum_of_roots_of_unity_is_zero", "exact.roots_of_unity",
     lambda a, k, r: {"q": a[1] if len(a) > 1 else k["q"]}, True),
    ("criteria", "check_spectrum_periodic", "criteria.spectrum_periodic", None, True),
    ("criteria", "check_set_tiling", "criteria.set_tiling", None, True),
    ("criteria", "check_tiling_defect", "criteria.defect_scan", None, True),
    ("criteria", "check_packing_defect", "criteria.defect_scan", None, True),
    ("criteria", "check_set_tiling_windowed", "criteria.coverage",
     lambda a, k, r: {"points": int(r.margins.get("points_checked", 0))}, True),
    ("criteria", "check_orthogonality", "criteria.other", None, True),
    ("criteria", "check_opr", "criteria.other", None, True),
    ("criteria", "check_tight_pair", "criteria.other", None, True),
    ("criteria", "check_keller", "criteria.other", None, True),
    ("criteria", "transfer_harness", "criteria.other", None, True),
    ("criteria", "duality_roundtrip", "criteria.other", None, True),
    ("search", "compatibility_graph", "search.graph", _edges, True),
    ("search", "search_spectra", "search.run", lambda a, k, r: {"solutions": len(r)}, True),
    ("search", "search_tilings", "search.run", lambda a, k, r: {"solutions": len(r)}, True),
    ("search", "duality_scan", "search.run", None, True),
    ("kernels", "power_sum_field", "kernels.field", _pairs, True),
]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    op: str
    counts: dict = field(default_factory=dict)


class Tracer:
    """Wraps the layer functions while installed; spans accumulate in `spans`."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = ""
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str, count: Counter | None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1, self.op)
            spans.append(span)
            stack.append(idx)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if count is not None:
                try:
                    span.counts = count(args, kwargs, result)
                except (AttributeError, TypeError, KeyError, IndexError):
                    pass  # the program changed the call's shape: the count reads 0
            return result

        return traced

    def install(self) -> list[str]:
        """Patch every target; returns the targets the program no longer has."""
        modules = {
            name[len("spectile."):]: mod
            for name, mod in sys.modules.items()
            if name.startswith("spectile.") and mod is not None
        }
        missing = []
        for home, attr, name, count, patch_home in TARGETS:
            original = getattr(modules.get(home), attr, None)
            if original is None:
                missing.append(f"{home}.{attr}")
                continue
            wrapper = self._wrap(original, name, count)
            for modname, mod in modules.items():
                if modname == home and not patch_home:
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, value))
                        setattr(mod, key, wrapper)
        return missing

    def uninstall(self):
        for mod, key, value in reversed(self._patches):
            setattr(mod, key, value)
        self._patches.clear()


def self_times(spans: list[Span]) -> list[float]:
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.end - s.start
    return [s.end - s.start - c for s, c in zip(spans, child)]


# name, unit of every per-layer metric, in the order they are printed
LAYER_METRICS = [
    ("cli.self_s", "s"), ("cli.report_bytes", "bytes"),
    ("jsonio.decode_s", "s"), ("jsonio.points_decoded", "count"), ("jsonio.encode_s", "s"),
    ("geometry.multiplicity_s", "s"), ("geometry.cells", "count"),
    ("fourier.zero_set_s", "s"), ("fourier.roots_1d_calls", "count"),
    ("fourier.coset_tests", "count"), ("fourier.coset_s", "s"), ("fourier.tail_bound_s", "s"),
    ("lattice.window_s", "s"), ("lattice.window_points", "count"),
    ("lattice.dual_enum_s", "s"), ("lattice.dual_points", "count"),
    ("lattice.weight_s", "s"), ("lattice.weights", "count"), ("lattice.weights_exact_ratio", "ratio"),
    ("lattice.density_estimate_s", "s"), ("lattice.columns_s", "s"),
    ("exact.roots_of_unity_s", "s"), ("exact.roots_of_unity_calls", "count"), ("exact.max_q", "order"),
    ("criteria.spectrum_periodic_s", "s"), ("criteria.spectrum_periodic_calls", "count"),
    ("criteria.set_tiling_s", "s"), ("criteria.defect_scan_self_s", "s"),
    ("criteria.coverage_s", "s"), ("criteria.coverage_points", "count"), ("criteria.other_s", "s"),
    ("search.graph_s", "s"), ("search.graph_edges", "count"), ("search.self_s", "s"),
    ("search.solutions_per_reverify", "ratio"),
    ("kernels.field_s", "s"), ("kernels.pair_evals", "count"), ("kernels.pair_evals_per_s", "1/s"),
    ("kernels.bytes_computed", "bytes"), ("kernels.scaling_2t", "ratio"),
    ("trace.overhead_s", "s"),
]

# Bytes of one complex128 amplitude, the kernel's per-pair intermediate.
AMPLITUDE_BYTES = 16


def pass_metrics(spans: list[Span], report_bytes: int, overhead_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass over a workload's ops.

    `kernels.scaling_2t` is measured separately and filled in by the caller.
    """
    selfs = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)

    def self_s(*names: str) -> float:
        return sum(selfs[i] for n in names for i in by_name.get(n, ()))

    def calls(name: str) -> int:
        return len(by_name.get(name, ()))

    def total(name: str, key: str) -> int:
        return sum(spans[i].counts.get(key, 0) for i in by_name.get(name, ()))

    reverify = sum(
        1
        for n in ("criteria.spectrum_periodic", "criteria.set_tiling")
        for i in by_name.get(n, ())
        if spans[i].parent >= 0 and spans[spans[i].parent].name == "search.run"
    )
    weights = calls("lattice.weight")
    pairs = total("kernels.field", "pairs")
    field_s = self_s("kernels.field")
    qs = [spans[i].counts.get("q", 0) for i in by_name.get("exact.roots_of_unity", ())]
    return {
        "cli.self_s": self_s("cli.main"),
        "cli.report_bytes": report_bytes,
        "jsonio.decode_s": self_s("jsonio.decode"),
        "jsonio.points_decoded": total("jsonio.decode", "points"),
        "jsonio.encode_s": self_s("jsonio.encode"),
        "geometry.multiplicity_s": self_s("geometry.multiplicity"),
        "geometry.cells": total("geometry.multiplicity", "cells"),
        "fourier.zero_set_s": self_s("fourier.zero_set", "fourier.roots_1d"),
        "fourier.roots_1d_calls": calls("fourier.roots_1d"),
        "fourier.coset_tests": calls("fourier.coset"),
        "fourier.coset_s": self_s("fourier.coset"),
        "fourier.tail_bound_s": self_s("fourier.tail_bound"),
        "lattice.window_s": self_s("lattice.window"),
        "lattice.window_points": total("lattice.window", "points"),
        "lattice.dual_enum_s": self_s("lattice.dual_enum"),
        "lattice.dual_points": total("lattice.dual_enum", "points"),
        "lattice.weight_s": self_s("lattice.weight"),
        "lattice.weights": weights,
        "lattice.weights_exact_ratio": total("lattice.weight", "exact") / weights if weights else 0.0,
        "lattice.density_estimate_s": self_s("lattice.density_estimate"),
        "lattice.columns_s": self_s("lattice.columns"),
        "exact.roots_of_unity_s": self_s("exact.roots_of_unity"),
        "exact.roots_of_unity_calls": len(qs),
        "exact.max_q": max(qs, default=0),
        "criteria.spectrum_periodic_s": self_s("criteria.spectrum_periodic"),
        "criteria.spectrum_periodic_calls": calls("criteria.spectrum_periodic"),
        "criteria.set_tiling_s": self_s("criteria.set_tiling"),
        "criteria.defect_scan_self_s": self_s("criteria.defect_scan"),
        "criteria.coverage_s": self_s("criteria.coverage"),
        "criteria.coverage_points": total("criteria.coverage", "points"),
        "criteria.other_s": self_s("criteria.other"),
        "search.graph_s": self_s("search.graph"),
        "search.graph_edges": total("search.graph", "edges"),
        "search.self_s": self_s("search.run"),
        "search.solutions_per_reverify": total("search.run", "solutions") / reverify if reverify else 0.0,
        "kernels.field_s": field_s,
        "kernels.pair_evals": pairs,
        "kernels.pair_evals_per_s": pairs / field_s if field_s else 0.0,
        "kernels.bytes_computed": pairs * AMPLITUDE_BYTES,
        "trace.overhead_s": overhead_s,
    }


def median_metrics(passes: list[dict[str, float]]) -> dict[str, float]:
    return {k: median(p[k] for p in passes) for k in passes[0]}
