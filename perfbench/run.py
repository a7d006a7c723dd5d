"""spectile benchmark: whole CLI runs per workload, or a traced per-layer run.

    python3 perfbench/run.py --workload corpus|exact|field --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it uses the package under `src/` and the
shipped `fixtures/`, and writes only under `perfbench/out/`.

`--trace 0` drives the workload's ops as a closed loop with one client: each
op is one `spectile` invocation in a fresh interpreter, with `--threads 1`,
and the next starts when the previous one has exited.  Passes over the ops
repeat, round-robin in a seeded order, until `--seconds` have gone.  The
last stdout line carries the end-to-end metrics.

`--trace 1` drives the same ops in-process, alternating an untraced pass and
a traced pass, and reports per-layer metrics from the spans (see tracing.py).

Every execution of every op is checked against its known answer
(workloads.py); `failed` counts the executions that gave a wrong answer or
broke the exit-code contract.  `--quick` makes one pass only, for the
benchmark's own tests.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import random
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from statistics import median

import tracing
import workloads

SETUP_SAMPLES_PER_PASS = 3
# Child processes are killed once the run has lasted this long, so a hung op
# fails the run's checks instead of outliving the run.
RUN_LIMIT_S = 165.0
CALIBRATION_N = 2_000_000


class Budget:
    """Passes repeat while another one of the mean length would end nearer to
    `seconds` than stopping now does, so a run lasts `seconds` to within half
    a pass."""

    def __init__(self, seconds: float):
        self.seconds = seconds
        self.start = time.perf_counter()
        self.passes = 0

    def left(self) -> float:
        return RUN_LIMIT_S - (time.perf_counter() - self.start)

    def another_pass(self) -> bool:
        self.passes += 1
        elapsed = time.perf_counter() - self.start
        return elapsed + elapsed / self.passes / 2 <= self.seconds


@dataclass
class Sample:
    op: str
    wall_s: float
    rss_mb: float
    failure: str | None


def quantile(values, p: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * p
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def summary(values, unit: str) -> dict:
    """Median, the highest percentile with at least ten samples beyond it, and n."""
    n = len(values)
    out = {"value": median(values), "unit": unit, "n": n}
    for p in (0.99, 0.95, 0.9, 0.75):
        if n * (1 - p) >= 10:
            out[f"p{round(p * 100)}"] = quantile(values, p)
            break
    return out


def calibration_spin() -> float:
    """A fixed pure-Python loop, timed as a host-speed drift diagnostic only."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_N):
        acc += i * i % 7
    return time.perf_counter() - t0


def machine() -> dict:
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    import numpy

    from spectile.kernels import backend_name

    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel_backend": backend_name(),
    }


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(argv: list[str], env: dict, out_path: Path, timeout: float) -> tuple[int, float, float, str, str]:
    """Run one process to completion: (exit code, wall s, peak RSS MB, stdout, stderr)."""
    err_path = out_path.with_suffix(".err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    text = out_path.read_text(errors="replace")
    err_text = err_path.read_text(errors="replace")
    if code == -9:
        err_text += f"\nkilled after {timeout:.0f} s"
    return code, wall, usage.ru_maxrss / 1024.0, text, err_text


def untraced_run(ops, root: Path, tmp: Path, seconds: float, quick: bool, rng) -> dict:
    env = child_env(root)
    spectile = [sys.executable, "-m", "spectile.cli"]
    setup_argv = [sys.executable, "-c", "import spectile.cli"]
    clock = Budget(seconds)
    spawn(setup_argv, env, tmp / "warmup.out", clock.left())  # byte-compiles src/, untimed
    setups, samples, passes, spins = [], [], [], []
    # set-up samples are spread over each pass, not taken back to back
    setup_at = {len(ops) * i // SETUP_SAMPLES_PER_PASS for i in range(SETUP_SAMPLES_PER_PASS)}
    while True:
        spins.append(calibration_spin())
        pass_wall = 0.0
        for i, op in enumerate(rng.sample(ops, len(ops))):
            if clock.left() <= 0:
                break
            if i in setup_at:
                setups.append(spawn(setup_argv, env, tmp / "setup.out", clock.left())[1])
            code, wall, rss, out, err = spawn(
                spectile + list(op.argv) + ["--threads", "1"], env, tmp / "op.out", clock.left()
            )
            samples.append(Sample(op.name, wall, rss, workloads.check(op, code, out, err)))
            pass_wall += wall
        passes.append(pass_wall)
        if quick or not clock.another_pass():
            break
    metrics = {
        "setup_s": summary(setups, "s"),
        "wall_s": summary(passes, "s"),
        "peak_rss_mb": {"value": max(s.rss_mb for s in samples), "unit": "MB", "n": len(samples)},
    }
    per_op = {
        op.name: summary([s.wall_s for s in samples if s.op == op.name], "s") for op in ops
    }
    if len(ops) > 10:
        # many cheap ops: the per-call latency distribution is the metric
        op_walls = [s.wall_s for s in samples]
        named = {"call_p50_s": summary(op_walls, "s"),
                 "call_p90_s": {"value": quantile(op_walls, 0.9), "unit": "s", "n": len(op_walls)}}
    else:
        named = {f"{name}_s": v for name, v in per_op.items()}
    failed = [s for s in samples if s.failure]
    return {
        "metrics": metrics,
        "workload_metrics": {
            **named,
            "fail_ratio": {"value": len(failed) / len(samples), "unit": "ratio", "n": len(samples)},
        },
        "ops": {
            name: {**v, "peak_rss_mb": max(s.rss_mb for s in samples if s.op == name)}
            for name, v in per_op.items()
        },
        "failures": sorted({(s.op, s.failure) for s in failed}),
        "calibration_s": summary(spins, "s"),
        "attempted": len(samples),
        "failed": len(failed),
    }


def import_spectile(root: Path):
    if str(root / "src") not in sys.path:
        sys.path.insert(0, str(root / "src"))
    import spectile.cli
    import spectile.exact

    if not Path(spectile.cli.__file__).resolve().is_relative_to((root / "src").resolve()):
        raise SystemExit(f"spectile imported from {spectile.cli.__file__}, not from {root / 'src'}")
    return spectile


def run_inprocess(spectile, op, threads: int = 1) -> tuple[int, float, str, str]:
    """One op through `spectile.cli.main` in this process, with cold caches."""
    spectile.exact.cyclotomic.cache_clear()
    out, err = io.StringIO(), io.StringIO()
    argv = list(op.argv) + ["--threads", str(threads)]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = spectile.cli.main(argv)
        except Exception:  # what a CLI user would see as a traceback
            code = 1
            err.write(traceback.format_exc())
        wall = time.perf_counter() - t0
    return code, wall, out.getvalue(), err.getvalue()


def traced_run(ops, root: Path, seconds: float, quick: bool, rng, spans_path: Path) -> dict:
    spectile = import_spectile(root)
    attempted, failures, per_pass, dumps = 0, [], [], []
    within, accounted, max_gap = 0, 0, 0.0
    clock = Budget(seconds)
    while True:
        order = rng.sample(ops, len(ops))
        untraced = {}
        for op in order:
            code, wall, out, err = run_inprocess(spectile, op)
            untraced[op.name] = wall
            attempted += 1
            if problem := workloads.check(op, code, out, err):
                failures.append((op.name, problem))
        tracer = tracing.Tracer()
        report_bytes, overhead, gaps = 0, 0.0, []
        missing = tracer.install()
        try:
            for op in order:
                tracer.op = op.name
                first = len(tracer.spans)
                code, wall, out, err = run_inprocess(spectile, op)
                roots = sum(s.end - s.start for s in tracer.spans[first:] if s.parent == -1)
                gaps.append(wall - roots)
                report_bytes += len(out.encode())
                overhead += wall - untraced[op.name]
                attempted += 1
                if problem := workloads.check(op, code, out, err):
                    failures.append((op.name, problem))
        finally:
            tracer.uninstall()
        per_pass.append(tracing.pass_metrics(tracer.spans, report_bytes, overhead))
        # the self times of an op's spans sum to its root span; what the spans
        # miss of the op's wall must stay within the pass's tracing overhead
        within += sum(abs(g) <= abs(overhead) for g in gaps)
        accounted += len(gaps)
        max_gap = max([max_gap, *map(abs, gaps)])
        dumps.append([[s.name, s.start, s.end, s.parent, s.op, s.counts] for s in tracer.spans])
        if quick or not clock.another_pass():
            break
    layer = tracing.median_metrics(per_pass)
    scan = workloads.scan_cube2(root / "fixtures")
    one = run_inprocess(spectile, scan, threads=1)
    two = run_inprocess(spectile, scan, threads=2)
    for code, _, out, err in (one, two):
        attempted += 1
        if problem := workloads.check(scan, code, out, err):
            failures.append((scan.name, problem))
    layer["kernels.scaling_2t"] = one[1] / two[1]
    spans_path.write_text(json.dumps(dumps))
    return {
        "layer_metrics": {name: {"value": layer[name], "unit": unit} for name, unit in tracing.LAYER_METRICS},
        "trace": {
            "passes": len(per_pass),
            "spans": sum(len(d) for d in dumps),
            "spans_file": str(spans_path.relative_to(root)),
            "max_unaccounted_s": max_gap,
            "ops_accounted_within_overhead": f"{within}/{accounted}",
            "missing_targets": missing,
            "kernel_bytes_note": "computed from array shapes: one complex128 amplitude per (grid point, translate) pair",
        },
        "failures": sorted(set(failures)),
        "attempted": attempted,
        "failed": len(failures),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="one pass over the ops")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "spectile" / "cli.py").is_file() or not (root / "fixtures").is_dir():
        print("run from the root of a spectile checkout (src/spectile and fixtures/ missing)",
              file=sys.stderr)
        return 2
    out_dir = root / "perfbench" / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(args.seed)
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp_name:
        tmp = Path(tmp_name)
        ops = workloads.build(args.workload, root, tmp, args.seed)
        if args.trace:
            spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.json"
            result = traced_run(ops, root, args.seconds, args.quick, rng, spans_path)
            metrics = result["layer_metrics"]
        else:
            result = untraced_run(ops, root, tmp, args.seconds, args.quick, rng)
            metrics = result["metrics"]
    import_spectile(root)
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "machine": machine(), **result}
    print(json.dumps(report, indent=1, default=str))
    # Wrong answers are counted in `failed`; `correct` says every execution's
    # output could be judged against its truth.
    unreadable = [f for _, f in result["failures"] if isinstance(f, workloads.Unreadable)]
    print(json.dumps({
        "correct": not unreadable,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
