"""The benchmark's own tests: quick passes, ground-truth checks, contract output.

    python3 -m pytest perfbench/test_perfbench.py -q

Run from the root of a spectile checkout.  Each quick pass runs every op of a
workload once.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import oracle
import run
import workloads

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(tmp_cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), *args],
        cwd=tmp_cwd, capture_output=True, text=True, timeout=170,
    )


def test_oracle_matches_known_solution_counts():
    cube3 = oracle.cube_block_tilings(3, 4)
    cube2 = oracle.cube_block_tilings(2, 8)
    # solutions containing the origin, as the search anchors them
    assert sum((0, 0, 0) in s for s in cube3) == 93
    assert sum((0, 0) in s for s in cube2) == 15
    assert oracle.canonical([(1,), (3,)], 4) == oracle.canonical([(0,), (2,)], 4)


def test_wrong_expected_answer_is_counted_in_fail_ratio(tmp_path):
    ops = workloads.build("corpus", ROOT, tmp_path, seed=0)
    target = next(i for i, op in enumerate(ops) if op.name == "verify_spectrum_cube1_z")
    ops[target] = replace(ops[target], truth=workloads.false_instance())
    result = run.untraced_run(ops, ROOT, tmp_path, 0, True, random.Random(0))
    assert result["attempted"] == len(ops)
    assert result["failed"] == 1
    assert result["workload_metrics"]["fail_ratio"]["value"] == 1 / len(ops)
    assert result["failures"][0][0] == "verify_spectrum_cube1_z"


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_quick_pass_prints_every_end_to_end_metric(workload):
    proc = bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1", "--quick")
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True
    assert set(last["metrics"]) == {m["name"] for m in BENCH["end_to_end"]}
    assert all(v["value"] > 0 for v in last["metrics"].values())
    # the gappy-window probe gets a false `holds` from the windowed route
    assert last["failed"] == (1 if workload == "field" else 0)


def test_quick_traced_run_prints_every_per_layer_metric():
    proc = bench(ROOT, "--workload", "corpus", "--seed", "3", "--seconds", "1", "--quick", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.splitlines()[-1])
    assert set(last["metrics"]) == {m["name"] for m in BENCH["per_layer"]}
    report = json.loads("".join(proc.stdout.splitlines()[:-1]))
    assert report["trace"]["ops_accounted_within_overhead"] == "30/30"


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    proc = bench(tmp_path, "--workload", "corpus", "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0
    assert proc.stdout == ""
