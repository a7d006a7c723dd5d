"""Compare the CLI reports of two checkouts on the canonical fixture commands.

    python3 tests/compare_reports.py BASE HEAD

BASE and HEAD are the roots of two checkouts of this repository.  Each
command runs once per checkout, as `python -m spectile.cli` with that
checkout's `src/` first on the path, from HEAD's root on HEAD's fixtures, so
the two runs read the same files under the same relative paths.  Each
checkout's root path is replaced by one placeholder in its output, so two
checkouts that fail alike compare equal even when a traceback names their
files.  The script prints every command whose stdout, stderr or exit code
differs, and every command on which HEAD breaks the exit-code contract
(an exit code outside 0–3, or a traceback on stderr) whatever BASE did, and
exits 1 if there is either, 0 otherwise.

The commands are every fixture under each verify check whose fields it
holds, every fixture that names a search period under the searches its
fields allow, every fixture with a domain and a periodic point set (a lattice
or shifted columns) under `scan --profile defect --grid 7` (a field that is its constant term, and one with kernel
terms), the cube searches of the benchmark (the cube3 one also with the
period 2,1,4), the benchmark corpus's scans, and `verify spectrum`, `verify
tiling` and `scan --profile defect --grid 16` on two window lists in d = 2
drawn at run time from a fixed seed, long enough that the kernel splits
their translates into several column chunks, one on the unit square and one
on a two-box domain, whose pair terms run.  Beside the window lists, `verify
opr` runs on problem files written at run time as well: on the four-interval
union (0, 3/5) ∪ (1, 6/5) ∪ (7/5, 8/5) ∪ (2, 13/5), whose transform has
irrational zeros, against (0, 1/8) (holds), (0, 2/5) (fails at the zero
0.3026813158904038) and (0, 75670329/250000000) (inconclusive: two zero
families straddle the ends of D − D), and on (−1/2, 1/7919) ∪ (1/7919, 1/2)
as its own packing region, whose zero-set polynomial has degree 15 838.
pytest does not collect this file: it runs the program, it is not a test
of it.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

# the fields each verify check decodes
VERIFY_FIELDS = {
    "spectrum": {"domain", "pointset"},
    "tiling": {"domain", "pointset"},
    "orthogonality": {"domain", "pointset"},
    "opr": {"domain", "packing_region"},
    "tight-pair": {"domain", "packing_region"},
    "keller": {"domain", "pointset", "packing_region"},
    "transfer": {"f", "g", "pointset"},
    "duality": {"domain", "packing_region", "pointset"},
}

EXTRA = [
    ("search", "spectra", "fixtures/cube3_z3.json", "--period", "2,1,4", "--grid-step", "1/2"),
    ("search", "spectra", "fixtures/cube3_z3.json", "--period", "2", "--grid-step", "1/2"),
    ("search", "tilings", "fixtures/cube2_z2.json", "--period", "4", "--grid-step", "1/2"),
    ("scan", "fixtures/cube1_z.json", "--profile", "power", "--axis", "0", "--range", "-3:3:601"),
    ("scan", "fixtures/cube1_z_window.json", "--profile", "defect", "--grid", "64", "--radius", "1000"),
    ("scan", "fixtures/cube2_z2.json", "--profile", "defect", "--grid", "32"),
]


def commands(root: Path) -> list[tuple[str, ...]]:
    out = []
    for path in sorted((root / "fixtures").rglob("*.json")):
        name = path.relative_to(root).as_posix()
        obj = json.loads(path.read_text())
        for check, fields in VERIFY_FIELDS.items():
            if fields <= obj.keys():
                out.append(("verify", check, name))
        if "period" in obj.get("parameters", {}):
            modes = ["spectra", "tilings"] + (["duality-scan"] if "packing_region" in obj else [])
            out.extend(("search", mode, name) for mode in modes)
        if {"domain", "pointset"} <= obj.keys() and obj["pointset"]["type"] != "window":
            out.append(("scan", name, "--profile", "defect", "--grid", "7"))
    return out + EXTRA


# The 6 320 shifted-column translates take four chunks at the verify grid of
# 64 (2 048 translates a chunk); the 9 000 staircase translates take five, and
# two at the scan grid of 16 (8 192 a chunk)
WINDOW_SEED = 27
WINDOW = {"lo": ["-40", "-40"], "hi": ["40", "40"]}
SQUARE = [{"lo": ["0", "0"], "hi": ["1", "1"]}]
STAIRCASE = [{"lo": ["0", "0"], "hi": ["1", "1/2"]}, {"lo": ["1/2", "1/2"], "hi": ["3/2", "1"]}]


def window_commands(tmp: Path) -> list[tuple[str, ...]]:
    """Two window-list problems, written under tmp, and their commands.

    The unit square on integer columns, each shifted by a random offset, tiles,
    so the coverage check reads the count at every grid point; the two-box
    staircase on 9 000 random points runs the pair terms of the field.
    """
    rng = random.Random(WINDOW_SEED)
    columns = []
    for n in range(-39, 40):
        s = round(rng.random(), 6)
        columns += [[float(n), m + s] for m in range(-40, 40) if m + s < 40]
    scattered = [[round(rng.uniform(-40, 40), 6) for _ in range(2)] for _ in range(9000)]
    out = []
    for name, boxes, points in (("columns.json", SQUARE, columns), ("staircase.json", STAIRCASE, scattered)):
        path = str(tmp / name)
        pointset = {"type": "window", "points": points, "window": WINDOW}
        Path(path).write_text(json.dumps({"version": 1, "domain": {"boxes": boxes}, "pointset": pointset}))
        out += [("verify", "spectrum", path), ("verify", "tiling", path)]
        out.append(("scan", path, "--profile", "defect", "--grid", "16"))
    return out


IRRATIONAL_UNION = [("0", "3/5"), ("1", "6/5"), ("7/5", "8/5"), ("2", "13/5")]
CUT_DOMAIN = [("-1/2", "1/7919"), ("1/7919", "1/2")]


def opr_commands(tmp: Path) -> list[tuple[str, ...]]:
    """`verify opr` on the irrational union against three regions, and on the cut domain."""
    def boxes(ends):
        return {"boxes": [{"lo": [lo], "hi": [hi]} for lo, hi in ends]}

    regions = [[("0", hi)] for hi in ("1/8", "2/5", "75670329/250000000")]
    problems = [(IRRATIONAL_UNION, region) for region in regions] + [(CUT_DOMAIN, CUT_DOMAIN)]
    out = []
    for i, (domain, region) in enumerate(problems):
        path = tmp / f"opr_{i}.json"
        path.write_text(json.dumps({"version": 1, "domain": boxes(domain), "packing_region": boxes(region)}))
        out.append(("verify", "opr", str(path)))
    return out


def run(checkout: Path, cwd: Path, argv: tuple[str, ...]) -> tuple[int, str, str]:
    """(exit code, stdout, stderr), with the checkout's root path in the output
    (a traceback names its modules by path) replaced by one placeholder."""
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    proc = subprocess.run(
        [sys.executable, "-m", "spectile.cli", *argv],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
    )
    root = str(checkout) + os.sep
    return proc.returncode, proc.stdout.replace(root, "<checkout>/"), proc.stderr.replace(root, "<checkout>/")


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: compare_reports.py BASE HEAD", file=sys.stderr)
        return 2
    base, head = (Path(a).resolve() for a in argv)
    with tempfile.TemporaryDirectory() as tmp:
        cmds = commands(head) + window_commands(Path(tmp)) + opr_commands(Path(tmp))
        with ThreadPoolExecutor(max_workers=2) as pool:
            results = list(pool.map(lambda c: (run(base, head, c), run(head, head, c)), cmds))
    differing = broken = 0
    for cmd, (a, b) in zip(cmds, results):
        if a != b:
            differing += 1
            parts = [name for name, x, y in zip(("exit code", "stdout", "stderr"), a, b) if x != y]
            print(f"{' '.join(cmd)}: {', '.join(parts)} differ (exit {a[0]} vs {b[0]})")
        if b[0] not in range(4) or "Traceback" in b[2]:
            broken += 1
            traceback = " with a traceback" if "Traceback" in b[2] else ""
            print(f"{' '.join(cmd)}: HEAD exits {b[0]}{traceback}, outside the exit-code contract")
    print(f"{len(cmds)} commands, {differing} differing")
    if broken:
        print(f"{broken} commands break the exit-code contract at HEAD")
    return 1 if differing or broken else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
