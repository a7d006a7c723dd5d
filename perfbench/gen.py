"""Seeded generators for the benchmark's problem files.

Every generated instance has its answer fixed by construction, so the
benchmark can check the program without trusting it:

- ``highq_periodic``: Λ = 3Z + {a/n, 1 + a/n, 2 + a/n} is the translate
  Z + a/n of Z, hence a spectrum of the unit interval.  Moving one rep by
  b/n with gcd(b, n) = 1 keeps density 1, but the set is no longer a
  translate of Z, and every spectrum of an interval is one, so the moved
  set must fail.  The dual weights have rational phases with common
  denominator q = 3n, which is what makes the cyclotomic decision heavy.
- ``cell_domain``: a union of 1/m-cells [k/m, (k+1)/m).  The transform of one
  cell vanishes on mZ ∖ 0, so mZ is orthogonal for every such union.
- ``column_window``: unit squares centred on columns n with a random shift
  s_n, i.e. the points (n, k + s_n).  Every column arrangement tiles the
  plane, and tiling sets of the square are its spectra.
- ``gappy_window``: Z ∩ (-R, R) without |n| in [500, 504].  A spectrum of
  the unit interval is a translate of Z, and no translate of Z contains 0
  but misses 500, so the answer is *not holds*.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction
from pathlib import Path

UNIT_INTERVAL = {"boxes": [{"lo": ["-1/2"], "hi": ["1/2"]}]}
UNIT_SQUARE = {"product": [UNIT_INTERVAL, UNIT_INTERVAL]}


def highq_periodic(rng: random.Random, n: int, moved: bool) -> dict:
    a = rng.choice([k for k in range(1, n) if math.gcd(k, 3 * n) == 1])
    reps = [Fraction(j) + Fraction(a, n) for j in range(3)]
    if moved:
        j = rng.randrange(3)
        b = rng.choice([k for k in range(1, n) if math.gcd(k, n) == 1])
        reps[j] += Fraction(b, n)
    return {
        "version": 1,
        "domain": UNIT_INTERVAL,
        "pointset": {"type": "periodic", "basis": [["3"]], "reps": [[str(r)] for r in reps]},
    }


def cell_domain(rng: random.Random, m: int, cells: int) -> dict:
    # Cells 0 and m-1 are always present so the zero-set polynomial has the
    # same degree m for every seed; the rest are a random subset.
    inner = rng.sample(range(1, m - 1), cells - 2)
    ks = sorted([0, m - 1, *inner])
    boxes = [{"lo": [str(Fraction(k, m))], "hi": [str(Fraction(k + 1, m))]} for k in ks]
    return {
        "version": 1,
        "domain": {"boxes": boxes},
        "pointset": {"type": "periodic", "basis": [[str(m)]], "reps": [["0"]]},
    }


def column_window(rng: random.Random, radius: int) -> dict:
    points = []
    for n in range(-radius + 1, radius):
        s = rng.random()
        for k in range(-radius - 1, radius + 1):
            y = k + s
            if -radius < y < radius:
                points.append([float(n), y])
    return {
        "version": 1,
        "domain": UNIT_SQUARE,
        "pointset": {
            "type": "window",
            "points": points,
            "window": {"lo": [str(-radius)] * 2, "hi": [str(radius)] * 2},
        },
    }


def gappy_window(radius: int = 1000, gap: tuple[int, int] = (500, 504)) -> dict:
    points = [[str(n)] for n in range(-radius + 1, radius) if not gap[0] <= abs(n) <= gap[1]]
    return {
        "version": 1,
        "domain": UNIT_INTERVAL,
        "pointset": {
            "type": "window",
            "points": points,
            "window": {"lo": [str(-radius)], "hi": [str(radius)]},
        },
    }


def write(path: Path, problem: dict) -> str:
    path.write_text(json.dumps(problem))
    return str(path)
