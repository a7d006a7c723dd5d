"""The numeric kernel: every float-array computation of spectile.

This is the one module that imports numpy (and the kernel thread pool) at
module level.  The exact routes never import it, so a certificate run loads
neither; `criteria` imports it where a numeric route starts:

- sampling grids over a cell (`grid_points`) and inside a box (`interior_grid`);
- the exact Poisson field of a periodic set on a grid (`poisson_field`);
- the windowed field D(x) = Σ_λ |1̂_U(x-λ)|² over explicit translates
  (`windowed_field`, split across threads, on `power_sum_field`);
- the windowed indicator coverage (`first_miscovered`, on `cover_count`).

`power_sum_field` and `cover_count` run on one block loop over (grid rows ×
translate columns), so every temporary buffer holds a bounded number of
pairs, whatever the grid size.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

# Translates per column block.  Each grid point adds its per-block sums in
# block order, so the field does not depend on how many rows a block holds.
_CHUNK = 4096
# (grid point, translate) pairs per block: bounds every temporary buffer.
_PAIR_BUDGET = 1 << 18


def _blocks(n_xs: int, n_points: int):
    """Yield (row slice, column slice) blocks of the grid × translates pairs."""
    for start in range(0, n_points, _CHUNK):
        cols = slice(start, min(start + _CHUNK, n_points))
        step = max(1, _PAIR_BUDGET // (cols.stop - cols.start))
        for row in range(0, n_xs, step):
            yield slice(row, row + step), cols


def _arrays(*arrays):
    return [np.ascontiguousarray(a, dtype=np.float64) for a in arrays]


def _amplitude(lo, hi, u):
    """1̂_U on a (..., d) array of frequencies, midpoint-sinc form (stable for all u)."""
    b, d = lo.shape
    amp = np.zeros(u.shape[:-1], dtype=np.complex128)
    for ib in range(b):
        f = np.ones(u.shape[:-1], dtype=np.complex128)
        for j in range(d):
            w = hi[ib, j] - lo[ib, j]
            m = 0.5 * (lo[ib, j] + hi[ib, j])
            uj = u[..., j]
            f = f * (w * np.sinc(w * uj) * np.exp(-2j * np.pi * uj * m))
        amp += f
    return amp


def power_sum_field(lo, hi, points, xs):
    """out[g] = Σ_s |Σ_b ∏_j ∫ exp(-2πi u t) dt|² at u = xs[g]-points[s]."""
    lo, hi, points, xs = _arrays(lo, hi, points, xs)
    out = np.zeros(len(xs), dtype=np.float64)
    for rows, cols in _blocks(len(xs), len(points)):
        u = xs[rows, None, :] - points[None, cols, :]
        amp = _amplitude(lo, hi, u)
        out[rows] += np.sum(amp.real**2 + amp.imag**2, axis=1)
    return out


def cover_count(lo, hi, points, xs):
    """out[g] = #{(s, b) : lo[b] < xs[g]-points[s] < hi[b] on every axis}."""
    lo, hi, points, xs = _arrays(lo, hi, points, xs)
    out = np.zeros(len(xs), dtype=np.int64)
    for rows, cols in _blocks(len(xs), len(points)):
        u = xs[rows, None, :] - points[None, cols, :]
        for ib in range(len(lo)):
            inside = np.all((u > lo[ib]) & (u < hi[ib]), axis=-1)
            out[rows] += np.count_nonzero(inside, axis=1)
    return out


def backend_name() -> str:
    """Name of the kernel implementation, for reports and benchmark machine blocks."""
    return "numpy"


# ---------------------------------------------------------------------------
# Grids and fields on them


def _mesh(axes) -> np.ndarray:
    """All points of the product of the per-axis value arrays, first axis slowest."""
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def grid_points(cell, n: int) -> np.ndarray:
    """The (nᵈ, d) grid lo + (hi − lo)·i/n, i = 0..n−1 per axis, of a box cell."""
    return _mesh(
        float(lo) + (float(hi) - float(lo)) * np.arange(n) / n for lo, hi in zip(cell.lo, cell.hi)
    )


def interior_grid(b, n: int) -> np.ndarray:
    """The (nᵈ, d) grid of n evenly spaced points per axis strictly inside box b."""
    return _mesh(np.linspace(float(lo), float(hi), n + 2)[1:-1] for lo, hi in zip(b.lo, b.hi))


def poisson_field(terms, xs: np.ndarray) -> np.ndarray:
    """Σ c·Re(w·e^{2πi⟨ξ,x⟩}) at each grid point x, over (c, w, ξ) float terms.

    The terms are added in the order given, each on the whole grid.
    """
    out = np.zeros(len(xs))
    for c, w, xi in terms:
        t = 2 * np.pi * sum(xs[:, j] * x for j, x in enumerate(xi))
        out += c * (w.real * np.cos(t) - w.imag * np.sin(t))
    return out


def _translates(om, ws):
    """Box corners (lo, hi) of the domain om and the translates of ws, as float arrays."""
    lo = np.array([[float(v) for v in b.lo] for b in om.boxes])
    hi = np.array([[float(v) for v in b.hi] for b in om.boxes])
    pts = np.asarray(ws.float_points(), dtype=np.float64).reshape(-1, om.dim)
    return lo, hi, pts


def windowed_field(om, ws, xs: np.ndarray, threads: int) -> np.ndarray:
    """D(x) = Σ_λ |1̂_om(x−λ)|² over the translates λ of ws, split across at
    most `threads` workers (and no more than the CPUs)."""
    lo, hi, pts = _translates(om, ws)
    workers = min(threads, os.cpu_count() or 1)
    if workers <= 1 or len(xs) < 2 * workers:
        return power_sum_field(lo, hi, pts, xs)
    chunks = np.array_split(np.arange(len(xs)), workers)
    out = np.empty(len(xs))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [
            (idx, pool.submit(power_sum_field, lo, hi, pts, xs[idx]))
            for idx in chunks
            if len(idx)
        ]
        for idx, fut in futures:
            out[idx] = fut.result()
    return out


def field_extremes(vals: np.ndarray) -> tuple[int, int]:
    """First indices of the largest value and of the largest |value − 1|."""
    return int(np.argmax(vals)), int(np.argmax(np.abs(vals - 1.0)))


def first_miscovered(om, ws, xs: np.ndarray, eps: float) -> tuple[int | None, int, int]:
    """Indicator coverage of the grid xs by the translates of om over ws.

    A point is clean when its count with the boxes shrunk by eps equals its
    count with them grown by eps.  Returns (index, count, clean points) for
    the first clean point whose count is not 1, the clean points counted up
    to and including it; or (None, 0, all clean points) when there is none.
    """
    lo, hi, pts = _translates(om, ws)
    count = cover_count(lo + eps, hi - eps, pts, xs)
    clean = count == cover_count(lo - eps, hi + eps, pts, xs)
    bad = np.flatnonzero(clean & (count != 1))
    if len(bad):
        idx = int(bad[0])
        return idx, int(count[idx]), int(np.count_nonzero(clean[: idx + 1]))
    return None, 0, int(np.count_nonzero(clean))
