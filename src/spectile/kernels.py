"""The numeric kernel: sums of a tile over windowed translates, on a grid.

The numeric route for a windowed (non-periodic) Λ sums a tile over the
translates λ ∈ Λ at each grid point x.  Two tiles are summed here:

- `power_sum_field`: D(x) = Σ_λ |1̂_U(x-λ)|², the packing/tiling field of the
  power spectrum;
- `cover_count`: the number of translates of the boxes of U that contain x
  strictly, the indicator tiling count.

Both run on one block loop over (grid rows × translate columns), so every
temporary buffer holds a bounded number of pairs, whatever the grid size.
"""

from __future__ import annotations

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
