"""The numeric kernel: the windowed power-spectrum field, vectorized in numpy.

The one loop that dominates the numeric route is the field
D(x) = Σ_λ |1̂_U(x-λ)|² evaluated over a grid of x for thousands of
translates λ; `power_sum_field` computes it.
"""

from __future__ import annotations

import numpy as np

# Chunk the translate axis so the (grid x translates) complex buffer stays small.
_CHUNK = 4096


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
    lo = np.ascontiguousarray(lo, dtype=np.float64)
    hi = np.ascontiguousarray(hi, dtype=np.float64)
    points = np.ascontiguousarray(points, dtype=np.float64)
    xs = np.ascontiguousarray(xs, dtype=np.float64)
    out = np.zeros(len(xs), dtype=np.float64)
    for start in range(0, len(points), _CHUNK):
        chunk = points[start : start + _CHUNK]
        u = xs[:, None, :] - chunk[None, :, :]
        amp = _amplitude(lo, hi, u)
        out += np.sum(amp.real**2 + amp.imag**2, axis=1)
    return out


def backend_name() -> str:
    """Name of the kernel implementation, for reports and benchmark machine blocks."""
    return "numpy"
