"""The numeric kernel: every float-array computation of spectile.

This is the only module that imports numpy.  The exact routes never import
it, so a certificate run does not load numpy; `criteria` imports it where a
numeric route starts, and `fourier` where irrational zeros are first asked
for.  Without numpy that import raises MissingDependency, which the CLI
reports as exit 3 with a JSON diagnostic.  Sampling grids are per-axis
lists, and `criteria` fills in a periodic field that is its ξ = 0 constant
alone; the rest is here:

- the complex roots of an integer polynomial (`roots`, by np.roots);
- the Poisson field of a periodic set past its constant term (`poisson_field`);
- the windowed field D(x) = Σ_λ |1̂_U(x-λ)|² over explicit translates
  (`windowed_field`, on `power_sum_field`);
- the windowed indicator coverage (`first_miscovered`, on `cover_count`).

Every sampling grid is a product of per-axis values, and 1̂_U and 1_U of a
box are products of per-axis factors.  So `poisson_field` broadcasts the
per-axis products x_j·ξ_j, and `power_sum_field` and `cover_count`
tabulate each box's factor on (axis value × translate), an n × N table per
axis, and sum over the translates by matrix products (`_contract`).  The
translates go in column chunks, so every table holds at most
_TABLE_ENTRIES entries, whatever the window size.
"""

from __future__ import annotations

import os
from itertools import product
from math import prod

from .errors import MissingDependency
from .exact import to_float

# The kernel's matrix products are small, (n × N)·(N × n) per step.  Handing
# them to BLAS worker threads costs more than it saves, and a product can
# wait tens of milliseconds for a worker on a busy host, so BLAS runs on the
# calling thread.  This takes effect when numpy is first imported here; an
# explicit setting in the environment wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("MKL_NUM_THREADS", "1")

try:
    import numpy as np
except ImportError as exc:
    raise MissingDependency(f"the numeric kernel needs numpy: {exc}") from None

# Entries (axis value × translate) of one per-axis table: bounds every buffer.
_TABLE_ENTRIES = 1 << 17


def _chunks(axes, n_points: int):
    """Column slices of the translates, at most _TABLE_ENTRIES // n each."""
    step = max(1, _TABLE_ENTRIES // max(len(a) for a in axes))
    for start in range(0, n_points, step):
        yield slice(start, start + step)


def _arrays(*arrays):
    return [np.ascontiguousarray(a, dtype=np.float64) for a in arrays]


def _contract(tables) -> np.ndarray:
    """Re Σ_s ∏_j tables[j][i_j, s] at every grid index (i_0, …, i_{d−1}).

    d = 1 sums rows.  Otherwise the last two axes are one matrix product for
    each index of the leading axes, whose rows scale the left factor.
    """
    shape = tuple(len(t) for t in tables)
    if len(tables) == 1:
        return tables[0].real.sum(axis=1)
    *lead, left, right = tables
    out = np.empty((prod(shape[:-2]), *shape[-2:]))
    for k, idx in enumerate(product(*map(range, shape[:-2]))):
        a = left
        for t, i in zip(lead, idx):
            a = a * t[i]
        out[k] = a.real @ right.real.T
        if np.iscomplexobj(a) and np.iscomplexobj(right):
            out[k] -= a.imag @ right.imag.T
    return out.reshape(shape)


def power_sum_field(lo, hi, points, axes):
    """D[g] = Σ_s |Σ_b ∏_j ∫_{lo_bj}^{hi_bj} e^{-2πi u t} dt|² at u = x_g − points[s],
    over the product grid of the per-axis values `axes` (first axis slowest).

    |Σ_b f_b|² = Σ_b |f_b|² + 2·Re Σ_{b<c} f_b·conj(f_c), and every term is
    a product over axes of w·sinc(w·u) factors times, for b ≠ c, the phase
    e^{-2πi u (m_b − m_c)} of the box midpoints m.
    """
    lo, hi, points = _arrays(lo, hi, points)
    axes = _arrays(*axes)
    width, mid = hi - lo, 0.5 * (lo + hi)
    out = np.zeros(tuple(len(a) for a in axes))
    for cols in _chunks(axes, len(points)):
        us = [a[:, None] - points[None, cols, j] for j, a in enumerate(axes)]
        amps = [[w * np.sinc(w * u) for w, u in zip(ws, us)] for ws in width]
        for b, amp in enumerate(amps):
            out += _contract([f * f for f in amp])
            for c in range(b + 1, len(amps)):
                tables = []
                for j, u in enumerate(us):
                    t = amp[j] * amps[c][j]
                    shift = mid[b, j] - mid[c, j]
                    tables.append(t * np.exp(-2j * np.pi * shift * u) if shift else t)
                out += 2 * _contract(tables)
    return out.ravel()


def cover_count(lo, hi, points, axes):
    """out[g] = #{(s, b) : lo[b] < x_g − points[s] < hi[b] on every axis}, over
    the product grid of `axes`; 0/1 tables, so every sum is an exact integer."""
    lo, hi, points = _arrays(lo, hi, points)
    axes = _arrays(*axes)
    out = np.zeros(tuple(len(a) for a in axes))
    for cols in _chunks(axes, len(points)):
        us = [a[:, None] - points[None, cols, j] for j, a in enumerate(axes)]
        for b in range(len(lo)):
            out += _contract([((u > lo[b, j]) & (u < hi[b, j])).astype(np.float64) for j, u in enumerate(us)])
    return out.ravel().astype(np.int64)


def roots(coeffs) -> list[complex]:
    """The complex roots of Σ_k coeffs[k]·z^k (ascending coefficients), by np.roots."""
    return np.roots(list(reversed(coeffs))).tolist()


def backend_name() -> str:
    """Name of the kernel implementation, for reports and benchmark machine blocks."""
    return "numpy"


# ---------------------------------------------------------------------------
# Fields on product grids


def poisson_field(v0: float, terms, axes) -> np.ndarray:
    """v0 + Σ c·Re(w·e^{2πi⟨ξ,x⟩}) at each point x of the product grid of the
    per-axis values `axes` (first axis slowest), over (c, w, ξ) float terms,
    each added in the order given on the whole grid.  ⟨ξ,x⟩ sums the per-axis
    products x_j·ξ_j broadcast over the grid, so no list of points is built.
    """
    axes = np.ix_(*_arrays(*axes))
    out = np.full(tuple(a.size for a in axes), v0)
    for c, w, xi in terms:
        t = 2 * np.pi * sum(a * x for a, x in zip(axes, xi))
        out += c * (w.real * np.cos(t) - w.imag * np.sin(t))
    return out.ravel()


def _translates(om, ws):
    """Box corners (lo, hi) of the domain om and the translates of ws, as float arrays."""
    lo = np.array([[to_float(v) for v in b.lo] for b in om.boxes])
    hi = np.array([[to_float(v) for v in b.hi] for b in om.boxes])
    pts = np.asarray(ws.float_points(), dtype=np.float64).reshape(-1, om.dim)
    return lo, hi, pts


def windowed_field(om, ws, axes) -> np.ndarray:
    """D(x) = Σ_λ |1̂_om(x−λ)|² over the translates λ of ws, on the product grid of `axes`."""
    return power_sum_field(*_translates(om, ws), axes)


def field_extremes(vals) -> tuple[int, int]:
    """First indices of the largest value and of the largest |value − 1|."""
    vals = np.asarray(vals)
    return int(np.argmax(vals)), int(np.argmax(np.abs(vals - 1.0)))


def first_miscovered(om, ws, axes, eps: float) -> tuple[int | None, int, int]:
    """Indicator coverage of the product grid of `axes` by the translates of om over ws.

    A point is clean when its count with the boxes shrunk by eps equals its
    count with them grown by eps.  ws lists only the translates inside its
    open window, so a clean count is decisive where every translate that
    could cover x does lie there (x − hull(om) inside the window, with eps to
    spare), and a count of 2 or more is decisive anywhere.  Returns (index,
    count, decisive points) for the first decisive point whose count is not
    1, the decisive points counted up to and including it; or (None, 0, all
    decisive points) when there is none.
    """
    lo, hi, pts = _translates(om, ws)
    count = cover_count(lo + eps, hi - eps, pts, axes)
    seen = np.ones((), dtype=bool)
    for a, w_lo, w_hi, h_lo, h_hi in zip(_arrays(*axes), ws.window.lo, ws.window.hi, lo.min(0), hi.max(0)):
        w_lo, w_hi = to_float(w_lo), to_float(w_hi)
        seen = np.logical_and.outer(seen, (a >= w_lo + h_hi + eps) & (a <= w_hi + h_lo - eps))
    decisive = (count == cover_count(lo - eps, hi + eps, pts, axes)) & (seen.ravel() | (count > 1))
    bad = np.flatnonzero(decisive & (count != 1))
    if len(bad):
        idx = int(bad[0])
        return idx, int(count[idx]), int(np.count_nonzero(decisive[: idx + 1]))
    return None, 0, int(np.count_nonzero(decisive))
