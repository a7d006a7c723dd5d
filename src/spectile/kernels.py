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

Each table is written in place, by `out=` ufuncs, into buffers made once
per call, with the float operations of the plain formulas in their order,
so the floats do not depend on the buffering.  For B boxes in d dimensions
the field works in B·d + 1 tables, plus d complex pair tables when B > 1;
the coverage count in d tables, plus d more when B > 1, and two boolean
masks; in d ≥ 3 a matrix product step adds one scratch table.  One box in
d = 2 thus needs three tables of the field, 3 MiB at _TABLE_ENTRIES.  The
Poisson field works in two grid-sized buffers besides its output.
"""

from __future__ import annotations

import os
from itertools import product
from math import prod

from .errors import MissingDependency, SpectileError
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
# The chunk boundaries it sets fix the order in which the field is summed.
_TABLE_ENTRIES = 1 << 17
# np.sinc's stand-in for a phase of exactly 0, where sin(y)/y is 1
_EPS = np.finfo(np.float64).eps


def _chunking(axes, n_points: int) -> tuple[int, int]:
    """(translates per column chunk, at most _TABLE_ENTRIES // n for n the
    longest axis; entries of a buffer that holds any table of a chunk)."""
    n = max(len(a) for a in axes)
    step = max(1, _TABLE_ENTRIES // n)
    return step, n * min(step, n_points)


def _table(buf, a, pts) -> np.ndarray:
    """The len(a) × len(pts) table at the head of a flat buffer, C-contiguous."""
    return buf[: len(a) * len(pts)].reshape(len(a), len(pts))


def _arrays(*arrays):
    return [np.ascontiguousarray(a, dtype=np.float64) for a in arrays]


def _require_finite(values, what: str):
    if not np.isfinite(values).all():
        raise SpectileError(f"{what} lies beyond the float range")


def _contract(tables) -> np.ndarray:
    """Re Σ_s ∏_j tables[j][i_j, s] at every grid index (i_0, …, i_{d−1}).

    d = 1 sums rows.  Otherwise the last two axes are one matrix product for
    each index of the leading axes, whose rows scale the left factor in one
    scratch table.
    """
    shape = tuple(len(t) for t in tables)
    if len(tables) == 1:
        return tables[0].real.sum(axis=1)
    *lead, left, right = tables
    out = np.empty((prod(shape[:-2]), *shape[-2:]))
    scaled = np.empty(left.shape, np.result_type(left, *lead)) if lead else None
    for k, idx in enumerate(product(*map(range, shape[:-2]))):
        a = left
        for t, i in zip(lead, idx):
            a = np.multiply(a, t[i], out=scaled)
        out[k] = a.real @ right.real.T
        if np.iscomplexobj(a) and np.iscomplexobj(right):
            out[k] -= a.imag @ right.imag.T
    return out.reshape(shape)


def _amplitude(out, phase, a, pts_j, w):
    """out = w·sinc(w·u) at u = a[i] − pts_j[s], by the float operations of
    w * np.sinc(w * u) in their order, the phase π·w·u built in `phase`.

    Raises SpectileError when a phase is not finite: its sine is no number.
    """
    np.subtract(a[:, None], pts_j, out=phase)
    with np.errstate(over="ignore"):
        np.multiply(w, phase, out=phase)
        np.multiply(np.pi, phase, out=phase)
    _require_finite(phase, "a kernel phase π·w·u")
    np.copyto(phase, _EPS, where=phase == 0)
    np.sin(phase, out=out)
    np.divide(out, phase, out=out)
    return np.multiply(w, out, out=out)


@np.errstate(over="ignore", invalid="ignore")  # past the float range, the field is refused whole
def power_sum_field(lo, hi, points, axes):
    """D[g] = Σ_s |Σ_b ∏_j ∫_{lo_bj}^{hi_bj} e^{-2πi u t} dt|² at u = x_g − points[s],
    over the product grid of the per-axis values `axes` (first axis slowest).

    |Σ_b f_b|² = Σ_b |f_b|² + 2·Re Σ_{b<c} f_b·conj(f_c), and every term is
    a product over axes of w·sinc(w·u) factors times, for b ≠ c, the phase
    e^{-2πi u (m_b − m_c)} of the box midpoints m.

    A box's amplitudes are squared in place once no later pair term reads
    them; before that, its squares go to the pair tables.  Raises
    SpectileError when a phase, a box midpoint or midpoint difference of a
    pair term, or the field itself is not finite.
    """
    lo, hi, points = _arrays(lo, hi, points)
    axes = _arrays(*axes)
    last = len(lo) - 1
    width = hi - lo
    mid = 0.5 * (lo + hi)
    shift = mid[:, None] - mid[None, :]
    pairs = np.triu_indices(len(lo), 1)
    _require_finite(shift[pairs], "the box midpoints 0.5·(lo + hi) of a pair term, or their difference,")
    out = np.zeros(tuple(len(a) for a in axes))
    step, size = _chunking(axes, len(points))
    scratch = np.empty(size)
    amp_bufs = [[np.empty(size) for _ in axes] for _ in lo]
    pair_bufs = [np.empty(size, np.complex128) for _ in axes] if last else []
    for start in range(0, len(points), step):
        pts = points[start : start + step]
        amps = [
            [
                _amplitude(_table(buf, a, pts), _table(scratch, a, pts), a, pts[:, j], w)
                for j, (a, w, buf) in enumerate(zip(axes, ws, bufs))
            ]
            for ws, bufs in zip(width, amp_bufs)
        ]
        for b, amp in enumerate(amps):
            own = amp if b == last else [_table(zbuf.view(np.float64), a, pts) for zbuf, a in zip(pair_bufs, axes)]
            out += _contract([np.multiply(f, f, out=t) for f, t in zip(amp, own)])
            for c in range(b + 1, len(amps)):
                tables = []
                for j, (a, zbuf) in enumerate(zip(axes, pair_bufs)):
                    if shift[b, c, j]:
                        u = np.subtract(a[:, None], pts[:, j], out=_table(scratch, a, pts))
                        z = _table(zbuf, a, pts)
                        np.multiply(-2j * np.pi * shift[b, c, j], u, out=z)
                        _require_finite(z, "a kernel phase 2π·u·(m_b − m_c)")
                        np.exp(z, out=z)
                        # the real product first, u being read no more, then times the phase
                        tables.append(np.multiply(np.multiply(amp[j], amps[c][j], out=u), z, out=z))
                    else:
                        tables.append(np.multiply(amp[j], amps[c][j], out=_table(zbuf.view(np.float64), a, pts)))
                out += 2 * _contract(tables)
    _require_finite(out, "the windowed field Σ_s |1̂_U(x − s)|²")
    return out.ravel()


def cover_count(lo, hi, points, axes):
    """out[g] = #{(s, b) : lo[b] < x_g − points[s] < hi[b] on every axis}, over
    the product grid of `axes`; 0/1 tables, so every sum is an exact integer.

    The last box's indicators overwrite u, which no later box reads.
    """
    lo, hi, points = _arrays(lo, hi, points)
    axes = _arrays(*axes)
    last = len(lo) - 1
    out = np.zeros(tuple(len(a) for a in axes))
    step, size = _chunking(axes, len(points))
    u_bufs = [np.empty(size) for _ in axes]
    ind_bufs = [np.empty(size) for _ in axes] if last else u_bufs
    above, below = np.empty(size, bool), np.empty(size, bool)
    for start in range(0, len(points), step):
        pts = points[start : start + step]
        us = [
            np.subtract(a[:, None], pts[:, j], out=_table(buf, a, pts)) for j, (a, buf) in enumerate(zip(axes, u_bufs))
        ]
        for b in range(len(lo)):
            tables = []
            for j, (a, u, buf) in enumerate(zip(axes, us, u_bufs if b == last else ind_bufs)):
                inside = np.greater(u, lo[b, j], out=_table(above, a, pts))
                inside &= np.less(u, hi[b, j], out=_table(below, a, pts))
                t = _table(buf, a, pts)
                np.copyto(t, inside)
                tables.append(t)
            out += _contract(tables)
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
    products x_j·ξ_j broadcast over the grid, so no list of points is built,
    and each term is built in two grid buffers.  Raises SpectileError when a
    phase 2π·⟨ξ,x⟩ is not finite.
    """
    axes = np.ix_(*_arrays(*axes))
    out = np.full(tuple(a.size for a in axes), v0)
    phase, value = np.empty_like(out), np.empty_like(out)
    for c, w, xi in terms:
        phase.fill(0.0)
        with np.errstate(over="ignore", invalid="ignore"):
            for a, x in zip(axes, xi):
                phase += a * x
            phase *= 2 * np.pi
        _require_finite(phase, "a Poisson phase 2π·⟨ξ,x⟩")
        np.multiply(np.cos(phase, out=value), w.real, out=value)
        np.multiply(np.sin(phase, out=phase), w.imag, out=phase)
        value -= phase
        value *= c
        out += value
    return out.ravel()


def _translates(om, ws):
    """Box corners (lo, hi) of the domain om and the translates of ws, as float arrays."""
    lo = np.array([[to_float(v) for v in b.lo] for b in om.boxes])
    hi = np.array([[to_float(v) for v in b.hi] for b in om.boxes])
    coords = (to_float(x) for p in ws.points for x in p)
    pts = np.fromiter(coords, np.float64, len(ws.points) * om.dim).reshape(-1, om.dim)
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
