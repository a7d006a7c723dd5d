"""Executable criteria: orthogonality, spectra, tilings, packing regions.

Each check returns a ternary Verdict with witness data.  Exact paths
(rational lattices, structured zero sets, exact multiplicity) emit bare
Holds/Fails certificates; numeric paths (windowed point sets, grid scans)
never emit a bare Holds when a tolerance was load-bearing; they either
carry their margins or come back Inconclusive.

The three theorem-shaped harnesses (transfer, duality round-trip, measure
bound) treat a violated conclusion as Fails: the underlying implications
hold unconditionally, so a failure there flags an implementation bug, not
a mathematical discovery.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from itertools import combinations
from math import prod
from operator import sub
from typing import Sequence

from .errors import (
    DimensionMismatch,
    IntegralMismatch,
    IrrationalData,
    MeasureNotOne,
    PreconditionFailed,
    RadiusTooSmall,
    spend,
)
from .exact import Vec, scaled, to_float
from .fourier import (
    ZeroSet,
    coset_in_zero_set,
    default_tol,
    ft_indicator,
    in_zero_set,
    tail_bound,
    zero_set,
)
from .geometry import Domain, minkowski_difference, multiplicity, overlap_measure
from .lattice import (
    DualWeight,
    PeriodicSet,
    WindowSet,
    difference,
    dual_weights,
    enumerate_dual_in,
)
from .records import field, record

DEFAULT_TOL = 1e-9
DEFAULT_GRID = 64


class Status(str, Enum):
    HOLDS = "holds"
    FAILS = "fails"
    INCONCLUSIVE = "inconclusive"


@record
class Verdict:
    status: Status
    witness: dict | None = None
    margins: dict = field(default_factory=dict)
    notes: tuple[str, ...] = ()

    def __post_init__(self):
        if self.status == Status.FAILS and self.witness is None:
            raise ValueError("a failing verdict needs a witness")
        if self.status == Status.INCONCLUSIVE and not any(
            k.startswith("near") for k in self.margins
        ):
            raise ValueError("an inconclusive verdict needs a near margin")


def _holds(margins: dict | None = None, notes: Sequence[str] = ()) -> Verdict:
    return Verdict(Status.HOLDS, None, margins or {}, tuple(notes))


def _fails(witness: dict, margins: dict | None = None, notes: Sequence[str] = ()) -> Verdict:
    return Verdict(Status.FAILS, witness, margins or {}, tuple(notes))


def _inconclusive(
    margins: dict, witness: dict | None = None, notes: Sequence[str] = ()
) -> Verdict:
    return Verdict(Status.INCONCLUSIVE, witness, margins, tuple(notes))


@record
class SpectrumCertificate:
    density: Fraction
    dual_points_checked: tuple[DualWeight, ...]
    all_exact: bool


@record
class TileSpec:
    """A nonnegative unit-integral tile: an indicator or a power spectrum."""

    kind: str  # "indicator" | "power_spectrum"
    domain: Domain

    def integral(self) -> Fraction:
        # Both integrals equal |Ω|: trivially for the indicator, by Parseval for |1̂_Ω|².
        return self.domain.measure


# ---------------------------------------------------------------------------
# Orthogonality


def _as_integers(points: Sequence[tuple], d: int) -> tuple[list[tuple[int, ...]], int] | None:
    """The d-dimensional points as integer tuples over their least common
    denominator (`exact.scaled`), or None when a coordinate is a float."""
    if not all(isinstance(c, Fraction) for p in points for c in p):
        return None
    flat, n = scaled([c for p in points for c in p])
    return [tuple(flat[k:k + d]) for k in range(0, len(flat), d)], n


def _pair_tests(z: ZeroSet, points: Sequence[tuple]):
    """(i, j, in_zero_set(z, points[i] − points[j])) over the pairs i < j, in order.

    Rational points are scaled once to integers over one denominator, and
    each distinct difference is tested once; float points go pair by pair.
    """
    scaled_points = _as_integers(points, z.domain.dim)
    if scaled_points is None:
        for i, j in combinations(range(len(points)), 2):
            yield i, j, in_zero_set(z, difference(points[i], points[j]))
        return
    ints, n = scaled_points
    answers: dict = {}
    for i, a in enumerate(ints):
        for j in range(i + 1, len(ints)):
            key = tuple(map(sub, a, ints[j]))
            m = answers.get(key, answers)  # the dict itself marks an untested key
            if m is answers:
                m = answers[key] = in_zero_set(z, tuple(Fraction(x, n) for x in key))
            yield i, j, m


def check_orthogonality(om: Domain, lam) -> Verdict:
    """Are all nonzero differences of Λ zeros of 1̂_Ω?

    Equivalently, does Λ pack ℝᵈ with |1̂_Ω|².  Periodic Λ is decided
    exactly, one coset per distinct difference of the N reps of the
    rectangularized Λ, in ascending order (N² spent first on the
    orthogonality_pairs budget); rational reps are subtracted as integers
    over one denominator.  A coset whose offset has float coordinates holds
    only through the exact axes of a product; its numeric witness fails only
    when clearly off the zero set.  A point list is tested pair by pair (its
    pairs spent first on the same budget) and holds only when every pair was
    decided exactly; a pair that went through the tolerance (`in_zero_set`
    answered None) leaves it Inconclusive.  The first failing pair in (i, j)
    order is the witness.
    """
    z = zero_set(om)
    if isinstance(lam, PeriodicSet):
        n = lam.rectangular_size()
        spend("orthogonality_pairs", n * n)
        rect = lam.rectangularized()
        scaled_reps = _as_integers(rect.reps, rect.dim)
        if scaled_reps is None:
            deltas = sorted({difference(r1, r2) for r1 in rect.reps for r2 in rect.reps})
        else:
            ints, den = scaled_reps
            cols, keys = list(zip(*ints)), set()
            for a in ints:  # a − b for every b, one axis at a time
                keys.update(zip(*[[x - y for y in col] for x, col in zip(a, cols)]))
            deltas = [tuple(Fraction(x, den) for x in key) for key in sorted(keys)]
        for delta in deltas:
            ok, point = coset_in_zero_set(z, delta, rect.lattice.periods)
            if not ok:
                value = abs(ft_indicator(om, point))
                witness = {
                    "kind": "difference",
                    "difference": point,
                    "coset_offset": delta,
                    "abs_ft": value,
                }
                if ok is None:
                    return _inconclusive(
                        {"near_zero_margin": value, "tol": default_tol(om)},
                        witness=witness,
                        notes=("a difference with float coordinates is near the zero set",),
                    )
                return _fails(witness)
        return _holds({"cosets_checked": float(len(deltas))})
    points = lam.points
    pairs = len(points) * (len(points) - 1) // 2
    spend("orthogonality_pairs", pairs)
    undecided = False
    for i, j, m in _pair_tests(z, points):
        if m is False:
            diff = difference(points[i], points[j])
            value = abs(ft_indicator(om, diff))
            witness = {"kind": "pair", "a": points[i], "b": points[j], "difference": diff, "abs_ft": value}
            return _fails(witness)
        undecided = undecided or m is None
    margins = {"pairs_checked": float(pairs)}
    if undecided:
        tol = default_tol(om)
        note = "a pairwise difference was decided by the tolerance: evidence, not a certificate"
        return _inconclusive({"near_zero_margin": tol, **margins, "tol": tol}, notes=(note,))
    return _holds(margins)


# ---------------------------------------------------------------------------
# Spectra (periodic, exact dual route)


def check_spectrum_periodic(
    om: Domain, lam: PeriodicSet, duals: Sequence[Vec] | None = None
) -> tuple[Verdict, SpectrumCertificate]:
    """Spectrum test in the dual lattice: density 1 and no surviving dual atom.

    Λ is a spectrum of Ω (measure 1) iff dens Λ = 1 and every nonzero dual
    point inside the open difference body Ω-Ω carries a vanishing
    exponential-sum weight.  A weight whose ξ is zero on every float
    coordinate is decided exactly (Mann classes of a sum of roots of unity);
    on exact reps the verdict is therefore Holds or Fails.  The first weight
    that does not vanish is the witness.  A numeric weight (ξ nonzero on a
    float coordinate) can only fail or leave the verdict Inconclusive, and
    makes the certificate's all_exact false.

    `duals` are those dual points, as `enumerate_dual_in` lists them for
    Λ's lattice and Ω − Ω; a search passes one list for all its solutions,
    and a lone call leaves it None to enumerate them here.
    """
    if om.measure != 1:
        raise MeasureNotOne(f"|Ω| = {om.measure} but the spectrum test needs measure 1")
    dens = lam.density()
    if dens != 1:
        cert = SpectrumCertificate(dens, (), True)
        return _fails({"kind": "density", "value": dens}), cert
    if duals is None:
        duals = enumerate_dual_in(lam, minkowski_difference(om, om))
    weights = tuple(dual_weights(lam, duals))
    numeric = any(dw.xi[j] for j in lam.float_axes for dw in weights)
    cert = SpectrumCertificate(dens, weights, not numeric)
    for dw in weights:
        if dw.exact_zero is False:
            return _fails({"kind": "dual_point", "xi": dw.xi, "weight": dw.weight}), cert
    undecided = [abs(dw.weight) for dw in weights if dw.exact_zero is None]
    if undecided:
        margins = {"near_zero_weight": max(undecided), "dual_points_checked": float(len(weights))}
        notes = ("a numeric dual weight is within its rounding bound of 0",)
        return _inconclusive(margins, notes=notes), cert
    return _holds({"dual_points_checked": float(len(weights))}), cert


# ---------------------------------------------------------------------------
# Set tilings (exact multiplicity)


def check_set_tiling(om: Domain, lam: PeriodicSet) -> Verdict:
    """Does Ω + Λ tile?  Exact verdict from the torus-cell multiplicity.

    Float coordinates are decided where they drop out of the level (a
    product Ω evenly covering their axes); elsewhere the verdict is
    Inconclusive.
    """
    try:
        mult = multiplicity(om, lam)
    except IrrationalData as exc:
        return _inconclusive({"near_float_axes": float(len(lam.float_axes))}, notes=(str(exc),))
    if mult.is_tiling():
        return _holds({"cells": float(len(mult.levels))})
    cell, lv = mult.first_defect()
    kind = "gap" if lv < 1 else "overlap"
    return _fails(
        {
            "kind": "defect_cell",
            "defect": kind,
            "cell_lo": cell.lo,
            "cell_hi": cell.hi,
            "level": lv,
        },
        margins={"level_min": to_float(mult.level_min), "level_max": to_float(mult.level_max)},
    )


# ---------------------------------------------------------------------------
# Defect fields: exact Poisson sum for periodic sets, windowed kernel otherwise


def _effective_radius(ws: WindowSet) -> float:
    """The least distance from the unit cell [0, 1]ᵈ to the window's boundary."""
    gaps = []
    for lo, hi in zip(ws.window.lo, ws.window.hi):
        gaps.append(0.0 - to_float(lo))  # 0.0, not −0.0, for lo = 0
        gaps.append(to_float(hi) - 1.0)
    return min(gaps)


def _grid_axes(d: int, n: int, ws: WindowSet | None = None) -> list[list[float]]:
    """The per-axis values i/n of the unit cell's grid, n points per axis.

    The nᵈ grid points are spent on the grid_points budget, and for a window
    they times its translates on the kernel_pairs budget, before any array
    is built.
    """
    spend("grid_points", n**d)
    if ws is not None:
        spend("kernel_pairs", n**d * len(ws.points))
    return [[i / n for i in range(n)]] * d


def _grid_point(axes, i: int) -> tuple[float, ...]:
    """The point of index i of the product grid of `axes`, first axis slowest:
    its digit on axis j is i // (n_{j+1}·…·n_{d−1}) mod n_j."""
    return tuple(a[i // prod(map(len, axes[j + 1:])) % len(a)] for j, a in enumerate(axes))


def _poisson_terms(om: Domain, lam: PeriodicSet):
    """(c, W(ξ), ξ) as floats, c = |Ω ∩ (Ω+ξ)| / |det L|: the terms of the Poisson sum.

    Σ_λ |1̂_Ω(x−λ)|² = Σ_ξ c·Re(W(ξ)·e^{2πi⟨ξ,x⟩}) for periodic Λ = A + L·Zᵈ,
    over ξ = 0 and the dual points inside the open body Ω − Ω, outside which
    the overlap (the transform of |1̂_Ω|²) vanishes; W is the dual mass.  The
    series is finite, so the field is exact up to float rounding.  Terms come
    in one fixed order: 0, then the sorted dual points.
    """
    duals = [(Fraction(0),) * lam.dim, *enumerate_dual_in(lam, minkowski_difference(om, om))]
    det = abs(lam.lattice.det)
    for dw in dual_weights(lam, duals, decide=False):
        c = to_float(overlap_measure(om, dw.xi) / det)
        yield c, dw.weight, tuple(to_float(x) for x in dw.xi)


def _field(om: Domain, lam: PeriodicSet | WindowSet, grid: int) -> tuple[list, list[float]]:
    """The per-axis values of the unit cell's grid, `grid` points per axis, and
    D(x) = Σ_λ |1̂_Ω(x−λ)|² at each grid point (first axis slowest), budgets
    checked first.  Periodic Λ gets the exact Poisson sum, whose ξ = 0 term,
    the constant |Ω|·dens Λ, is all of it when no other dual point lies in
    Ω − Ω (a box tiling by a lattice); only further terms, or a window's
    translates, go through the kernel."""
    window = None if isinstance(lam, PeriodicSet) else lam
    axes = _grid_axes(om.dim, grid, window)
    if window is None:
        (c, w, _), *rest = _poisson_terms(om, lam)
        v0 = c * w.real  # W(0) > 0, so this is the kernel's 0.0 + c·(Re W·cos 0 − Im W·sin 0)
        if not rest:
            return axes, [v0] * grid**om.dim
    from . import kernels

    vals = kernels.windowed_field(om, lam, axes) if window else kernels.poisson_field(v0, rest, axes)
    return axes, vals.tolist()


def check_tiling_defect(
    om: Domain,
    ws: WindowSet,
    grid: int = DEFAULT_GRID,
    rho: float | None = None,
) -> Verdict:
    """Windowed tiling check of |1̂_Ω|² + S: max sampled |sum − 1| vs the tail given ρ.

    The window holds only some translates, and each adds a nonnegative term,
    so a grid value above 1 + DEFAULT_TOL refutes tiling for good.  The
    unseen remainder is bounded only through ρ: without it, everything short
    of an overshoot is Inconclusive, and the window radius is never checked.
    With ρ, a window too small for the tail bound raises RadiusTooSmall.
    Whether Λ packs is `check_orthogonality`'s question, decided exactly.
    """
    r_eff = _effective_radius(ws)
    if rho is not None and r_eff <= to_float(om.diameter()):
        raise RadiusTooSmall(
            f"window radius leaves effective tail radius {r_eff}, "
            f"need more than the domain diameter {to_float(om.diameter())}"
        )
    from . import kernels

    axes, vals = _field(om, ws, grid)  # refuses an over-budget grid or window first
    top, idx = kernels.field_extremes(vals)
    defect = abs(vals[idx] - 1.0)
    margins = {"max_defect": defect, "max_value": vals[idx], "tol": DEFAULT_TOL}

    def at(i: int) -> dict:
        return {"kind": "grid_point", "x": _grid_point(axes, i), "value": vals[i]}

    if rho is None:
        if vals[top] > 1.0 + DEFAULT_TOL:
            return _fails(at(top), margins)
        return _inconclusive(
            {**margins, "near_overshoot_margin": 1.0 + DEFAULT_TOL - vals[top]},
            notes=("no density bound was supplied: only an overshoot above 1 is decisive",),
        )
    tail = tail_bound(om, rho, r_eff)
    ok = defect <= tail.bound + DEFAULT_TOL
    margins.update(tail_bound=tail.bound, effective_radius=r_eff, density_bound=rho)
    if not tail.rigorous:
        margins["near_tail_margin"] = tail.bound
        return _inconclusive(
            margins,
            witness=at(idx),
            notes=("tail bound is not rigorous for this domain; defect is evidence only",),
        )
    if ok:
        return _holds(
            margins,
            notes=(f"defect within rigorous tail allowance for the supplied density bound {rho}",),
        )
    return _fails(at(idx), margins)


def check_set_tiling_windowed(
    om: Domain, ws: WindowSet, grid: int = DEFAULT_GRID
) -> Verdict:
    """Sampled indicator-coverage check for non-periodic translate sets.

    Counts translates covering each grid point with the boxes shrunk by eps;
    a point whose count changes when the boxes grow by eps instead sits too
    close to a translate boundary for float membership to be trustworthy and
    is skipped.  The list holds only the translates inside its window, so a
    count of 2 or more refutes anywhere, but a gap (count 0) or a count of 1
    is read only where every translate that could cover the point lies in
    the window; elsewhere an unseen translate may fill it.  A count of 1 at
    every point read is evidence, not a certificate, so a pass comes back
    Inconclusive.
    """
    from . import kernels

    axes = _grid_axes(om.dim, grid, ws)
    eps = 1e-9
    idx, count, checked = kernels.first_miscovered(om, ws, axes, eps)
    if idx is not None:
        return _fails(
            {"kind": "coverage_point", "x": _grid_point(axes, idx), "count": count},
            margins={"points_checked": float(checked)},
        )
    return _inconclusive(
        {"near_boundary_eps": eps, "points_checked": float(checked)},
        notes=("sampled coverage equals 1 everywhere checked; not a certificate",),
    )


# ---------------------------------------------------------------------------
# Orthogonal packing regions


def check_opr(om: Domain, region: Domain) -> Verdict:
    """Is (region - region) disjoint from Z(1̂_Ω)?

    On a structured zero set each open box of the difference body asks each
    axis for its first zero inside (`AxisRoots.zero_in`), which fails as the
    witness, exact when rational; an irrational family straddling an end
    leaves it Inconclusive.  On a union that is no product the real zeros are
    not located, so the answer is Inconclusive at once, its margin counting
    the undecided difference-body boxes.
    Raises DimensionMismatch when the region and Ω differ in dimension.
    """
    if region.dim != om.dim:
        raise DimensionMismatch(f"packing region dim {region.dim} vs domain dim {om.dim}")
    z = zero_set(om)
    body = minkowski_difference(region, region)
    if z.structured:
        near_hits = 0
        for j, ar in enumerate(z.axes):
            for b in body.boxes:
                v, straddles = ar.zero_in(b.lo[j], b.hi[j])
                near_hits += straddles
                if v is not None:
                    point = [c if type(v) is Fraction else to_float(c) for c in b.midpoint()]
                    point[j] = v
                    return _fails({"kind": "zero_in_difference_body", "point": tuple(point)})
        if near_hits:
            return _inconclusive(
                {"near_boundary_roots": float(near_hits)},
                notes=("an irrational root family straddles the difference-body boundary",),
            )
        return _holds({"boxes_checked": float(len(body.boxes))})
    return _inconclusive(
        {"near_undecided_boxes": float(len(body.boxes))},
        notes=("Ω is no product of 1-D unions, so its real zeros are not located; "
               "no difference-body box is decided",),
    )


def check_tight_pair(om: Domain, region: Domain) -> Verdict:
    """Mutually tight: both measures 1 and packing regions for each other."""
    m_om, m_d = om.measure, region.measure
    if m_om != 1 or m_d != 1:
        return _fails(
            {"kind": "measure", "omega_measure": m_om, "region_measure": m_d}
        )
    forward = check_opr(om, region)
    backward = check_opr(region, om)
    for name, v in (("region vs Z(1̂_Ω)", forward), ("Ω vs Z(1̂_region)", backward)):
        if v.status == Status.FAILS:
            return _fails(v.witness, v.margins, notes=(f"direction failed: {name}",))
    for v in (forward, backward):
        if v.status == Status.INCONCLUSIVE:
            return _inconclusive(v.margins, v.witness, v.notes)
    return _holds(
        {
            **{f"forward_{k}": v for k, v in forward.margins.items()},
            **{f"backward_{k}": v for k, v in backward.margins.items()},
        }
    )


# ---------------------------------------------------------------------------
# Keller-type condition


def _require_periodic(lam, check: str) -> None:
    if not isinstance(lam, PeriodicSet):  # a point list only windows Λ; these checks read all of it
        raise IrrationalData(f"{check} needs a periodic point set, not a point list")


def check_keller(om: Domain, lam: PeriodicSet, region: Domain) -> Verdict:
    """Every nonzero λ of a tiling set lies in Z(1̂_D) for the tight partner D."""
    tp = check_tight_pair(om, region)
    if tp.status != Status.HOLDS:
        raise PreconditionFailed("(Ω, D) is not a verified tight pair")
    _require_periodic(lam, "the Keller check")
    lam0, offset = lam.normalized_to_zero()
    notes = []
    if any(c != 0 for c in offset):
        notes.append(f"Λ translated by {offset} so that 0 ∈ Λ")
    st = check_set_tiling(om, lam0)
    if st.status == Status.FAILS:
        raise PreconditionFailed("Ω + Λ is not a tiling")
    if st.status == Status.INCONCLUSIVE:
        raise PreconditionFailed("Ω + Λ is not a verified tiling")
    zd = zero_set(region)
    rect = lam0.rectangularized()
    for rep in rect.reps:
        ok, witness = coset_in_zero_set(zd, rep, rect.lattice.periods)
        if ok is None:
            return _inconclusive(
                {"near_zero_margin": default_tol(region)},
                witness={"kind": "lattice_point", "point": witness, "coset_offset": rep},
                notes=tuple(notes) + ("a lattice point with float coordinates is near the zero set",),
            )
        if not ok:
            return _fails(
                {"kind": "lattice_point", "point": witness, "coset_offset": rep},
                notes=tuple(notes),
            )
    return _holds({"cosets_checked": float(len(rect.reps))}, notes=tuple(notes))


# ---------------------------------------------------------------------------
# Two-tile transfer harness


def _packs(spec: TileSpec, lam: PeriodicSet) -> bool:
    if spec.kind == "indicator":
        return multiplicity(spec.domain, lam).level_max <= 1
    return check_orthogonality(spec.domain, lam).status == Status.HOLDS


def _tiles(spec: TileSpec, lam: PeriodicSet) -> bool:
    if spec.kind == "indicator":
        return check_set_tiling(spec.domain, lam).status == Status.HOLDS
    verdict, _ = check_spectrum_periodic(spec.domain, lam)
    return verdict.status == Status.HOLDS


def transfer_harness(f_spec: TileSpec, g_spec: TileSpec, lam: PeriodicSet) -> Verdict:
    """Cross-check: two unit-integral tiles that both pack with Λ must agree
    on whether they tile.  Disagreement flags a bug in one of the pipelines
    (exact multiplicity vs the dual-lattice route)."""
    if f_spec.integral() != g_spec.integral() or f_spec.integral() != 1:
        raise IntegralMismatch(
            f"tile integrals {f_spec.integral()} and {g_spec.integral()} must both be 1"
        )
    _require_periodic(lam, "the transfer harness")
    if lam.float_axes:
        raise IrrationalData("the transfer harness compares exact pipelines; Λ has floats")
    packs_f, packs_g = _packs(f_spec, lam), _packs(g_spec, lam)
    if not (packs_f and packs_g):
        return _inconclusive(
            {"near_packing_precondition": 0.0},
            notes=(
                f"packing precondition not established (f packs: {packs_f}, g packs: {packs_g})",
            ),
        )
    tiles_f, tiles_g = _tiles(f_spec, lam), _tiles(g_spec, lam)
    if tiles_f == tiles_g:
        return _holds(
            {"both_tile": float(tiles_f)},
            notes=(f"tiling statuses agree (f: {tiles_f}, g: {tiles_g})",),
        )
    return _fails(
        {
            "kind": "transfer_disagreement",
            "f": {"kind": f_spec.kind, "tiles": tiles_f},
            "g": {"kind": g_spec.kind, "tiles": tiles_g},
        }
    )


# ---------------------------------------------------------------------------
# Measure bound and duality round-trip harnesses


def check_opr_measure_bound(om: Domain, lam: PeriodicSet, region: Domain) -> Verdict:
    """For a tiling Ω and verified packing region D, |D| ≤ 1 must hold exactly."""
    if check_set_tiling(om, lam).status != Status.HOLDS:
        raise PreconditionFailed("Ω + Λ is not a tiling")
    opr = check_opr(om, region)
    if opr.status != Status.HOLDS:
        raise PreconditionFailed("D is not a verified packing region for Ω")
    m = region.measure
    if m <= 1:
        return _holds({"region_measure": to_float(m)})
    return _fails({"kind": "measure_bound", "region_measure": m})


def duality_roundtrip(om: Domain, region: Domain, lam: PeriodicSet) -> Verdict:
    """For a tight pair, 'Λ is a spectrum of Ω' and 'D + Λ tiles' must agree."""
    tp = check_tight_pair(om, region)
    if tp.status != Status.HOLDS:
        raise PreconditionFailed("(Ω, D) is not a verified tight pair")
    _require_periodic(lam, "the duality round-trip")
    spec_verdict, _ = check_spectrum_periodic(om, lam)
    tile_verdict = check_set_tiling(region, lam)  # exact reps: Holds or Fails
    undecided = [v for v in (spec_verdict, tile_verdict) if v.status == Status.INCONCLUSIVE]
    if undecided:
        return _inconclusive(undecided[0].margins, notes=("float coordinates leave a side undecided",))
    agree = spec_verdict.status == tile_verdict.status
    if agree:
        return _holds(
            {"both_hold": float(spec_verdict.status == Status.HOLDS)},
            notes=(f"agreement: both {spec_verdict.status.value}",),
        )
    return _fails(
        {
            "kind": "duality_disagreement",
            "spectrum_status": spec_verdict.status.value,
            "tiling_status": tile_verdict.status.value,
            "spectrum_witness": spec_verdict.witness,
            "tiling_witness": tile_verdict.witness,
        }
    )
