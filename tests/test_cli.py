"""CLI: exit codes, JSON reports, CSV scans, determinism, schema rejection."""

import cmath
import contextlib
import io
import itertools
import json
import math
import os
import random
import re
import shlex
import subprocess
import sys
import tempfile
import time
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spectile.cli
import spectile.criteria
import spectile.exact
import spectile.fourier
import spectile.jsonio
import spectile.kernels
import spectile.lattice
import spectile.search
from spectile.cli import main
from spectile.errors import BUDGETS

FIXTURES = Path(__file__).parent.parent / "fixtures"


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


def test_verify_spectrum_cube_dims(capsys):
    for name in ("cube1_z.json", "cube2_z2.json", "cube3_z3.json"):
        code, out, _ = run(capsys, "verify", "spectrum", FIXTURES / name)
        assert code == 0
        report = json.loads(out)
        assert report["verdicts"][0]["status"] == "holds"
        assert report["certificate"]["all_exact"] is True


def test_verify_spectrum_halfints_fails_with_dual_witness(capsys):
    code, out, _ = run(capsys, "verify", "spectrum", FIXTURES / "cube1_halfints.json")
    assert code == 1
    report = json.loads(out)
    witness = report["verdicts"][0]["witness"]
    assert witness["kind"] == "dual_point"
    assert witness["xi"][0] in ("1/2", "-1/2")


def test_verify_tiling_cube(capsys):
    code, out, _ = run(capsys, "verify", "tiling", FIXTURES / "cube2_z2.json")
    assert code == 0


def test_verify_tiling_bad_overlap_exit3(capsys):
    code, out, err = run(capsys, "verify", "tiling", FIXTURES / "bad_overlap.json")
    assert code == 3
    assert "OverlapError" in err


def test_verify_tight_pair_and_duality(capsys):
    assert run(capsys, "verify", "tight-pair", FIXTURES / "two_interval_pair.json")[0] == 0
    assert run(capsys, "verify", "duality", FIXTURES / "two_interval_pair.json")[0] == 0
    assert run(capsys, "verify", "duality", FIXTURES / "duality_cube.json")[0] == 0


def test_verify_keller(capsys):
    code, out, _ = run(capsys, "verify", "keller", FIXTURES / "shifted_columns_periodic.json")
    assert code == 0
    code, out, _ = run(capsys, "verify", "keller", FIXTURES / "keller_columns.json")
    assert code == 0


def test_verify_transfer(capsys):
    code, out, _ = run(capsys, "verify", "transfer", FIXTURES / "transfer_cube.json")
    assert code == 0
    report = json.loads(out)
    assert report["verdicts"][0]["margins"]["both_tile"] == 1.0


def test_verify_windowed_tiling_rational_columns(capsys):
    # shifted columns are a periodic set: an exact multiplicity, not a sample
    code, out, _ = run(
        capsys, "verify", "tiling", FIXTURES / "shifted_columns_rational.json", "--grid", "6"
    )
    assert code == 0
    report = json.loads(out)
    assert report["verdicts"][0]["status"] == "holds"


def test_verify_windowed_tiling_irrational_columns(capsys):
    # the float shift drops out: the unit column factor covers its axis once
    code, out, _ = run(
        capsys, "verify", "tiling", FIXTURES / "shifted_columns_irrational.json", "--grid", "6"
    )
    assert code == 0
    assert json.loads(out)["verdicts"][0]["status"] == "holds"


@pytest.mark.parametrize("radius, code", [("1", 2), ("3", 1)])
def test_windowed_tiling_reads_a_gap_only_where_the_window_sees_every_coverer(
    tmp_path, capsys, radius, code
):
    # (−1/2, 1/2) with {0}: inside (−1, 1) that is all of Z, which tiles, and
    # the gaps at x in (1/2, 1) are left to the unseen translate 1; inside
    # (−3, 3) the list misses ±1 and ±2, so the same gap refutes
    problem = {
        "version": 1,
        "domain": {"boxes": [{"lo": ["-1/2"], "hi": ["1/2"]}]},
        "pointset": {"type": "window", "points": [["0"]], "window": {"lo": ["-" + radius], "hi": [radius]}},
    }
    path = tmp_path / "window.json"
    path.write_text(json.dumps(problem))
    got, out, _ = run(capsys, "verify", "tiling", path)
    verdict = json.loads(out)["verdicts"][0]
    assert got == code
    if code == 2:
        # x = i/64 for i < 32 is read; x = 1/2 sits on a translate's edge
        assert verdict["margins"]["points_checked"] == 32.0
    else:
        assert verdict["witness"] == {"kind": "coverage_point", "x": [0.515625], "count": 0}


def test_verify_orthogonality_periodic(capsys):
    code, _, _ = run(capsys, "verify", "orthogonality", FIXTURES / "two_interval_spectrum.json")
    assert code == 0


@pytest.mark.parametrize(
    "boxes, points, pairs, exact",
    [
        # 1 + 10⁻¹² is no zero of 1̂_Ω (those are Z ∖ 0), yet |1̂_Ω| there is under tol
        pytest.param([(["0"], ["1"])], [[0.0], [1.000000000001]], 1, False, id="float_near_integer"),
        # the staircase is no product, but rational pairs are decided exactly:
        # it tiles with Z², so every nonzero integer point is a zero
        pytest.param(
            [(["0", "0"], ["1", "1/2"]), (["1/2", "1/2"], ["3/2", "1"])],
            [["0", "0"], ["1", "0"], ["0", "1"]],
            3,
            True,
            id="staircase_rational",
        ),
    ],
)
def test_orthogonality_window_list_by_tolerance_inconclusive(
    tmp_path, capsys, boxes, points, pairs, exact
):
    window = {"lo": ["-2"] * len(points[0]), "hi": ["2"] * len(points[0])}
    problem = {
        "version": 1,
        "domain": {"boxes": [{"lo": lo, "hi": hi} for lo, hi in boxes]},
        "pointset": {"type": "window", "points": points, "window": window},
    }
    path = tmp_path / "pairs.json"
    path.write_text(json.dumps(problem))
    code, out, _ = run(capsys, "verify", "orthogonality", path)
    verdict = json.loads(out)["verdicts"][0]
    if exact:
        assert (code, verdict["status"], verdict["margins"]) == (0, "holds", {"pairs_checked": pairs})
        return
    assert code == 2
    assert verdict["status"] == "inconclusive"
    assert verdict["margins"]["pairs_checked"] == pairs
    assert verdict["margins"]["near_zero_margin"] == verdict["margins"]["tol"]


def test_orthogonality_float_difference_on_an_exact_axis_holds(tmp_path, capsys):
    # every difference has a nonzero integer second coordinate, a zero of the
    # square's second factor, so each pair is decided exactly
    problem = json.loads((FIXTURES / "cube2_z2.json").read_text())
    problem["pointset"] = {
        "type": "window",
        "points": [[0.3, "0"], [0.7, "1"], [0.1, "2"], [0.25, "-1"]],
        "window": {"lo": ["-3", "-3"], "hi": ["3", "3"]},
    }
    path = tmp_path / "square.json"
    path.write_text(json.dumps(problem))
    code, out, _ = run(capsys, "verify", "orthogonality", path)
    assert code == 0
    assert json.loads(out)["verdicts"][0]["margins"] == {"pairs_checked": 6.0}


def test_orthogonality_pair_budget_exit3(monkeypatch, tmp_path, capsys):
    def no_pair(*args):
        raise AssertionError("a pair was tested before the budget check")

    monkeypatch.setattr(spectile.criteria, "in_zero_set", no_pair)
    problem = {
        "version": 1,
        "domain": {"boxes": [{"lo": ["0"], "hi": ["1"]}]},
        "pointset": {
            "type": "window",
            "points": [[str(k)] for k in range(4473)],  # 10 001 628 pairs
            "window": {"lo": ["-1"], "hi": ["4473"]},
        },
    }
    path = tmp_path / "many.json"
    path.write_text(json.dumps(problem))
    code, out, err = run(capsys, "verify", "orthogonality", path)
    assert (code, out) == (3, "")
    assert json.loads(err)["error"] == "BudgetExceeded"
    # the gappy window (1 989 points, 1 977 066 pairs) is under the budget
    monkeypatch.setattr(spectile.criteria, "in_zero_set", lambda z, diff: False)
    code, _, _ = run(capsys, "verify", "orthogonality", FIXTURES / "gappy_window.json")
    assert code == 1


@pytest.mark.parametrize(
    "check, region, least",
    [
        # Z(1̂_Ω) ∩ (-3, 3) = ±{1/2, 3/2, 2, 5/2} for Ω = (0, 1/2) ∪ (1, 3/2)
        ("opr", ["0", "3"], "-5/2"),
        ("tight-pair", ["0", "1"], "-1/2"),
    ],
)
def test_packing_region_witness_is_the_least_zero(tmp_path, capsys, check, region, least):
    problem = json.loads((FIXTURES / "two_interval_pair.json").read_text())
    problem["packing_region"] = {"boxes": [{"lo": [region[0]], "hi": [region[1]]}]}
    path = tmp_path / "region.json"
    path.write_text(json.dumps(problem))
    code, out, _ = run(capsys, "verify", check, path)
    assert code == 1
    assert json.loads(out)["verdicts"][0]["witness"]["point"] == [least]


_I = {"boxes": [{"lo": ["-1/2"], "hi": ["1/2"]}]}
_SQUARE = {"product": [_I, _I]}
_Z1 = {"type": "periodic", "basis": [["1"]], "reps": [["0"]]}
_Z2 = {"type": "periodic", "basis": [["1", "0"], ["0", "1"]], "reps": [["0", "0"]]}
_LIST1 = {"type": "window", "points": [["0"], ["1"]], "window": {"lo": ["-3"], "hi": ["3"]}}


@pytest.mark.parametrize(
    "argv, fields",
    [
        (["verify", "opr"], {"domain": _I, "packing_region": _SQUARE}),
        (["verify", "orthogonality"], {"domain": _SQUARE, "pointset": _LIST1}),
        (["verify", "orthogonality"], {"domain": _SQUARE, "pointset": _Z1}),
        (["verify", "spectrum"], {"domain": _SQUARE, "pointset": _LIST1}),
        (["verify", "tiling"], {"domain": _SQUARE, "pointset": _LIST1}),
        (["scan", "--profile", "defect"], {"domain": _SQUARE, "pointset": _LIST1}),
        (["verify", "opr"], {"domain": _SQUARE, "packing_region": _I}),
        (["verify", "tight-pair"], {"domain": _I, "packing_region": _SQUARE}),
        (["verify", "tight-pair"], {"domain": _SQUARE, "packing_region": _I}),
        (["verify", "keller"], {"domain": _SQUARE, "pointset": _Z2, "packing_region": _I}),
        (["verify", "duality"], {"domain": _I, "packing_region": _SQUARE, "pointset": _Z1}),
        (
            ["search", "duality-scan"],
            {"domain": _I, "packing_region": _SQUARE, "parameters": {"period": ["1"], "grid_step": "1/2"}},
        ),
        (
            ["verify", "transfer"],
            {"f": {"kind": "indicator", "domain": _I}, "g": {"kind": "indicator", "domain": _SQUARE}, "pointset": _Z1},
        ),
        (
            ["verify", "transfer"],
            {
                "f": {"kind": "power_spectrum", "domain": _SQUARE},
                "g": {"kind": "power_spectrum", "domain": _SQUARE},
                "pointset": _Z1,
            },
        ),
    ],
)
def test_dimension_mismatch_exit3(tmp_path, capsys, argv, fields):
    # objects of one problem that disagree in dimension are an input error,
    # never a verdict nor a traceback
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps({"version": 1, **fields}))
    code, out, err = run(capsys, *argv, path)
    assert (code, out) == (3, "")
    assert json.loads(err)["error"] == "DimensionMismatch"
    assert "Traceback" not in err


def test_windowed_spectrum_without_density_bound_needs_no_radius(tmp_path, capsys):
    # the window (−1, 1) leaves no tail radius, but without ρ only an
    # overshoot decides: {0, 1/2} packs |1̂_Ω|² above 1 at x = 1/4
    problem = {
        "version": 1,
        "domain": _I,
        "pointset": {"type": "window", "points": [["0"], ["1/2"]], "window": {"lo": ["-1"], "hi": ["1"]}},
    }
    path = tmp_path / "small.json"
    path.write_text(json.dumps(problem))
    code, out, _ = run(capsys, "verify", "spectrum", path)
    assert code == 1
    witness = json.loads(out)["verdicts"][0]["witness"]
    assert witness == {"kind": "grid_point", "x": [0.25], "value": 1.6211389382774042}


def test_search_spectra_two_interval(capsys):
    code, out, _ = run(capsys, "search", "spectra", FIXTURES / "two_interval_search.json")
    assert code == 0
    report = json.loads(out)
    assert report["count"] == 2
    reps = sorted(tuple(tuple(r) for r in s["reps"]) for s in report["solutions"])
    assert reps == [(("0",), ("1/2",)), (("0",), ("3/2",))]
    assert all(
        c["verdict"]["status"] == "holds" for c in report["certificates"]
    )


def test_search_tilings_flags_override(capsys):
    code, out, _ = run(
        capsys,
        "search",
        "tilings",
        FIXTURES / "two_interval_search.json",
        "--period",
        "2",
        "--grid-step",
        "1/2",
    )
    assert code == 0
    assert json.loads(out)["count"] == 2


def test_search_zero_solutions(capsys):
    code, out, _ = run(capsys, "search", "spectra", FIXTURES / "zero_solutions_search.json")
    assert code == 0
    assert json.loads(out)["count"] == 0


def test_search_duality_scan(capsys):
    code, out, _ = run(capsys, "search", "duality-scan", FIXTURES / "two_interval_pair_search.json")
    assert code == 0
    assert json.loads(out)["verdicts"][0]["status"] == "holds"


def test_scan_power_profile(capsys):
    code, out, _ = run(
        capsys, "scan", FIXTURES / "cube1_z.json", "--profile", "power",
        "--axis", "0", "--range", "-3:3:601",
    )
    assert code == 0
    rows = out.strip().split("\n")
    assert len(rows) == 601
    mid = rows[300].split(",")
    assert float(mid[0]) == 0.0
    assert float(mid[1]) == 1.0


def test_scan_defect_profile(capsys):
    code, out, _ = run(
        capsys, "scan", FIXTURES / "cube1_z_window.json", "--profile", "defect",
        "--radius", "1000", "--grid", "64",
    )
    assert code == 0
    rows = [r.split(",") for r in out.strip().split("\n")]
    assert len(rows) == 64
    assert max(abs(float(r[-1])) for r in rows) <= 3e-4


def test_scan_missing_range_exit3(capsys):
    code, _, err = run(capsys, "scan", FIXTURES / "cube1_z.json", "--profile", "power")
    assert code == 3


def test_reports_byte_identical(capsys):
    a = run(capsys, "verify", "spectrum", FIXTURES / "two_interval_spectrum.json", "--threads", "1")
    b = run(capsys, "verify", "spectrum", FIXTURES / "two_interval_spectrum.json", "--threads", "1")
    assert a == b
    c = run(capsys, "search", "spectra", FIXTURES / "two_interval_search.json", "--threads", "1")
    d = run(capsys, "search", "spectra", FIXTURES / "two_interval_search.json", "--threads", "1")
    assert c == d


def test_report_round_trips(capsys):
    _, out, _ = run(capsys, "verify", "spectrum", FIXTURES / "cube1_halfints.json")
    report = json.loads(out)
    assert json.loads(json.dumps(report, indent=2, sort_keys=True)) == report


def test_timings_opt_in(capsys):
    _, out, _ = run(capsys, "verify", "spectrum", FIXTURES / "cube1_z.json")
    assert "timings_ms" not in json.loads(out)
    _, out, _ = run(capsys, "verify", "spectrum", FIXTURES / "cube1_z.json", "--timings")
    assert "timings_ms" in json.loads(out)


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "verify", "spectrum", FIXTURES / "cube1_z.json", "--out", target
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["verdicts"][0]["status"] == "holds"


def test_unknown_field_rejected(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    obj = json.loads((FIXTURES / "cube1_z.json").read_text())
    obj["surprise"] = 1
    bad.write_text(json.dumps(obj))
    code, _, err = run(capsys, "verify", "spectrum", bad)
    assert code == 3
    assert "unknown fields" in err


def test_keller_precondition_exit3(tmp_path, capsys):
    bad = tmp_path / "keller_bad.json"
    obj = json.loads((FIXTURES / "shifted_columns_periodic.json").read_text())
    obj["pointset"]["reps"] = [["0", "0"], ["1", "1/3"], ["0", "1/2"]]
    bad.write_text(json.dumps(obj))
    code, _, err = run(capsys, "verify", "keller", bad)
    assert code == 3
    assert "PreconditionFailed" in err


def test_exit_codes_match_statuses_on_corpus(capsys):
    cases = [
        ("verify", "spectrum", "cube1_z.json"),
        ("verify", "spectrum", "cube1_halfints.json"),
        ("verify", "tiling", "two_interval_pair.json"),
        ("verify", "opr", "two_interval_pair.json"),
        ("verify", "tight-pair", "duality_cube.json"),
    ]
    for cmd, check, name in cases:
        code, out, _ = run(capsys, cmd, check, FIXTURES / name)
        status = json.loads(out)["verdicts"][0]["status"]
        assert code == {"holds": 0, "fails": 1, "inconclusive": 2}[status]


def test_verify_spectrum_windowed_pointset(capsys):
    # an explicit window list routes the spectrum check through the windowed
    # power-spectrum defect, whose verdict carries its margins
    code, out, _ = run(
        capsys, "verify", "spectrum", FIXTURES / "gappy_window.json",
        "--grid", "8",
    )
    report = json.loads(out)
    status = report["verdicts"][0]["status"]
    assert code in (0, 2)
    assert "max_defect" in report["verdicts"][0]["margins"]
    assert status in ("holds", "inconclusive")


def test_verify_spectrum_gappy_window_is_not_holds(capsys):
    # Z ∩ (−1000, 1000) without |n| ∈ [500, 504] is no translate of Z, so no
    # spectrum of the unit interval; its window field never exceeds 1, and
    # with no density bound the tail stays unbounded
    code, out, _ = run(capsys, "verify", "spectrum", FIXTURES / "gappy_window.json")
    status = json.loads(out)["verdicts"][0]["status"]
    assert status != "holds"
    assert code == {"holds": 0, "fails": 1, "inconclusive": 2}[status]


def test_verify_spectrum_window_overshoot_fails(tmp_path, capsys):
    # Z ∪ (Z + 1/4) packs |1̂_Ω|² twice over: the windowed field alone tops 1
    points = [[str(n)] for n in range(-49, 50)] + [[f"{4 * n + 1}/4"] for n in range(-49, 49)]
    problem = {
        "version": 1,
        "domain": {"boxes": [{"lo": ["0"], "hi": ["1"]}]},
        "pointset": {"type": "window", "points": points, "window": {"lo": ["-50"], "hi": ["50"]}},
    }
    path = tmp_path / "double.json"
    path.write_text(json.dumps(problem))
    code, out, _ = run(capsys, "verify", "spectrum", path)
    verdict = json.loads(out)["verdicts"][0]
    assert code == 1
    assert verdict["status"] == "fails"
    assert verdict["witness"]["kind"] == "grid_point"
    assert verdict["witness"]["value"] > 1


def test_defect_scan_deterministic_across_threads(capsys):
    a = run(
        capsys, "scan", FIXTURES / "cube1_z_window.json", "--profile", "defect",
        "--radius", "300", "--grid", "32", "--threads", "1",
    )
    b = run(
        capsys, "scan", FIXTURES / "cube1_z_window.json", "--profile", "defect",
        "--radius", "300", "--grid", "32", "--threads", "4",
    )
    assert a == b


@pytest.mark.parametrize(
    "edit",
    [
        pytest.param(lambda o: o["pointset"].update(basis=[["1", "0"], ["0"]]), id="non_square"),
        pytest.param(lambda o: o["pointset"].update(reps=[["0", "0", "0"]]), id="rep_dimension"),
        pytest.param(lambda o: o.update(domain={"boxes": 5}), id="boxes_not_an_array"),
        pytest.param(lambda o: o["pointset"].update(basis=[["1", "1"], ["2", "2"]]), id="singular"),
        pytest.param(lambda o: o["pointset"].update(reps=[]), id="no_reps"),
    ],
)
def test_malformed_file_exit3(tmp_path, capsys, edit):
    bad = tmp_path / "bad.json"
    obj = json.loads((FIXTURES / "cube2_z2.json").read_text())
    edit(obj)
    bad.write_text(json.dumps(obj))
    code, out, err = run(capsys, "verify", "spectrum", bad)
    assert code == 3
    assert out == ""
    assert json.loads(err)["error"] == "SchemaError"


def _utf16_file(tmp_path):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe" + (FIXTURES / "cube1_z.json").read_text().encode("utf-16-le"))
    return path


def _deep_file(tmp_path):
    # a domain of 100 000 nested arrays: json.load runs out of recursion depth
    path = tmp_path / "deep.json"
    path.write_text('{"version": 1, "domain": ' + "[" * 100_000 + "]" * 100_000 + "}")
    return path


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(lambda tmp: ["verify", "spectrum", FIXTURES], id="directory"),
        pytest.param(lambda tmp: ["verify", "spectrum", _utf16_file(tmp)], id="not_utf8"),
        pytest.param(lambda tmp: ["verify", "opr", _deep_file(tmp)], id="nested_too_deeply"),
        pytest.param(lambda tmp: ["search", "tilings", _deep_file(tmp)], id="nested_too_deeply_search"),
        pytest.param(
            lambda tmp: ["verify", "spectrum", FIXTURES / "cube1_z.json", "--out", tmp / "no" / "x.json"],
            id="out_dir_missing_verify",
        ),
        pytest.param(
            lambda tmp: ["scan", FIXTURES / "cube1_z.json", "--profile", "defect", "--grid", "4",
                         "--out", tmp / "no" / "x.csv"],
            id="out_dir_missing_scan",
        ),
    ],
)
def test_unreadable_file_exit3(tmp_path, capsys, argv):
    code, out, err = run(capsys, *argv(tmp_path))
    assert code == 3
    assert out == ""
    assert json.loads(err)["error"] == "SchemaError"


@pytest.mark.parametrize("check", ["spectrum", "keller"])
def test_huge_lattice_entry_exit3(tmp_path, capsys, check):
    # a valid non-singular basis whose lattice-point ranges exceed any budget by far
    obj = json.loads((FIXTURES / "shifted_columns_periodic.json").read_text())
    obj["pointset"]["basis"][1][0] = str(10**30)
    bad = tmp_path / "huge.json"
    bad.write_text(json.dumps(obj))
    code, out, err = run(capsys, "verify", check, bad)
    assert code == 3
    assert out == ""
    assert json.loads(err)["error"] == "BudgetExceeded"


def test_zero_tol_is_not_replaced(capsys):
    # the zero tests have fixed thresholds: --tol is a usage error, and the
    # report's tol margin stays the fixed 1e-9
    argv = ["verify", "spectrum", FIXTURES / "gappy_window.json", "--grid", "8"]
    code, out, err = run(capsys, *argv, "--tol", "0")
    assert (code, out) == (3, "")
    assert err.startswith("usage error")
    _, out, _ = run(capsys, *argv)
    assert json.loads(out)["verdicts"][0]["margins"]["tol"] == 1e-9


@pytest.mark.parametrize(
    "argv",
    [
        ("spectra", "cube1_search.json"),
        ("spectra", "cube2_z2.json", "--period", "2", "--grid-step", "1/2", "--no-normalize"),
        ("tilings", "two_interval_search.json"),
        ("tilings", "cube2_z2.json", "--period", "4", "--grid-step", "1/2"),
    ],
)
def test_search_verifies_each_solution_once(monkeypatch, capsys, argv):
    calls = []
    for module in (spectile.cli, spectile.search):
        for name in ("check_spectrum_periodic", "check_set_tiling"):
            original = getattr(module, name)

            def counted(*args, _original=original, **kwargs):
                calls.append(args[1].reps)
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
    mode, name, *flags = argv
    code, out, _ = run(capsys, "search", mode, FIXTURES / name, *flags)
    assert code == 0
    report = json.loads(out)
    assert report["count"] > 0
    assert len(calls) == len(set(calls)) == report["count"]


def test_coverage_domain_away_from_origin(tmp_path, capsys):
    # Ω = (10, 11) lies outside [-diam, diam]: translates far from x still cover it
    obj = {
        "version": 1,
        "domain": {"boxes": [{"lo": ["10"], "hi": ["11"]}]},
        "pointset": {
            "type": "window",
            "points": [[str(n)] for n in range(-39, 11)],
            "window": {"lo": ["-40"], "hi": ["40"]},
        },
    }
    path = tmp_path / "far.json"
    path.write_text(json.dumps(obj))
    code, out, _ = run(capsys, "verify", "tiling", path, "--grid", "8")
    assert code == 2
    verdict = json.loads(out)["verdicts"][0]
    assert verdict["status"] == "inconclusive"
    assert verdict["margins"]["points_checked"] == 7.0


@pytest.mark.parametrize(
    "command, name, flags, params",
    [
        pytest.param("verify spectrum", "shifted_columns_irrational.json", ["--grid=-2"], {}, id="grid_negative"),
        pytest.param("verify tiling", "shifted_columns_rational.json", ["--grid", "0"], {}, id="grid_zero"),
        pytest.param("verify spectrum", "gappy_window.json", ["--threads", "0"], {}, id="threads_zero"),
        pytest.param("scan", "cube1_z.json", ["--profile", "defect", "--radius=-5"], {}, id="radius_negative"),
        pytest.param("scan", "cube1_z.json", ["--profile", "power", "--range", "0:inf:3"], {}, id="range_inf"),
        pytest.param("scan", "cube1_z.json", ["--profile", "power", "--range=-1e308:1e308:3"], {},
                     id="range_overflow"),
        # parameters.tol is no field of the file: any value is a SchemaError
        pytest.param("verify spectrum", "shifted_columns_rational.json", [], {"tol": "nan"}, id="tol_nan"),
        pytest.param("verify spectrum", "shifted_columns_rational.json", [], {"tol": -1}, id="tol_negative"),
        pytest.param("search spectra", "cube1_search.json", ["--grid-step", "0"], {}, id="step_zero"),
        pytest.param("search spectra", "cube1_search.json", ["--grid-step=-1"], {}, id="step_negative"),
        pytest.param("search spectra", "cube1_search.json", ["--period", ","], {}, id="period_empty"),
        pytest.param("search spectra", "cube2_z2.json", ["--period", "2,2,2", "--grid-step", "1"], {},
                     id="period_length"),
        pytest.param("scan", "cube1_z_window.json", ["--profile", "defect"], {"grid": "abc"}, id="file_grid"),
        pytest.param("scan", "cube1_z_window.json", ["--profile", "defect"], {"grid": True}, id="file_grid_bool"),
        pytest.param("scan", "cube1_z_window.json", ["--profile", "defect"], {"radius": "x"}, id="file_radius"),
        pytest.param("search spectra", "cube1_search.json", [], {"period": 0.5}, id="file_period"),
    ],
)
def test_invalid_parameter_exit3(tmp_path, capsys, command, name, flags, params):
    obj = json.loads((FIXTURES / name).read_text())
    obj.setdefault("parameters", {}).update(params)
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, *command.split(), path, *flags)
    assert code == 3
    assert out == ""
    assert json.loads(err)["error"] == "SchemaError"


# Each fixture under its canonical command.
_FUZZ_FIXTURES = {
    "cube1_z.json": ("verify", "spectrum"),
    "two_interval_spectrum.json": ("verify", "spectrum"),
    "cube1_search.json": ("search", "spectra"),
    "two_interval_pair.json": ("verify", "tight-pair"),
    "opr/opr_01.json": ("verify", "opr"),
    "shifted_columns_rational.json": ("verify", "tiling"),
    "shifted_columns_irrational.json": ("verify", "spectrum"),
}
_FUZZ_POOL = st.one_of(
    st.sampled_from(["", "1/0", "abc", None, True, [], {}, "1/10000000019"]),
    st.floats(-4, 4),
    st.integers(-4, 4),
    st.builds("{}/{}".format, st.integers(-4, 4), st.integers(-4, 4)),
)


def _leaves(obj, path=()):
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield from _leaves(v, path + (k,))
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            yield from _leaves(v, path + (i,))
    else:
        yield path


@pytest.mark.parametrize("name", sorted(_FUZZ_FIXTURES))
@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_exit_code_contract_under_leaf_mutation(name, data):
    obj = json.loads((FIXTURES / name).read_text())
    *parents, key = data.draw(st.sampled_from(list(_leaves(obj))))
    target = obj
    for k in parents:
        target = target[k]
    target[key] = data.draw(_FUZZ_POOL)
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "mutated.json"
        path.write_text(json.dumps(obj))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*_FUZZ_FIXTURES[name], str(path), "--threads", "1"])
    assert code in (0, 1, 2, 3)
    if code == 1:
        statuses = [v["status"] for v in json.loads(out.getvalue())["verdicts"]]
        assert "fails" in statuses


def _defect_rows(capsys, path, *flags):
    code, out, err = run(capsys, "scan", path, "--profile", "defect", *flags)
    assert code == 0, err
    return out.splitlines()


@pytest.mark.parametrize("name", ["cube1_z.json", "cube2_z2.json"])
def test_scan_periodic_spectrum_defect_is_exactly_zero(capsys, name):
    rows = _defect_rows(capsys, FIXTURES / name)
    assert len(rows) == 64 ** (1 if name == "cube1_z.json" else 2)
    assert all(row.rsplit(",", 1)[1] == "0" for row in rows)


@pytest.mark.parametrize(
    "name", ["shifted_columns_periodic.json", "duality_cube.json", "keller_columns.json"]
)
def test_scan_accepts_packing_region_field(capsys, name):
    rows = _defect_rows(capsys, FIXTURES / name, "--grid", "8")
    assert len(rows) == 8 ** rows[0].count(",")  # one coordinate per comma
    assert all(row.rsplit(",", 1)[1] == "0" for row in rows)


def test_scan_half_integers_closed_form(capsys):
    # Λ = 2Z + {0, 1/2} on the unit interval: the dual points ±1/2 leave
    # D(x) − 1 = (cos πx + sin πx)/2
    rows = _defect_rows(capsys, FIXTURES / "cube1_halfints.json")
    assert len(rows) == 64
    for x, v in ([float(c) for c in r.split(",")] for r in rows):
        assert abs(v - (math.cos(math.pi * x) + math.sin(math.pi * x)) / 2) <= 1e-12


def test_scan_cube3_exact_and_fast(capsys):
    t0 = time.perf_counter()
    rows = _defect_rows(capsys, FIXTURES / "cube3_z3.json", "--grid", "8")
    assert time.perf_counter() - t0 < 1.0
    assert len(rows) == 512
    assert all(row.rsplit(",", 1)[1] == "0" for row in rows)


def _overlap(boxes, xi):
    """|Ω ∩ (Ω + ξ)| for disjoint boxes given as (lo, hi) float tuples."""
    total = 0.0
    for lo_a, hi_a in boxes:
        for lo_b, hi_b in boxes:
            total += math.prod(
                max(0.0, min(ha, hb + x) - max(la, lb + x)) for la, ha, lb, hb, x in zip(lo_a, hi_a, lo_b, hi_b, xi)
            )
    return total


@pytest.mark.parametrize(
    "boxes, periods, reps",
    [
        # two intervals, three reps per period 3
        ([((0.0,), (0.5,)), ((1.0,), (1.5,))], (3,), [["0"], ["1/2"], ["5/4"]]),
        # the unit square, three overlapping reps per 3 × 1 cell
        ([((0.0, 0.0), (1.0, 1.0))], (3, 1), [["0", "0"], ["1/2", "1/3"], ["2", "1/2"]]),
    ],
    ids=["two_intervals", "square"],
)
def test_scan_periodic_rows_match_a_direct_poisson_sum(tmp_path, capsys, boxes, periods, reps):
    """D(x) = |det L|⁻¹ Σ_ξ |Ω ∩ (Ω+ξ)|·Re(W(ξ)·e^{2πi⟨ξ,x⟩}) over the dual points
    ξ ∈ L^{-T}·Zᵈ of the box Ω − Ω, with W(ξ) = Σ_a e^{−2πi⟨ξ,a⟩} summed here rep by rep."""
    d = len(periods)
    problem = {
        "version": 1,
        "domain": {"boxes": [{"lo": [str(F(x)) for x in lo], "hi": [str(F(x)) for x in hi]} for lo, hi in boxes]},
        "pointset": {"type": "periodic", "basis": [[str(periods[i]) if i == j else "0" for j in range(d)] for i in range(d)],
                     "reps": reps},
    }
    (tmp_path / "p.json").write_text(json.dumps(problem))
    rows = _defect_rows(capsys, tmp_path / "p.json", "--grid", "8")
    extent = [max(hi[j] for _, hi in boxes) - min(lo[j] for lo, _ in boxes) for j in range(d)]
    duals = [
        tuple(k / c for k, c in zip(ks, periods))
        for ks in itertools.product(*(range(-math.ceil(e * c), math.ceil(e * c) + 1) for e, c in zip(extent, periods)))
    ]
    points = [[float(F(x)) for x in r] for r in reps]
    assert len(rows) == 8 ** d
    assert len({row.rsplit(",", 1)[1] for row in rows}) > 4
    for row in rows:
        *x, value = map(float, row.split(","))
        direct = sum(
            _overlap(boxes, xi)
            * sum(cmath.exp(2j * math.pi * sum(t * (y - a) for t, y, a in zip(xi, x, p))) for p in points).real
            for xi in duals
        ) / math.prod(periods)
        assert abs(value - (direct - 1)) <= 1e-12


def test_scan_periodic_rows_ignore_threads_and_radius(tmp_path, capsys):
    # a skew 2-D lattice with two reps on the 2-cube: many dual terms, none zero
    skew = json.loads((FIXTURES / "cube2_z2.json").read_text())
    skew["pointset"].update(basis=[["2", "1/3"], ["0", "1"]], reps=[["0", "0"], ["1/2", "1/5"]])
    (tmp_path / "skew.json").write_text(json.dumps(skew))
    for path in (FIXTURES / "cube1_halfints.json", tmp_path / "skew.json"):
        base = _defect_rows(capsys, path, "--grid", "16", "--threads", "1")
        assert len({row.rsplit(",", 1)[1] for row in base}) > 4
        for flags in (["--threads", "2"], ["--radius", "5"], ["--radius", "1000", "--threads", "2"]):
            assert _defect_rows(capsys, path, "--grid", "16", *flags) == base


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "spectrum", FIXTURES / "gappy_window.json"],
        ["verify", "tiling", FIXTURES / "gappy_window.json"],
        ["scan", FIXTURES / "gappy_window.json", "--profile", "defect"],
    ],
    ids=["spectrum", "tiling", "scan"],
)
@pytest.mark.parametrize("threads", ["1", "2"])
def test_kernel_budget_exit3(monkeypatch, budget, capsys, argv, threads):
    def must_not_run(*args):
        raise AssertionError("kernel work started before the budget check")

    budget("kernel_pairs", 1000)
    monkeypatch.setattr(spectile.kernels, "power_sum_field", must_not_run)
    monkeypatch.setattr(spectile.kernels, "cover_count", must_not_run)
    code, out, err = run(capsys, *argv, "--grid", "8", "--threads", threads)
    assert code == 3
    assert out == ""
    assert json.loads(err)["error"] == "BudgetExceeded"


# Shipped fixtures under exact routes, every command the exact path serves.
_EXACT_RUNS = [
    ["verify", "spectrum", "cube3_z3.json"],
    ["verify", "tiling", "cube2_z2.json"],
    ["verify", "orthogonality", "two_interval_spectrum.json"],
    ["verify", "orthogonality", "staircase_z2.json"],
    *(["verify", "opr", f"opr/{p.name}"] for p in sorted((FIXTURES / "opr").glob("*.json"))),
    ["verify", "tight-pair", "two_interval_pair.json"],
    ["verify", "keller", "keller_columns.json"],
    ["verify", "keller", "shifted_columns_periodic.json"],
    ["verify", "transfer", "transfer_cube.json"],
    ["verify", "duality", "duality_cube.json"],
    ["verify", "spectrum", "shifted_columns_irrational.json"],
    ["verify", "tiling", "shifted_columns_irrational.json"],
    ["search", "spectra", "two_interval_search.json"],
    ["search", "tilings", "cube1_search.json"],
    ["search", "duality-scan", "two_interval_pair_search.json"],
]

# lattice tilings whose defect field is its ξ = 0 term alone: no dual point
# but 0 lies in Ω − Ω, so the scan needs no kernel
_CONSTANT_FIELD_SCANS = ("cube1_z_window.json", "cube2_z2.json", "cube3_z3.json", "staircase_z2.json")


def _defect_scan(name: str, grid: int = 4) -> list[str]:
    return ["scan", str(FIXTURES / name), "--profile", "defect", "--grid", str(grid)]


_GUARD = """
import contextlib, io, json, sys
from spectile.cli import main

def run(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return main(argv)

codes = [run(argv) for argv in json.loads(sys.argv[1])]
exact = [m for m in ("numpy", "concurrent.futures", "dataclasses", "inspect") if m in sys.modules]
run(json.loads(sys.argv[2]))
print(json.dumps({"codes": codes, "exact": exact, "numeric": "numpy" in sys.modules}))
"""


def test_exact_routes_never_load_numpy(tmp_path):
    # a fresh interpreter: pytest itself has numpy loaded.  dataclasses and
    # inspect stay out too: records build no code, so the import stays small.
    # `opr` and `tight-pair` on the staircase, a union that is no product,
    # answer inconclusive at once, with no scan of the difference body.
    stairs = json.loads((FIXTURES / "staircase_z2.json").read_text())["domain"]
    path = tmp_path / "staircase_pair.json"
    path.write_text(json.dumps({"version": 1, "domain": stairs, "packing_region": stairs}))
    exact = [[*argv[:-1], str(FIXTURES / argv[-1])] for argv in _EXACT_RUNS]
    exact += [["verify", check, str(path)] for check in ("opr", "tight-pair")]
    exact += [_defect_scan(name) for name in _CONSTANT_FIELD_SCANS]
    scan = _defect_scan("cube1_halfints.json")
    env = {**os.environ, "PYTHONPATH": str(Path(spectile.cli.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", _GUARD, json.dumps(exact), json.dumps(scan)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert got["codes"] == [0] * len(_EXACT_RUNS) + [2, 2] + [0] * len(_CONSTANT_FIELD_SCANS)
    assert got["exact"] == []
    assert got["numeric"]  # a field with terms besides ξ = 0 does load the kernel


_NO_NUMPY = """
import sys
sys.modules["numpy"] = None  # every later `import numpy` raises ImportError
from spectile.cli import main
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize("numeric", ["kernel", "irrational_zeros"])
def test_numeric_route_without_numpy_exits_3(tmp_path, numeric):
    # the defect scan of Z + {0, 1/2, 3/4} on the unit interval adds dual
    # terms through the kernel; `opr` on a union with irrational zeros runs
    # np.roots when the body holds no rational zero
    if numeric == "kernel":
        argv = _defect_scan("cube1_halfints.json")
    else:
        ends = [("0", "3/5"), ("1", "6/5"), ("7/5", "8/5"), ("2", "13/5")]
        problem = {
            "version": 1,
            "domain": {"boxes": [{"lo": [lo], "hi": [hi]} for lo, hi in ends]},
            "packing_region": {"boxes": [{"lo": ["0"], "hi": ["1/8"]}]},
        }
        path = tmp_path / "irrational.json"
        path.write_text(json.dumps(problem))
        argv = ["verify", "opr", str(path)]
    env = {**os.environ, "PYTHONPATH": str(Path(spectile.cli.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", _NO_NUMPY, *argv], capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert json.loads(proc.stderr)["error"] == "MissingDependency"


def test_lattice_tiling_defect_scan_runs_without_numpy(capsys):
    # Z² on the unit square: the field is its constant term, printed as the
    # meshed grid with every Poisson term added by numpy would print it
    import numpy as np
    from oracles import mesh, poisson_field_reference

    env = {**os.environ, "PYTHONPATH": str(Path(spectile.cli.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", _NO_NUMPY, *_defect_scan("cube2_z2.json")],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    obj = json.loads((FIXTURES / "cube2_z2.json").read_text())
    dom, lam = spectile.jsonio.domain_from_json(obj["domain"]), spectile.jsonio.pointset_from_json(obj["pointset"])
    xs = mesh([np.arange(4) / 4] * 2)
    vals = poisson_field_reference(list(spectile.criteria._poisson_terms(dom, lam)), xs)
    assert proc.stdout == "".join("%.17g,%.17g,%.17g\n" % (*x, v - 1.0) for x, v in zip(xs.tolist(), vals.tolist()))
    assert run(capsys, *_defect_scan("cube2_z2.json")) == (0, proc.stdout, "")


def _periodic_problem(tmp_path, name, boxes, period, reps):
    problem = {
        "version": 1,
        "domain": {"boxes": [{"lo": [lo], "hi": [hi]} for lo, hi in boxes]},
        "pointset": {"type": "periodic", "basis": [[period]], "reps": [[r] for r in reps]},
    }
    path = tmp_path / name
    path.write_text(json.dumps(problem))
    return path


@pytest.mark.parametrize("moved, code", [(False, 0), (True, 1)])
def test_verify_spectrum_order_15015_is_fast(tmp_path, capsys, moved, code):
    # Λ = 3Z + {j + 2/5005}: a translate of Z, so a spectrum of the unit
    # interval; moving one rep by 1/5005 breaks it.  The dual weights are sums
    # of 15015-th roots of unity, 15015 = 3·5·7·11·13.
    reps = [F(j) + F(2, 5005) for j in range(3)]
    if moved:
        reps[1] += F(1, 5005)
    path = _periodic_problem(tmp_path, "highq.json", [("-1/2", "1/2")], "3", [str(r) for r in reps])
    t0 = time.perf_counter()
    got, out, _ = run(capsys, "verify", "spectrum", path)
    assert time.perf_counter() - t0 < 1.0
    assert got == code
    assert json.loads(out)["certificate"]["all_exact"] is True


def test_verify_orthogonality_degree_2501_is_fast(tmp_path, capsys):
    # P(z) = 1 − z^500 + z^2000 − z^2501 has only z = 1 among the roots of
    # unity, so the rational zeros of 1̂_Ω are 1000Z ∖ 0 and Λ = 1000Z is
    # orthogonal; no irrational root is needed for the verdict
    path = _periodic_problem(tmp_path, "wide.json", [("0", "1/2"), ("2", "2501/1000")], "1000", ["0"])
    t0 = time.perf_counter()
    code, out, _ = run(capsys, "verify", "orthogonality", path)
    assert time.perf_counter() - t0 < 1.0
    assert code == 0
    assert json.loads(out)["verdicts"][0]["status"] == "holds"


def test_root_degree_budget_exit3(tmp_path, capsys):
    # The same degree-2501 domain: after Φ_1 is divided out, the irrational
    # zeros that `opr` needs come from a residual of degree 2500, refused
    # before np.roots; orthogonality needs no irrational zero and holds.
    path = _periodic_problem(tmp_path, "wide.json", [("0", "1/2"), ("2", "2501/1000")], "1000", ["0"])
    obj = json.loads(path.read_text())
    obj["packing_region"] = {"boxes": [{"lo": ["0"], "hi": ["1/1000"]}]}
    path.write_text(json.dumps(obj))
    t0 = time.perf_counter()
    code, out, err = run(capsys, "verify", "opr", path)
    assert time.perf_counter() - t0 < 1.0
    assert code == 3
    assert out == ""
    assert json.loads(err)["error"] == "BudgetExceeded"
    assert run(capsys, "verify", "orthogonality", path)[0] == 0


_CUT = [("-1/2", "1/7919"), ("1/7919", "1/2")]


@pytest.mark.parametrize(
    "command, domain, region",
    [
        ("opr", _CUT, _CUT),
        ("tight-pair", _CUT, _CUT),
        ("opr", [("1/7919", "1/2")], [("1/7919", "1/2")]),
        ("opr", [("0", "55440")], [("0", "1/1000000")]),
    ],
    ids=["opr_cut", "tight_pair_cut", "opr_7919", "opr_55440"],
)
def test_high_degree_zero_sets_divide_fast(tmp_path, capsys, command, domain, region):
    # zero-set polynomials of degree 15 838, 7 917 and 55 440, each with a
    # residual of degree 0 once the Φ_n of its root orders are divided out
    def boxes(ends):
        return {"boxes": [{"lo": [lo], "hi": [hi]} for lo, hi in ends]}

    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"version": 1, "domain": boxes(domain), "packing_region": boxes(region)}))
    t0 = time.perf_counter()
    code, out, _ = run(capsys, "verify", command, path)
    assert time.perf_counter() - t0 < 1.0
    assert code == 0
    assert json.loads(out)["verdicts"][0]["status"] == "holds"


def test_root_order_budget_exit3(tmp_path, capsys):
    # degree about 2·10⁶ with 4 terms: over the pre-flight budget, refused
    # before any order is enumerated or the dense polynomial is built
    path = _periodic_problem(tmp_path, "huge.json", [("0", "1/2"), ("2", "2000001/999983")], "1", ["0"])
    t0 = time.perf_counter()
    code, out, err = run(capsys, "verify", "orthogonality", path)
    assert time.perf_counter() - t0 < 1.0
    assert code == 3
    assert out == ""
    assert json.loads(err)["error"] == "BudgetExceeded"


def _readme_commands():
    text = (FIXTURES.parent / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("spectile ")]


@pytest.mark.parametrize("line", _readme_commands())
def test_readme_command_line_runs(monkeypatch, capsys, line):
    """Each documented command runs; an `# exit N` comment pins its code."""
    monkeypatch.chdir(FIXTURES.parent)
    command, _, comment = line.partition("#")
    code = main(shlex.split(command)[1:])
    capsys.readouterr()
    assert code != 3
    pinned = re.search(r"\bexit (\d)", comment)
    if pinned:
        assert code == int(pinned.group(1))


def test_verify_tiling_wide_interval_overlap_is_fast(tmp_path, capsys):
    # (0, 300000) + Z covers its one torus cell 300000 times
    path = _periodic_problem(tmp_path, "wide.json", [("0", "300000")], "1", ["0"])
    t0 = time.perf_counter()
    code, out, _ = run(capsys, "verify", "tiling", path)
    assert time.perf_counter() - t0 < 1.0
    assert code == 1
    witness = json.loads(out)["verdicts"][0]["witness"]
    assert witness == {
        "kind": "defect_cell", "defect": "overlap", "cell_lo": ["0"], "cell_hi": ["1"], "level": 300000
    }


def test_verify_orthogonality_fine_lattice_stops_at_the_first_bad_residue(tmp_path, capsys):
    # Ω = (0, 1), Λ = Z/1000000007: the one coset has about 10⁹ residues, but
    # at most deg P of them are zeros, so the first one off the zero set is
    # found at once and is the witness
    path = _periodic_problem(tmp_path, "fine.json", [("0", "1")], "1/1000000007", ["0"])
    t0 = time.perf_counter()
    code, out, _ = run(capsys, "verify", "orthogonality", path)
    assert time.perf_counter() - t0 < 2.0
    assert code == 1
    assert json.loads(out)["verdicts"][0]["witness"]["difference"] == ["1/1000000007"]


@pytest.mark.parametrize("shear, code", [("1/1000", 3), ("1/100", 3), ("1/10", 0)])
def test_skew_lattice_budget_before_rectangularizing(tmp_path, capsys, shear, code):
    # the unit square on the lattice with basis [[1, s], [0, 1]] and one rep:
    # rectangularizing gives 1/s² reps, 10⁶ and 10⁴ of them for the first two
    obj = json.loads((FIXTURES / "keller_columns.json").read_text())
    obj["pointset"] = {"type": "periodic", "basis": [["1", shear], ["0", "1"]], "reps": [["0", "0"]]}
    path = tmp_path / "skew.json"
    path.write_text(json.dumps(obj))
    for check in ("orthogonality", "tiling", "keller"):
        t0 = time.perf_counter()
        got, out, err = run(capsys, "verify", check, path)
        assert time.perf_counter() - t0 < 2.0
        assert got == code
        if code == 3:
            assert out == ""
            assert json.loads(err)["error"] == "BudgetExceeded"
        else:
            assert json.loads(out)["verdicts"][0]["status"] == "holds"


@pytest.mark.parametrize("shear", ["1/100", "1/1000"])
def test_skew_staircase_orthogonality_refused_before_listing(monkeypatch, tmp_path, capsys, shear):
    # the staircase (0,1)×(0,½) ∪ (½,3⁄2)×(½,1) is no product, and its coset
    # pass is refused on the rectangularized rep count (1/s², so 10⁸ or 10¹²
    # differences) before any rep is built or any point listed
    def must_not_run(*args):
        raise AssertionError("points were listed before the budget check")

    monkeypatch.setattr(spectile.lattice, "window", must_not_run)
    monkeypatch.setattr(spectile.lattice.PeriodicSet, "rectangularized", must_not_run)
    obj = {
        "version": 1,
        "domain": {"boxes": [{"lo": ["0", "0"], "hi": ["1", "1/2"]}, {"lo": ["1/2", "1/2"], "hi": ["3/2", "1"]}]},
        "pointset": {"type": "periodic", "basis": [["1", shear], ["0", "1"]], "reps": [["0", "0"]]},
    }
    path = tmp_path / "staircase.json"
    path.write_text(json.dumps(obj))
    t0 = time.perf_counter()
    code, out, err = run(capsys, "verify", "orthogonality", path)
    assert time.perf_counter() - t0 < 2.0
    assert (code, out) == (3, "")
    error = json.loads(err)
    assert error["error"] == "BudgetExceeded"
    assert re.fullmatch(r"\d+ difference pairs exceed the orthogonality_pairs budget of 10000000", error["message"])


def test_non_product_coset_refused_before_its_first_test(monkeypatch, tmp_path, capsys):
    # the staircase has q = (2, 2), so the coset (1/997)·Z² has 1994 residues
    # per axis: about 4·10⁶ zero tests, counted and refused before any runs
    def must_not_run(*args):
        raise AssertionError("a zero test ran before the budget check")

    monkeypatch.setattr(spectile.fourier, "union_vanishes", must_not_run)
    obj = json.loads((FIXTURES / "staircase_z2.json").read_text())
    obj["pointset"]["basis"] = [["1/997", "0"], ["0", "1/997"]]
    path = tmp_path / "fine.json"
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, "verify", "orthogonality", path)
    assert (code, out) == (3, "")
    error = json.loads(err)
    assert error["error"] == "BudgetExceeded"
    assert error["message"] == "3980025 zero tests exceed the coset_tests budget of 100000"


def _as_boxes(obj):
    """The problem with every {"product": [...]} domain spelled as its plain boxes."""
    if isinstance(obj, list):
        return [_as_boxes(v) for v in obj]
    if not isinstance(obj, dict):
        return obj
    if "product" in obj:
        combos = itertools.product(*(f["boxes"] for f in obj["product"]))
        return {"boxes": [{"lo": [b["lo"][0] for b in c], "hi": [b["hi"][0] for b in c]} for c in combos]}
    return {k: _as_boxes(v) for k, v in obj.items()}


_VERIFY_CHECKS = ("spectrum", "tiling", "orthogonality", "opr", "tight-pair", "keller", "transfer", "duality")
_PRODUCT_FIXTURES = sorted(
    p.relative_to(FIXTURES).as_posix() for p in FIXTURES.rglob("*.json") if '"product"' in p.read_text()
)


@pytest.mark.parametrize("name", _PRODUCT_FIXTURES)
def test_product_written_as_boxes_reports_like_the_product(tmp_path, capsys, name):
    # a domain is its boxes: the product spelling unlocks nothing the boxes do not
    obj = json.loads((FIXTURES / name).read_text())
    plain = tmp_path / "plain.json"
    plain.write_text(json.dumps(_as_boxes(obj)))
    argvs = [
        ["verify", check]
        for check in _VERIFY_CHECKS
        if set(spectile.cli._COMMANDS["verify"][check][0]) <= obj.keys()
    ]
    if name.startswith("cube"):
        argvs += [["search", mode, "--period", "2", "--grid-step", "1/2"] for mode in ("spectra", "tilings")]
    for argv in argvs:
        reports = [
            run(capsys, *argv[:2], path, *argv[2:]) for path in (FIXTURES / name, plain)
        ]
        (code, out, err), (plain_code, plain_out, plain_err) = reports
        assert (plain_code, plain_out) == (code, out), argv
        assert plain_err.replace(str(plain), "FILE") == err.replace(str(FIXTURES / name), "FILE")


def test_multiplicity_cell_budget_exit3(budget, tmp_path, capsys):
    budget("cells", 1)
    path = _periodic_problem(tmp_path, "two.json", [("0", "1")], "2", ["0", "1/2"])
    code, out, err = run(capsys, "verify", "tiling", path)
    assert code == 3
    assert out == ""
    assert json.loads(err)["error"] == "BudgetExceeded"


def test_oversized_grid_exit3_before_any_array(monkeypatch, capsys):
    # a 10⁵ × 10⁵ grid would hold 10¹⁰ points; the grid budget refuses it first
    def must_not_run(*args):
        raise AssertionError("an array was built for an over-budget grid")

    for name in ("poisson_field", "windowed_field", "first_miscovered"):
        monkeypatch.setattr(spectile.kernels, name, must_not_run)
    for name in ("_poisson_terms", "_grid_point"):
        monkeypatch.setattr(spectile.criteria, name, must_not_run)
    monkeypatch.setattr(spectile.cli, "product", must_not_run)
    for argv in (
        ["scan", FIXTURES / "cube2_z2.json", "--profile", "defect", "--grid", "100000"],
        ["scan", FIXTURES / "cube1_z_window.json", "--profile", "defect", "--grid", "2000000"],
        ["verify", "tiling", FIXTURES / "gappy_window.json", "--grid", "2000000"],
        ["verify", "spectrum", FIXTURES / "gappy_window.json", "--grid", "2000000"],
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, ""), argv
        error = json.loads(err)
        assert error["error"] == "BudgetExceeded", argv
        assert error["message"].endswith("grid points exceed the grid_points budget of 1000000"), argv


def test_verify_tiling_hundred_columns_is_fast(tmp_path, capsys):
    # unit squares on diag(100, 1)·Z² + {(j, s_j)}: a column tiling for any
    # shifts; 101 × 65 torus cells from 64 distinct shifts modulo 1
    rng = random.Random(100)
    distinct = rng.sample(range(65), 64)
    shifts = distinct + [rng.choice(distinct) for _ in range(36)]
    obj = json.loads((FIXTURES / "shifted_columns_periodic.json").read_text())
    obj["pointset"].update(
        basis=[["100", "0"], ["0", "1"]], reps=[[str(j), f"{s}/65"] for j, s in enumerate(shifts)]
    )
    path = tmp_path / "columns.json"
    path.write_text(json.dumps(obj))
    t0 = time.perf_counter()
    code, out, _ = run(capsys, "verify", "tiling", path)
    assert time.perf_counter() - t0 < 1.0
    assert code == 0
    assert json.loads(out)["verdicts"][0]["margins"] == {"cells": 6565.0}


def test_verify_spectrum_decides_weights_of_order_above_a_million(tmp_path, capsys):
    # Λ = 3Z + {0, 1 + 10⁻¹⁰, 2} is no translate of Z, so no spectrum of the
    # unit interval, although its dual weights at ±1/3, ±2/3 are about 2·10⁻¹⁰
    # in modulus; they are sums of roots of unity of order 3·10¹⁰
    path = _periodic_problem(tmp_path, "near.json", [("-1/2", "1/2")], "3", ["0", "10000000001/10000000000", "2"])
    code, out, _ = run(capsys, "verify", "spectrum", path)
    assert code == 1
    assert json.loads(out)["verdicts"][0]["witness"]["kind"] == "dual_point"
    assert run(capsys, "verify", "orthogonality", path)[0] == 1
    assert run(capsys, "verify", "tiling", path)[0] == 1
    # 3Z + {a, 1 + a, 2 + a} with a = 10⁻¹⁰ is a translate of Z: a spectrum
    a = F(1, 10**10)
    path = _periodic_problem(tmp_path, "shifted.json", [("-1/2", "1/2")], "3", [str(a + j) for j in range(3)])
    code, out, _ = run(capsys, "verify", "spectrum", path)
    assert code == 0
    assert json.loads(out)["certificate"]["all_exact"] is True


def test_slice_budget_exit3(budget, capsys):
    # every dual weight of 2Z + {0, 1/2} has two terms of even order: m = 2
    budget("mann_coordinates", 1)
    code, out, err = run(capsys, "verify", "spectrum", FIXTURES / "two_interval_spectrum.json")
    assert code == 3
    assert out == ""
    assert json.loads(err)["error"] == "BudgetExceeded"


def test_search_of_1200_reps_runs_without_recursion(capsys):
    # one rep per candidate: the clique search goes 1200 levels deep
    argv = ["search", "spectra", FIXTURES / "cube1_search.json", "--period", "1200", "--grid-step", "1"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    report = json.loads(out)
    assert report["count"] == 1
    assert report["solutions"][0]["basis"] == [["1200"]]
    assert report["solutions"][0]["reps"] == [[str(k)] for k in range(1200)]


def test_search_grid_budget_exit3(capsys):
    # 2·10000000019 candidates: refused before any candidate is listed
    t0 = time.perf_counter()
    code, out, err = run(capsys, "search", "spectra", FIXTURES / "cube1_search.json", "--grid-step", "1/10000000019")
    assert time.perf_counter() - t0 < 0.5
    assert code == 3
    assert out == ""
    assert json.loads(err)["error"] == "BudgetExceeded"


def _columns_problem(path, factors, shifts):
    """Shifted columns on the product of the intervals `factors`."""
    problem = {
        "version": 1,
        "domain": {"product": [{"boxes": [{"lo": [lo], "hi": [hi]}]} for lo, hi in factors]},
        "pointset": {
            "type": "shifted_columns",
            "shifts": shifts,
            "window": {"lo": ["-1", "-1"], "hi": ["1", "1"]},
        },
    }
    path.write_text(json.dumps(problem))
    return path


@pytest.mark.parametrize(
    "check, factors, shift, code",
    [
        # Ω − Ω = (−1/2, 1/2) × (−2, 2) holds the dual points (0, ±1): the
        # weight 1 + e^{∓2πis} carries the shift
        ("spectrum", [("0", "1/2"), ("0", "2")], 0.6180339887498949, 1),
        ("spectrum", [("0", "1/2"), ("0", "2")], 0.5, 2),
        ("spectrum", [("0", "1/2"), ("0", "2")], "1/2", 0),
        # the same differences (±1, ±s) decide orthogonality, through 1̂_Ω
        ("orthogonality", [("0", "1/2"), ("0", "2")], 0.6180339887498949, 1),
        ("orthogonality", [("0", "1/2"), ("0", "2")], 0.5, 2),
        ("orthogonality", [("0", "1/2"), ("0", "2")], "1/2", 0),
        # (0, 1/2) + Z covers the column axis unevenly, so the shift matters
        ("tiling", [("0", "2"), ("0", "1/2")], "1/2", 0),
        ("tiling", [("0", "2"), ("0", "1/2")], "1/3", 1),
        ("tiling", [("0", "2"), ("0", "1/2")], 0.5, 2),
    ],
    ids=["spectrum_irrational", "spectrum_float_half", "spectrum_half",
         "orthogonality_irrational", "orthogonality_float_half", "orthogonality_half",
         "tiling_half", "tiling_third", "tiling_float_half"],
)
def test_float_shift_pins(tmp_path, capsys, check, factors, shift, code):
    path = _columns_problem(tmp_path / "columns.json", factors, ["0", shift])
    got, out, _ = run(capsys, "verify", check, path)
    assert got == code
    report = json.loads(out)
    if code == 1 and check == "spectrum":
        assert report["verdicts"][0]["witness"]["kind"] == "dual_point"
        assert report["verdicts"][0]["witness"]["xi"] in (["0", "1"], ["0", "-1"])
    if check == "spectrum":
        assert report["certificate"]["all_exact"] is isinstance(shift, str)


@pytest.mark.parametrize("name", ["shifted_columns_rational.json", "shifted_columns_irrational.json"])
def test_shifted_columns_exact_on_every_check(capsys, name):
    # tiling: test_verify_windowed_tiling_*_columns
    for check in ("spectrum", "orthogonality"):
        code, out, _ = run(capsys, "verify", check, FIXTURES / name)
        assert code == 0
        report = json.loads(out)
        assert report["verdicts"][0]["status"] == "holds"
        if check == "spectrum":
            assert report["certificate"]["all_exact"] is True
    # the Poisson field of a periodic set is exact: every defect is 0 up to rounding
    rows = _defect_rows(capsys, FIXTURES / name)
    assert len(rows) == 64 ** 2
    assert all(abs(float(row.rsplit(",", 1)[1])) <= 1e-12 for row in rows)


_DYADIC = st.builds(F, st.integers(-8, 8), st.sampled_from([1, 2, 4, 8]))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    shifts=st.lists(_DYADIC, min_size=1, max_size=4),
    side=st.sampled_from([F(1, 4), F(1, 2), F(1), F(2), F(4)]),
    corner=st.tuples(_DYADIC, _DYADIC),
)
def test_float_shifts_never_beat_rational_shifts(shifts, side, corner):
    """Dyadic shifts as floats are the same numbers as their strings: the
    float verdict is the rational one or inconclusive, never holds where the
    rational one fails."""
    factors = [(str(c), str(c + w)) for c, w in zip(corner, (side, 1 / side))]
    with tempfile.TemporaryDirectory() as tmp:
        exact = _columns_problem(Path(tmp) / "exact.json", factors, [str(x) for x in shifts])
        floats = _columns_problem(Path(tmp) / "floats.json", factors, [float(x) for x in shifts])
        for check in ("spectrum", "tiling"):
            statuses = []
            for path in (exact, floats):
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = main(["verify", check, str(path)])
                status = json.loads(out.getvalue())["verdicts"][0]["status"]
                assert code == {"holds": 0, "fails": 1, "inconclusive": 2}[status]
                statuses.append(status)
            rational, numeric = statuses
            assert rational in ("holds", "fails")
            assert numeric in (rational, "inconclusive")


# One fixture per command-table entry, with the flags it needs.
_COMMAND_RUNS = {
    ("verify", "spectrum"): ("cube1_z.json",),
    ("verify", "tiling"): ("cube1_z.json",),
    ("verify", "orthogonality"): ("two_interval_spectrum.json",),
    ("verify", "opr"): ("two_interval_pair.json",),
    ("verify", "tight-pair"): ("two_interval_pair.json",),
    ("verify", "keller"): ("keller_columns.json",),
    ("verify", "transfer"): ("transfer_cube.json",),
    ("verify", "duality"): ("duality_cube.json",),
    ("search", "spectra"): ("cube1_search.json",),
    ("search", "tilings"): ("two_interval_search.json",),
    ("search", "duality-scan"): ("two_interval_pair_search.json",),
    ("scan", "power"): ("cube1_z.json", "--range", "-1:1:5"),
    ("scan", "defect"): ("cube1_z.json", "--grid", "8"),
}


def test_every_parser_choice_is_a_command_table_entry():
    (commands,) = [a for a in spectile.cli.build_parser()._actions if a.dest == "command"]
    entries = {(command, name) for command, table in spectile.cli._COMMANDS.items() for name in table}
    choices = {
        (command, name)
        for command, parser in commands.choices.items()
        for action in parser._actions
        if action.dest == "name"
        for name in action.choices
    }
    assert choices == entries == _COMMAND_RUNS.keys()


@pytest.mark.parametrize("command, name", sorted(_COMMAND_RUNS))
def test_every_command_table_entry_runs_on_a_fixture(capsys, command, name):
    fixture, *flags = _COMMAND_RUNS[command, name]
    argv = [command, FIXTURES / fixture, "--profile", name] if command == "scan" else [command, name, FIXTURES / fixture]
    code, out, err = run(capsys, *argv, *flags)
    assert (code, err) == (0, "")
    if command == "scan":
        rows = out.splitlines()
        assert len(rows) in (5, 8) and all(len(row.split(",")) == 2 for row in rows)
    else:
        report = json.loads(out)
        assert report["command"] == f"{command} {name}"
        assert all(v["status"] == "holds" for v in report["verdicts"])
        assert report.get("count", 1) > 0


def test_skew_basis_is_eliminated_once(monkeypatch, tmp_path, capsys):
    # the basis [[1, 1/4], [0, 1]] is inverted, and its determinant read, by
    # one Gauss-Jordan pass that every later use of the lattice shares
    basis = ((F(1), F(1, 4)), (F(0), F(1)))
    solved = []

    def counted(m):
        solved.append(m)
        return spectile.exact.mat_inv(m)

    monkeypatch.setattr(spectile.lattice, "mat_inv", counted)
    obj = json.loads((FIXTURES / "keller_columns.json").read_text())
    obj["pointset"] = {"type": "periodic", "basis": [["1", "1/4"], ["0", "1"]], "reps": [["0", "0"]]}
    path = tmp_path / "skew.json"
    path.write_text(json.dumps(obj))
    code, out, _ = run(capsys, "verify", "orthogonality", path)
    assert code == 0
    assert json.loads(out)["verdicts"][0]["status"] == "holds"
    assert solved.count(basis) == 1


_BEYOND_FLOATS = "1" + "0" * 400  # 10⁴⁰⁰, past the largest float


_WINDOW_AT_ZERO = {"type": "window", "points": [["0"]], "window": {"lo": ["-2"], "hi": ["2"]}}
# Ω = (0, 1) with a float point beside an exact one past the float range
_FLOAT_BESIDE_HUGE = {"type": "window", "points": [[0.5], ["1e400"]], "window": {"lo": ["-1"], "hi": ["1e401"]}}


@pytest.mark.parametrize(
    "command, flags, pointset, hi",
    [
        pytest.param(
            ["scan"],
            ["--profile", "power", "--range", "0:1:3"],
            {"type": "periodic", "basis": [[_BEYOND_FLOATS]], "reps": [["0"]]},
            _BEYOND_FLOATS,
            id="scan_power",
        ),
        pytest.param(["verify", "spectrum"], [], _WINDOW_AT_ZERO, _BEYOND_FLOATS, id="verify_spectrum"),
        pytest.param(["verify", "tiling"], [], _WINDOW_AT_ZERO, _BEYOND_FLOATS, id="verify_tiling"),
        pytest.param(
            ["scan"], ["--profile", "defect", "--grid", "4"], _WINDOW_AT_ZERO, _BEYOND_FLOATS, id="scan_defect"
        ),
        pytest.param(["verify", "orthogonality"], [], _FLOAT_BESIDE_HUGE, "1", id="verify_orthogonality"),
    ],
)
def test_coordinate_beyond_float_range_exit3(tmp_path, capsys, command, flags, pointset, hi):
    # Ω = (0, hi): the numeric routes cannot turn a coordinate of 10⁴⁰⁰ into a float
    obj = {"version": 1, "domain": {"boxes": [{"lo": ["0"], "hi": [hi]}]}, "pointset": pointset}
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, *command, path, *flags)
    assert (code, out) == (3, "")
    assert json.loads(err)["error"] == "SpectileError"
    if pointset["type"] == "periodic":
        # the exact route decides the same domain and lattice: Ω + 10⁴⁰⁰·Z tiles
        assert run(capsys, "verify", "tiling", path)[0] == 0


def test_scan_range_budget_refuses_before_any_sample(monkeypatch, capsys):
    def must_not_run(*args):
        raise AssertionError("a sample was evaluated past the budget")

    monkeypatch.setattr(spectile.cli, "power_spectrum", must_not_run)
    argv = ["scan", FIXTURES / "cube1_z.json", "--profile", "power"]
    code, out, err = run(capsys, *argv, "--range", f"0:1:{BUDGETS['grid_points'][0] + 1}")
    assert (code, out) == (3, "")
    assert json.loads(err)["error"] == "BudgetExceeded"


@pytest.mark.parametrize(
    "check, interval, pointset",
    [
        # the exact level 10⁴⁰⁰ of Ω + Z is no float margin
        pytest.param(
            "tiling", ("0", _BEYOND_FLOATS), {"type": "periodic", "basis": [["1"]], "reps": [["0"]]}, id="tiling_level"
        ),
        # the witness 10⁴⁰⁰ + 1 ∉ 2Z has no float |1̂_Ω|
        pytest.param(
            "orthogonality",
            ("0", "1/2"),
            {"type": "periodic", "basis": [[str(10**400 + 1)]], "reps": [["0"]]},
            id="orthogonality_witness",
        ),
        # the phase 2π·ξ·lo of the difference ξ = −1e306 overflows
        pytest.param(
            "orthogonality",
            ("1000", "1001"),
            {"type": "window", "points": [[0.0], [1e306]], "window": {"lo": ["-1"], "hi": [str(10**307)]}},
            id="orthogonality_phase",
        ),
    ],
)
def test_value_beyond_float_range_is_refused(tmp_path, capsys, check, interval, pointset):
    lo, hi = interval
    obj = {"version": 1, "domain": {"boxes": [{"lo": [lo], "hi": [hi]}]}, "pointset": pointset}
    path = tmp_path / "beyond.json"
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, "verify", check, path)
    assert (code, out) == (3, "")
    assert json.loads(err)["error"] == "SpectileError"


# Ω = (−½, ½) with the float translate 1e308 in the window (0, 1.5·10³⁰⁸):
# the kernel's phase π·w·u overflows to −inf
_FAR_TRANSLATE = {
    "domain": {"boxes": [{"lo": ["-1/2"], "hi": ["1/2"]}]},
    "pointset": {"type": "window", "points": [[1e308]], "window": {"lo": ["0"], "hi": [str(15 * 10**307)]}},
}
# Ω = (10³⁰⁸, 1.5·10³⁰⁸): its midpoint overflows, and |1̂_Ω(0)|² ≈ 2.5·10⁶¹⁵ is no float
_FAR_INTERVAL = {"domain": {"boxes": [{"lo": [str(10**308)], "hi": [str(15 * 10**307)]}]}}
# (0, 1.1·10³⁰⁸) × (0, 10⁻³⁰⁰) on diag(10⁻³⁰⁸, 10³⁰⁰): the dual point (10³⁰⁸, 0)
# has a finite Poisson term, but its phase 2π·x·10³⁰⁸ overflows at x = ½
_FAR_DUAL = {
    "domain": {"boxes": [{"lo": ["0", "0"], "hi": [str(11 * 10**307), f"1/{10**300}"]}]},
    "pointset": {"type": "periodic", "basis": [[f"1/{10**308}", "0"], ["0", str(10**300)]], "reps": [["0", "0"]]},
}


# Ω = (0, 10²⁰⁰) with the window list {0} in (−1, 1): the squared amplitude
# 10⁴⁰⁰ of the kernel's one translate overflows
_WIDE_BOX = {
    "domain": {"boxes": [{"lo": ["0"], "hi": [str(10**200)]}]},
    "pointset": {"type": "window", "points": [[0.0]], "window": {"lo": ["-1"], "hi": ["1"]}},
}


@pytest.mark.parametrize(
    "problem, command, flags",
    [
        pytest.param(_FAR_TRANSLATE, ["verify", "spectrum"], [], id="verify_spectrum"),
        pytest.param(_WIDE_BOX, ["verify", "spectrum"], [], id="verify_spectrum_squares"),
        pytest.param(_WIDE_BOX, ["scan"], ["--profile", "defect", "--grid", "2"], id="scan_defect_squares"),
        pytest.param(_FAR_TRANSLATE, ["scan"], ["--profile", "defect", "--grid", "4"], id="scan_defect"),
        pytest.param(_FAR_INTERVAL, ["scan"], ["--profile", "power", "--range", "0:5e-324:2"], id="scan_power"),
        pytest.param(_FAR_DUAL, ["scan"], ["--profile", "defect", "--grid", "2"], id="scan_poisson"),
    ],
)
def test_non_finite_field_is_refused(tmp_path, capsys, problem, command, flags):
    # each of these once printed NaN, the kernel's with numpy warnings on stderr
    path = tmp_path / "far.json"
    path.write_text(json.dumps({"version": 1, **problem}))
    code, out, err = run(capsys, *command, path, *flags)
    assert (code, out) == (3, "")
    assert json.loads(err)["error"] == "SpectileError"


_SQUARE = {"boxes": [{"lo": ["0", "0"], "hi": ["1", "1"]}]}


@pytest.mark.parametrize(
    "negative, positive",
    [((("-1", "0"), ("0", "1")), (("1", "0"), ("0", "1"))), ((("-1", "0"), ("0", "-1/2")), (("1", "0"), ("0", "1/2")))],
    ids=["tiling_lattice", "double_density"],
)
def test_negative_diagonal_basis_reports_as_its_positive_twin(tmp_path, capsys, negative, positive):
    # a diagonal basis with negative entries spans the lattice of its absolute
    # values, so every check and the defect scan give the same bytes
    def outputs(basis) -> list:
        pointset = {"type": "periodic", "basis": basis, "reps": [["0", "0"]]}
        problem = tmp_path / "problem.json"
        problem.write_text(json.dumps({"version": 1, "domain": _SQUARE, "pointset": pointset, "packing_region": _SQUARE}))
        tiles = tmp_path / "tiles.json"
        f, g = ({"kind": kind, "domain": _SQUARE} for kind in ("indicator", "power_spectrum"))
        tiles.write_text(json.dumps({"version": 1, "f": f, "g": g, "pointset": pointset}))
        runs = []
        for check, (fields, _) in spectile.cli._COMMANDS["verify"].items():
            runs.append(run(capsys, "verify", check, tiles if "f" in fields else problem)[:2])
        return runs + [run(capsys, "scan", problem, "--profile", "defect", "--grid", "3")[:2]]

    assert outputs(negative) == outputs(positive)


@pytest.mark.parametrize("check", ["keller", "duality", "transfer"])
def test_exact_harness_refuses_a_point_list(tmp_path, capsys, check):
    # Ω = (−½, ½) is its own tight partner, so each check gets as far as Λ,
    # which a point list only windows
    interval = {"boxes": [{"lo": ["-1/2"], "hi": ["1/2"]}]}
    points = {"type": "window", "points": [["0"]], "window": {"lo": ["-1"], "hi": ["1"]}}
    if check == "transfer":
        tiles = {"f": {"kind": "indicator", "domain": interval}, "g": {"kind": "power_spectrum", "domain": interval}}
    else:
        tiles = {"domain": interval, "packing_region": interval}
    path = tmp_path / "points.json"
    path.write_text(json.dumps({"version": 1, **tiles, "pointset": points}))
    code, out, err = run(capsys, "verify", check, path)
    assert (code, out) == (3, "")
    assert json.loads(err)["error"] == "IrrationalData"
