import cmath
import hashlib
import itertools
import json
import math
import os
import random
import subprocess
import sys

import mpmath
import pytest

import hypcatenoid
from hypcatenoid import (
    Tolerance,
    area_difference,
    circle_pair,
    gomes_rho,
    plane_distance,
    plane_separation,
    tube_area,
)
from hypcatenoid.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConstantsCommand:
    def test_text_output(self, capsys, bundle):
        code, out, err = run_cli(capsys, "constants")
        assert code == 0 and err == ""
        lines = out.splitlines()
        assert len(lines) == 7
        parsed = {}
        for line in lines:
            name, _, value = line.partition(" = ")
            parsed[name.strip()] = float(value)
        assert list(parsed) == [
            "K", "a_c", "two_rho_ac", "a_0", "a_l", "a_L", "two_rho_aL",
        ]
        assert parsed["K"] == pytest.approx(0.40093, abs=5e-5)
        assert parsed["a_L"] == pytest.approx(0.847486, abs=1e-5)

    def test_json_matches_bundle(self, capsys, bundle):
        code, out, err = run_cli(capsys, "constants", "--json")
        assert code == 0
        report = json.loads(out)
        # The default CLI tolerance matches the session fixture, so the
        # cached bundle is reused and the floats agree bit for bit.
        assert report["K"] == bundle.K
        assert report["a_c"] == bundle.a_c
        assert report["two_rho_ac"] == bundle.two_rho_ac
        assert report["a_0"] == bundle.a_0
        assert report["a_l"] == bundle.a_l
        assert report["a_L"] == bundle.a_L
        assert report["two_rho_aL"] == bundle.two_rho_aL

    def test_tolerance_consistency(self, capsys):
        _, out6, _ = run_cli(capsys, "constants", "--json", "--tol", "1e-6")
        _, out8, _ = run_cli(capsys, "constants", "--json", "--tol", "1e-8")
        loose = json.loads(out6)
        tight = json.loads(out8)
        for name in ("K", "a_c", "a_0", "a_l", "a_L"):
            assert loose[name] == pytest.approx(tight[name], abs=1e-6)

    def test_loose_tolerance(self, capsys):
        # The constants are closed forms or roots of closed forms, so even a
        # tolerance of 10 leaves them exact.
        code, out, _ = run_cli(capsys, "constants", "--tol", "10")
        assert code == 0
        lines = out.splitlines()
        assert "a_0        = 0.287190817189" in lines
        assert "a_L        = 0.847485601949" in lines

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "constants.txt"
        code, out, _ = run_cli(capsys, "constants", "--out", str(path))
        assert code == 0 and out == ""
        assert len(path.read_text().splitlines()) == 7


class TestSweepCommand:
    def test_rho_sweep(self, capsys, bundle):
        code, out, _ = run_cli(capsys, "sweep", "rho")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "a,value"
        rows = [tuple(map(float, line.split(","))) for line in lines[1:]]
        assert len(rows) == 300
        assert rows[0][0] == pytest.approx(0.01)
        assert rows[-1][0] == pytest.approx(3.0)
        assert all(value > 0.0 for _, value in rows)
        argmax_a = max(rows, key=lambda row: row[1])[0]
        assert argmax_a == pytest.approx(bundle.a_c, abs=1e-2)

    def test_phi_sweep_single_sign_change(self, capsys, bundle):
        code, out, _ = run_cli(
            capsys, "sweep", "phi", "--lo", "0.01", "--hi", "0.9", "--n", "90"
        )
        assert code == 0
        rows = [
            tuple(map(float, line.split(",")))
            for line in out.splitlines()[1:]
        ]
        flips = [
            0.5 * (a1 + a2)
            for (a1, v1), (a2, v2) in zip(rows, rows[1:])
            if (v1 > 0.0) != (v2 > 0.0)
        ]
        assert len(flips) == 1
        assert flips[0] == pytest.approx(bundle.a_L, abs=0.015)

    def test_zero_abscissa_allowed(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "rho", "--lo", "0", "--hi", "1", "--n", "2"
        )
        assert code == 0
        assert out.splitlines()[1] == "0,0"

    def test_last_point_is_hi(self, capsys):
        # 0.001 + 3 * ((25 - 0.001) / 3) rounds to 25.000000000000004,
        # past rho's domain.
        args = ("sweep", "rho", "--lo", "0.001", "--hi", "25", "--n", "4")
        code, out, err = run_cli(capsys, *args)
        assert code == 0, err
        assert out.splitlines()[-1].startswith("25,")
        code, out, _ = run_cli(capsys, *args, "--json")
        assert json.loads(out)["abscissas"][-1] == 25.0

    def test_json_payload(self, capsys, bundle):
        code, out, _ = run_cli(
            capsys,
            "sweep", "rho", "--lo", "0.3", "--hi", "0.7", "--n", "41", "--json",
        )
        assert code == 0
        report = json.loads(out)
        assert report["quantity"] == "rho"
        # Without --tol the CLI runs at the library's default tolerance.
        assert report["tolerance"] == Tolerance().abs_tol == 1e-10
        assert len(report["abscissas"]) == 41
        assert len(report["values"]) == 41
        assert report["argmax_a"] == pytest.approx(bundle.a_c, abs=1e-2)

    def test_deterministic_out_files(self, capsys, tmp_path):
        path1 = tmp_path / "one.csv"
        path2 = tmp_path / "two.csv"
        args = ("sweep", "rho", "--lo", "0.1", "--hi", "1.0", "--n", "10")
        assert run_cli(capsys, *args, "--out", str(path1))[0] == 0
        assert run_cli(capsys, *args, "--out", str(path2))[0] == 0
        assert path1.read_bytes() == path2.read_bytes()

    def test_bad_range(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "rho", "--lo", "2", "--hi", "1")
        assert code == 2
        assert "error:" in err

    def test_infinite_hi(self, capsys):
        code, _, err = run_cli(
            capsys, "sweep", "phi", "--lo", "0", "--hi", "inf", "--n", "3"
        )
        assert code == 2
        assert "hi must be finite" in err

    def test_bad_count(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "rho", "--n", "1")
        assert code == 2


class TestClassifyCommand:
    def test_by_neck(self, capsys, bundle):
        code, out, _ = run_cli(capsys, "classify", "--a", "0.6")
        assert code == 0
        report = json.loads(out)
        assert report["mode"] == "neck"
        assert report["a"] == 0.6
        assert report["kind"] == "stable_not_minimizing"
        assert report["at_a_c"] is False and report["at_a_L"] is False
        assert 0.9 < report["separation"] < 1.0
        assert report["bundle"]["a_c"] == bundle.a_c

    def test_by_separation_two_solutions(self, capsys, bundle):
        code, out, _ = run_cli(capsys, "classify", "--distance", "0.8")
        assert code == 0
        report = json.loads(out)
        assert report["mode"] == "separation"
        assert report["distance"] == 0.8
        kinds = [entry["kind"] for entry in report["solutions"]]
        assert kinds == ["unstable", "area_minimizing"]
        assert report["solutions"][0]["a"] < bundle.a_c < report["solutions"][1]["a"]

    def test_by_separation_middle_pair(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--distance", "0.95")
        report = json.loads(out)
        kinds = [entry["kind"] for entry in report["solutions"]]
        assert kinds == ["unstable", "stable_not_minimizing"]

    def test_by_separation_tiny(self, capsys, tol):
        code, out, _ = run_cli(capsys, "classify", "--distance", "1e-6")
        assert code == 0
        report = json.loads(out)
        kinds = [entry["kind"] for entry in report["solutions"]]
        assert kinds == ["unstable", "area_minimizing"]
        a_inner = report["solutions"][0]["a"]
        # Root within its rounding band and 2 rho exact to rounding.
        assert abs(2.0 * gomes_rho(a_inner, tol) - 1e-6) <= 1e-13 * 1e-6

    def test_by_separation_outer_bracket(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--distance", "1e-7")
        assert code == 0
        solutions = json.loads(out)["solutions"]
        assert [entry["kind"] for entry in solutions] == ["unstable", "area_minimizing"]
        assert solutions[1]["a"] == pytest.approx(16.99201, abs=1e-5)
        # Below 2 rho(25) ~ 3.3e-11 the outer root is not sought.
        for d in ("1e-11", "1e-310", "5e-324"):
            code, _, err = run_cli(capsys, "classify", "--distance", d)
            assert code == 2
            assert "error: outer branch" in err

    @pytest.mark.parametrize("argv", [
        ("--distance", "inf"),
        ("--distance", "5", "--tol", "inf"),
    ])
    def test_by_separation_non_finite(self, capsys, argv):
        # JSON has no Infinity, and an infinite tie window would report the
        # critical catenoid for any separation, however far past 2 rho(a_c).
        code, out, err = run_cli(capsys, "classify", *argv)
        assert code == 2 and out == ""
        assert "must be positive and finite, got inf" in err

    def test_by_separation_empty(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--distance", "1.5")
        assert code == 0
        assert json.loads(out)["solutions"] == []

    def test_by_circles(self, capsys):
        code, out, _ = run_cli(
            capsys, "classify", "--circles", "0,0,1", "0,0,7.389056"
        )
        assert code == 0
        report = json.loads(out)
        assert report["mode"] == "circles"
        assert report["distance"] == pytest.approx(2.0, abs=1e-5)
        assert report["solutions"] == []

    def test_negative_circle_coordinates(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--circles", "-1,0,1", "-1,0,2.2")
        assert code == 0
        shifted = json.loads(out)
        code, out, _ = run_cli(capsys, "classify", "--circles", "1,0,1", "1,0,2.2")
        assert code == 0
        reference = json.loads(out)
        assert shifted["distance"] == pytest.approx(0.78845736, abs=1e-8)
        assert shifted["distance"] == reference["distance"]
        assert shifted["solutions"] == reference["solutions"]

    def test_small_far_circle(self, capsys):
        # Distance acosh((x^2 - 1 - r^2) / 2r) from the unit circle.
        code, out, _ = run_cli(capsys, "classify", "--circles", "0,0,1", "10000,0,0.05")
        assert code == 0
        reference = math.acosh((1e8 - 1.0 - 0.0025) / 0.1)
        assert json.loads(out)["distance"] == pytest.approx(reference, rel=1e-13)

    @pytest.mark.parametrize("offset", (0.0, 3000.0, 1e4))
    def test_far_pair_keeps_its_distance(self, capsys, offset):
        # Two radius-0.05 circles 0.13 apart, moved by offset across the
        # line of their centres, at distance 1.51286582171391910... (one ulp
        # below the output):
        # built where they stand, the pair read 1.5128658217139368 at the
        # origin, 1.31696 at 3,000 and "intersecting" at 10**4.
        circles = (f"0,{offset!r},0.05", f"0.13,{offset!r},0.05")
        code, out, _ = run_cli(capsys, "classify", "--circles", *circles)
        assert code == 0
        assert json.loads(out)["distance"] == 1.5128658217139193

    def test_far_pairs_against_closed_form(self, capsys):
        # acosh(||c1 - c2|**2 - r1**2 - r2**2| / (2 r1 r2)) for separated and
        # nested pairs moved out to 10**6, with the centres' difference taken
        # exactly from the doubles the command line receives.
        rng = random.Random(20061)
        for _ in range(120):
            r1, r2 = 10.0 ** rng.uniform(-3, 0), 10.0 ** rng.uniform(-3, 0)
            if rng.random() < 0.5:
                span = (r1 + r2) * (1.0 + 10.0 ** rng.uniform(-2, 1))
            else:
                span = abs(r1 - r2) * rng.uniform(0.0, 0.9)
            c1 = cmath.rect(10.0 ** rng.uniform(0, 6), rng.uniform(0, 2 * math.pi))
            c2 = c1 + cmath.rect(span, rng.uniform(0, 2 * math.pi))
            code, out, _ = run_cli(
                capsys,
                "classify",
                "--circles",
                f"{c1.real!r},{c1.imag!r},{r1!r}",
                f"{c2.real!r},{c2.imag!r},{r2!r}",
            )
            assert code == 0
            with mpmath.workdps(40):
                gap = abs(mpmath.mpc(c2) - mpmath.mpc(c1)) ** 2
                arg = abs(gap - mpmath.mpf(r1) ** 2 - mpmath.mpf(r2) ** 2) / (2 * r1 * r2)
                reference = float(mpmath.acosh(arg))
            assert json.loads(out)["distance"] == pytest.approx(reference, rel=1e-13)
            pair = circle_pair(c1, r1, c2, r2)
            assert plane_distance(*pair) == pytest.approx(reference, rel=1e-13)

    def test_near_coincident_circles(self, capsys):
        # |p| - 1 = 5e-15 here, below the margin once used to decide tangency.
        code, out, _ = run_cli(capsys, "classify", "--circles", "0,0,1", "0,0,1.0000001")
        assert code == 0
        distance = json.loads(out)["distance"]
        assert distance == pytest.approx(math.log(1.0000001), rel=1e-14)

    def test_intersecting_circles(self, capsys):
        code, _, err = run_cli(capsys, "classify", "--circles", "0,0,1", "0.5,0,1")
        assert code == 2
        assert "error:" in err

    def test_malformed_circle_literal(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["classify", "--circles", "0,0", "0,0,2"])
        assert excinfo.value.code == 1
        with pytest.raises(SystemExit) as excinfo:
            main(["classify", "--circles", "0,0,x", "0,0,2"])
        assert excinfo.value.code == 1
        assert "non-numeric circle literal '0,0,x'" in capsys.readouterr().err

    def test_requires_exactly_one_mode(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["classify"])
        assert excinfo.value.code == 1
        with pytest.raises(SystemExit) as excinfo:
            main(["classify", "--a", "0.5", "--distance", "0.8"])
        assert excinfo.value.code == 1


class TestCatenaryCommand:
    def test_csv_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "catenary", "--a", "0.5", "--y-max", "2.0", "--n", "20"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "x,y"
        assert lines[1] == "0,0.5"
        rows = [tuple(map(float, line.split(","))) for line in lines[1:]]
        assert len(rows) == 20
        assert all(y2 > y1 for (_, y1), (_, y2) in zip(rows, rows[1:]))
        assert all(x2 > x1 for (x1, _), (x2, _) in zip(rows, rows[1:]))

    def test_bad_span(self, capsys):
        code, _, err = run_cli(capsys, "catenary", "--a", "0.5", "--y-max", "0.4")
        assert code == 2

    def test_infinite_y_max(self, capsys):
        code, out, err = run_cli(
            capsys, "catenary", "--a", "0.6", "--y-max", "inf", "--n", "3"
        )
        assert code == 2
        assert out == "" and "y_max" in err


class TestCompeteCommand:
    def test_witness_found(self, capsys):
        code, out, _ = run_cli(capsys, "compete", "--a", "0.6", "--r", "3", "--json")
        assert code == 0
        report = json.loads(out)
        assert report["witness"] is True
        assert report["margin"] > 0.0
        assert 0.0 < report["s"] < 0.6

    def test_no_witness(self, capsys):
        code, out, _ = run_cli(capsys, "compete", "--a", "1.0", "--r", "3", "--json")
        assert code == 0
        report = json.loads(out)
        assert report["witness"] is False
        assert report["s"] is None and report["margin"] is None

    @pytest.mark.parametrize("argv", [
        ("--a", "0.6", "--r", "3"),
        ("--a", "1.0", "--r", "3"),
        ("--a", "0.6", "--r", "3", "--s", "0.05"),
    ])
    def test_key_order(self, capsys, argv):
        # The report holds no a or r; the command puts the caller's first.
        keys = ["a", "r", "s", "area_catenoid", "area_competitor", "margin", "witness"]
        code, out, _ = run_cli(capsys, "compete", *argv, "--json")
        assert code == 0
        report = json.loads(out)
        assert list(report) == keys
        assert (report["a"], report["r"]) == (float(argv[1]), 3.0)
        code, out, _ = run_cli(capsys, "compete", *argv)
        assert code == 0
        assert [line.split(" = ")[0] for line in out.splitlines()] == keys

    def test_fixed_cylinder_height(self, capsys):
        code, out, _ = run_cli(
            capsys, "compete", "--a", "0.6", "--r", "3", "--s", "0.05", "--json"
        )
        assert code == 0
        report = json.loads(out)
        assert report["margin"] == pytest.approx(0.42652908564463, abs=1e-6)
        assert report["area_catenoid"] == pytest.approx(
            tube_area(0.6, 3.0), abs=1e-9
        )

    @pytest.mark.parametrize("r", ["30", "40", "60", "1000"])
    def test_witness_at_large_radius(self, capsys, r):
        code, out, _ = run_cli(capsys, "compete", "--a", "0.6", "--r", r)
        assert code == 0
        assert "witness = True" in out
        assert "margin = 0.722454639189\n" in out

    @pytest.mark.parametrize("r", ["30", "40", "60", "1000"])
    def test_fixed_cylinder_height_at_large_radius(self, capsys, r):
        s = 0.6 / 2**20
        code, out, _ = run_cli(
            capsys, "compete", "--a", "0.6", "--r", r, "--s", repr(s), "--json"
        )
        assert code == 0
        report = json.loads(out)
        phi = area_difference(0.6, float(r))
        L = plane_separation(0.6, float(r))
        expected = (
            phi
            - math.pi * L * math.sinh(2.0 * s)
            + 4.0 * math.pi * (math.cosh(s) - 1.0)
        )
        assert report["witness"] is True
        assert abs(report["margin"] - expected) <= 1e-12

    def test_text_mode(self, capsys):
        code, out, _ = run_cli(capsys, "compete", "--a", "1.0", "--r", "3")
        assert code == 0
        assert "witness = False" in out

    def test_fixed_cylinder_that_loses(self, capsys):
        code, out, _ = run_cli(
            capsys, "compete", "--a", "1.0", "--r", "3", "--s", "0.5", "--json"
        )
        assert code == 0
        report = json.loads(out)
        assert report["s"] == 0.5 and report["margin"] < 0.0
        assert report["witness"] is False

    def test_bad_geometry(self, capsys):
        code, _, err = run_cli(capsys, "compete", "--a", "0.6", "--r", "0.5")
        assert code == 2

    def test_underflowed_tube(self, capsys):
        # Phi is defined there, but the profile floor stops the search.
        code, out, err = run_cli(capsys, "compete", "--a", "1e-310", "--r", "1e-300")
        assert code == 2 and out == ""
        assert err == (
            "error: neck distance 1e-310 is below 2.81264e-103, "
            "the smallest the profile x(y) supports\n"
        )


@pytest.mark.parametrize(
    "argv",
    [
        ("compete", "--r", "1"),
        ("catenary", "--y-max", "1", "--n", "3"),
        ("mesh", "--y-max", "1", "--n-profile", "3", "--n-angle", "4", "--out", "m.obj"),
    ],
)
def test_smallest_neck(capsys, monkeypatch, tmp_path, argv):
    # The profile x(y) supports necks down to about 2.8e-103.
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, *argv, "--a", "1e-100")
    assert code == 0 and err == "" and "nan" not in out and "inf" not in out
    code, out, err = run_cli(capsys, *argv, "--a", "1e-200")
    assert code == 2 and out == ""
    assert err == (
        "error: neck distance 1e-200 is below 2.81264e-103, "
        "the smallest the profile x(y) supports\n"
    )


class TestMeshCommand:
    def test_export(self, capsys, tmp_path):
        path = tmp_path / "tube.obj"
        code, out, _ = run_cli(
            capsys,
            "mesh", "--a", "0.6", "--y-max", "2.0",
            "--n-profile", "6", "--n-angle", "8",
            "--out", str(path),
        )
        assert code == 0
        assert "wrote" in out and "88 vertices" in out
        assert path.exists()

    def test_json_summary(self, capsys, tmp_path):
        path = tmp_path / "tube.obj"
        code, out, _ = run_cli(
            capsys,
            "mesh", "--a", "0.6", "--y-max", "2.0",
            "--n-profile", "6", "--n-angle", "8",
            "--out", str(path), "--json",
        )
        assert code == 0
        report = json.loads(out)
        assert report["vertices"] == 88
        assert report["faces"] == 160

    def test_missing_out(self, capsys):
        code, _, err = run_cli(capsys, "mesh", "--a", "0.6", "--y-max", "2.0")
        assert code == 1
        assert "--out" in err

    def test_bad_span(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys,
            "mesh", "--a", "0.6", "--y-max", "0.5", "--out", str(tmp_path / "x.obj"),
        )
        assert code == 2

    def test_y_max_past_cosh_overflow(self, capsys, tmp_path):
        path = tmp_path / "far.obj"
        code, _, _ = run_cli(
            capsys, "mesh", "--a", "0.6", "--y-max", "1000", "--out", str(path)
        )
        assert code == 0
        text = path.read_text()
        assert "nan" not in text and "inf" not in text

    def test_infinite_y_max(self, capsys, tmp_path):
        path = tmp_path / "x.obj"
        code, _, err = run_cli(
            capsys, "mesh", "--a", "0.6", "--y-max", "inf", "--out", str(path)
        )
        assert code == 2
        assert "y_max" in err and not path.exists()


class TestUsageErrors:
    def test_no_arguments(self):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 1

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 1

    def test_invalid_tolerance(self, capsys):
        for argv in (("constants", "--tol", "-1"), ("constants", "--tol", "inf"),
                     ("sweep", "rho", "--json", "--tol", "inf")):
            code, out, err = run_cli(capsys, *argv)
            assert code == 2 and out == "", argv
            assert f"error: abs_tol must be positive and finite, got {float(argv[-1])}" in err


# One valid command per code path, with the numeric options it takes and
# their valid values; the sweep below swaps in each edge value in turn.
EDGE_VALUES = (
    "0", "5e-324", "1e-310", "1e-200", "1e-103", "25", "26", "710", "1e308",
    "inf", "nan", "-1",
)
EDGE_COMMANDS = (
    ("constants", {}),
    ("sweep rho", {"--lo": "0.1", "--hi": "1", "--n": "3"}),
    ("sweep phi", {"--lo": "0.1", "--hi": "1", "--n": "3"}),
    ("classify", {"--a": "0.6"}),
    ("classify", {"--distance": "0.8"}),
    ("catenary", {"--a": "0.5", "--y-max": "2", "--n": "3"}),
    ("compete", {"--a": "0.6", "--r": "3"}),
    ("compete", {"--a": "0.6", "--r": "3", "--s": "0.05"}),
    ("mesh", {"--a": "0.6", "--y-max": "2", "--n-profile": "4", "--n-angle": "4"}),
)
CIRCLES = ("0", "0", "1", "0", "0", "2.2")
# Finite positive circles whose chart vector, or whose ratio r2/r1 after
# circle_pair moves the first onto the unit circle, leaves the double range.
CHART_LIMITS = (
    ("0,0,1", "0,0,1e-310"),
    ("0,0,1e-310", "0,0,2.2"),
    ("0,0,1e300", "1,0,1e-300"),
    ("0,0,1e300", "0,0,1e-9"),
)


INTEGER_OPTIONS = ("--n", "--n-profile", "--n-angle")


def option_edges(values, integers=True):
    """Each command with one numeric option, or one circle field, at each value."""
    for words, options in EDGE_COMMANDS:
        options = {**options, "--tol": "1e-10"}
        out = ["--out", "m.obj"] if words == "mesh" else []
        for option in options:
            if option in INTEGER_OPTIONS and not integers:
                continue
            for value in values:
                argv = words.split() + out
                for name, default in options.items():
                    argv += [name, value if name == option else default]
                yield argv
    for i in range(len(CIRCLES)):
        for value in values:
            numbers = CIRCLES[:i] + (value,) + CIRCLES[i + 1:]
            yield ["classify", "--circles", ",".join(numbers[:3]), ",".join(numbers[3:])]


def edge_commands():
    yield from option_edges(EDGE_VALUES)
    for pair in CHART_LIMITS:
        yield ["classify", "--circles", *pair]
    # A tube whose T = sinh(r - a) sinh(r + a) underflows needs a tiny neck
    # and a tiny radius together, so compete's two also go crossed.
    for a, r in itertools.product(EDGE_VALUES, repeat=2):
        yield ["compete", "--a", a, "--r", r]


def test_edge_values(capsys, monkeypatch, tmp_path):
    # Every failure is a typed error that names its cause, or a usage error
    # for a value argparse rejects (a float given to an integer option).
    monkeypatch.chdir(tmp_path)
    untyped = ("float division by zero", "math range error", "math domain error")
    commands = 0
    for argv in edge_commands():
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
            assert code == 1, argv
        err = capsys.readouterr().err
        assert code in (0, 1, 2), argv
        assert not any(message in err for message in untyped), (argv, err)
        commands += 1
    assert commands > 400


@pytest.mark.parametrize(
    "argv",
    list(option_edges(
        ("0", "-1", "5e-324", "1e-200", "25", "25.000000000000004", "1e308", "inf", "nan"),
        integers=False,
    )),
    ids=" ".join,
)
def test_float_option_edges(capsys, monkeypatch, tmp_path, argv):
    # main names every failure it expects as a ValueError or RuntimeError
    # subclass and maps it to exit 2; any other error propagates here.  The
    # parser rejects a circle radius that is not positive (exit 1).
    monkeypatch.chdir(tmp_path)
    try:
        code = main(argv)
    except SystemExit as exc:
        assert exc.code == 1
        assert "radius must be positive" in capsys.readouterr().err
        return
    err = capsys.readouterr().err
    assert code in (0, 2)
    assert err.startswith("error: ") if code else err == ""


@pytest.mark.parametrize("pair", CHART_LIMITS, ids=" ".join)
def test_chart_limits_name_their_cause(capsys, pair):
    code, _, err = run_cli(capsys, "classify", "--circles", *pair)
    assert code == 2
    assert "radius ratio r2/r1" in err
    assert not any(word in err for word in ("intersect", "finite", "positive")), err


class TestModuleEntryPoint:
    def test_subprocess_smoke(self):
        # The child imports the same package as this process, installed or not.
        package_root = os.path.dirname(os.path.dirname(hypcatenoid.__file__))
        path = os.pathsep.join(filter(None, (package_root, os.environ.get("PYTHONPATH"))))
        result = subprocess.run(
            [sys.executable, "-m", "hypcatenoid", "constants"],
            capture_output=True,
            text=True,
            timeout=300,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert result.returncode == 0
        assert "a_L" in result.stdout


# Every README "Command line" example, more writer paths and the error
# cases, each pinned as the sha256 of its exit code, stdout, stderr and
# every file it leaves in its working directory.
GOLDEN = {
    "constants":
        "39cd2c79a0917483cbbbabcb0e495f604994b96a7e3b88418b6a6544b4fc0fbd",
    "constants --json":
        "9102bb890c522c1e094a1ea90efb5f962d7d4762e64cfff637b58b824fc1063f",
    "sweep rho --lo 0.01 --hi 3 --n 300":
        "fc59ffcb666a92ceb0b4fee640d5e4190ebbf83104578cd9e7b6a9f4acd807ae",
    "sweep phi --json":
        "4ca1c717c5b52acfbd638dca7179cd6bde82f1b84b2c5dfda7127a7edc00bccd",
    "classify --a 0.6":
        "b979f0a914277a5bb931556e46d74246ec6032832ff859e5c9c11245fc453a18",
    "classify --distance 0.8":
        "f78796cd08e7dc4f4ce0bf22c91b4810ea63953f3dc942e63ffdf29d1d324e09",
    "classify --circles 0,0,1 0,0,2.2":
        "e3f09097f006cf4142a4fd7db05e7515387b1c2ba46e8c6cb370f4307381a429",
    "catenary --a 0.5 --y-max 2.5 --n 100":
        "0ab444670d4f85f7c6d2b14e267a3b1b1ca77ac008da17d55a16db64185fadb5",
    "compete --a 0.6 --r 3 --json":
        "1bc9bbcc8e2f15e41c047780f58a9cd3c38da21649e18892a78aed1c155a1eb9",
    "mesh --a 0.6 --y-max 3 --out tube.obj":
        "d6b42721dbb4dd31bc0513b6b27fce5860d3309f46b2cbaf0f925bd2d6b67072",
    "constants --out constants.txt":
        "3d4a0d54060b2c112b98b0e79f667066f06da1765a09761c05c566c6c5395078",
    "sweep rho --lo 0 --hi 1 --n 3":
        "4df9569fb03768c4be98f9aad1281a9dd99bf1a55086ee8887178b61325acca5",
    "classify --distance 1.5 --out classify.json":
        "135879468d73fe1277a2a2b7aef8dbc13156fa9114694df4da1de1b7ec48afad",
    "catenary --a 0.5 --y-max 2.5 --n 5 --json":
        "aba86f999418c852abac0ee9085c854df73571b4c9798b9bc9d280cb5cb955ec",
    "compete --a 0.6 --r 3":
        "8d02e119dd9f7555d5fffca32a2d8a07dc7345217597445c9bcdbdc66a603199",
    "compete --a 1.0 --r 3":
        "901904fceda29d3206521fa7d19006b7ffc0de61df0d83082ae27826072d6c47",
    "compete --a 0.6 --r 3 --s 0.05":
        "1cc523be70ac194beb989bdf213925e1d727bc8eca1872078592abeaa7e1b715",
    "compete --a 0.6 --r 3 --s 0.05 --json --out compete.json":
        "df31f95800a5288b35cf2d8a2d16bfc52c9c27f9c851196ce2aae3335b3da060",
    "mesh --a 0.6 --y-max 2 --n-profile 6 --n-angle 8 --out m.obj --json":
        "1a3cac7c5c6d2a6407486b7028e5acf82944a841636eca4a27183f3617ade6e2",
    "compete --a 0.6 --r 0.5":
        "b3d060984bff267607014622f9870c3eed29483df827c2479e39a9a7b20d5a0b",
    "mesh --a 0.6 --y-max 3":
        "2074d73518b5544825da9fba5f858e1f9ca60886c656062109b118be0c81a727",
    "classify --circles 0,0,1 0.5,0,1":
        "868af710317c78c8e6d6dc8dece759dada2be24836f57b1da624614ca6c01a12",
    "sweep rho --lo 2 --hi 1":
        "8a86a22f54a4bb3f28ad1ebf1083558801dface7adac5ec2a026854114deda3b",
}


@pytest.mark.parametrize("argv", sorted(GOLDEN))
def test_golden_transcript(capsys, monkeypatch, tmp_path, argv):
    monkeypatch.chdir(tmp_path)
    code = main(argv.split())
    captured = capsys.readouterr()
    files = sorted((path.name, path.read_bytes()) for path in tmp_path.iterdir())
    record = repr((code, captured.out, captured.err, files)).encode()
    assert hashlib.sha256(record).hexdigest() == GOLDEN[argv]
