import json
import math
import os
import subprocess
import sys

import pytest

import hypcatenoid
from hypcatenoid import area_difference, gomes_rho, plane_separation, tube_area
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

    def test_json_payload(self, capsys, bundle):
        code, out, _ = run_cli(
            capsys,
            "sweep", "rho", "--lo", "0.3", "--hi", "0.7", "--n", "41", "--json",
        )
        assert code == 0
        report = json.loads(out)
        assert report["quantity"] == "rho"
        assert report["tolerance"] == 1e-10
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
        # Root at solve_root's relative floor and 2 rho exact to rounding.
        assert abs(2.0 * gomes_rho(a_inner, tol) - 1e-6) <= 1e-13 * 1e-6

    def test_by_separation_outer_bracket(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--distance", "1e-7")
        assert code == 0
        solutions = json.loads(out)["solutions"]
        assert [entry["kind"] for entry in solutions] == ["unstable", "area_minimizing"]
        assert solutions[1]["a"] == pytest.approx(16.99201, abs=1e-5)
        # Below 2 rho(25) ~ 3.3e-11 the outer root is not sought.
        code, _, err = run_cli(capsys, "classify", "--distance", "1e-11")
        assert code == 2
        assert "error:" in err

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

    def test_intersecting_circles(self, capsys):
        code, _, err = run_cli(capsys, "classify", "--circles", "0,0,1", "0.5,0,1")
        assert code == 2
        assert "error:" in err

    def test_malformed_circle_literal(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["classify", "--circles", "0,0", "0,0,2"])
        assert excinfo.value.code == 1

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

    def test_fixed_cylinder_height(self, capsys, tol):
        code, out, _ = run_cli(
            capsys, "compete", "--a", "0.6", "--r", "3", "--s", "0.05", "--json"
        )
        assert code == 0
        report = json.loads(out)
        assert report["margin"] == pytest.approx(0.42652908564463, abs=1e-6)
        assert report["area_catenoid"] == pytest.approx(
            tube_area(0.6, 3.0, tol), abs=1e-9
        )

    @pytest.mark.parametrize("r", ["30", "40", "60"])
    def test_witness_at_large_radius(self, capsys, r):
        code, out, _ = run_cli(capsys, "compete", "--a", "0.6", "--r", r)
        assert code == 0
        assert "witness = True" in out
        assert "margin = 0.722454639189\n" in out

    @pytest.mark.parametrize("r", ["30", "40", "60"])
    def test_fixed_cylinder_height_at_large_radius(self, capsys, tol, r):
        s = 0.6 / 2**20
        code, out, _ = run_cli(
            capsys, "compete", "--a", "0.6", "--r", r, "--s", repr(s), "--json"
        )
        assert code == 0
        report = json.loads(out)
        phi = area_difference(0.6, float(r), tol).phi_a_r
        L = plane_separation(0.6, float(r), tol)
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

    def test_bad_geometry(self, capsys):
        code, _, err = run_cli(capsys, "compete", "--a", "0.6", "--r", "0.5")
        assert code == 2


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
        code, _, err = run_cli(capsys, "constants", "--tol", "-1")
        assert code == 2
        assert "error:" in err


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
