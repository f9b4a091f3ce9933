import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qps
from qps import (
    LeoConfig,
    Point3,
    TerrestrialConfig,
    build_leo,
    build_terrestrial,
    forward_delays,
    point_error,
)
from qps.cli import main
from qps.scenarios import MAX_SCAN_POINTS

from .support import imported_modules, line_constellation

U = 100.0 / math.sqrt(3.0)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_fresh(*args):
    """Run ``python ARGS`` in a fresh interpreter that imports this ``qps``."""
    src = str(Path(qps.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=60
    )


class TestGdopCommand:
    def test_ground_reference_point(self, capsys):
        code, out, err = run(
            capsys,
            [
                "gdop",
                "--preset",
                "terrestrial",
                "--a",
                "2",
                "--sigma-s",
                "1e-6",
                "--user",
                f"{U},{U},{U}",
            ],
        )
        assert code == 0, err
        data = json.loads(out)
        assert abs(data["r_xyz_m"] - 0.083) / 0.083 < 0.02
        assert data["degenerate"] is False
        # JSON must round-trip the module result with no numeric mutation.
        est = point_error(build_terrestrial(TerrestrialConfig(2.0)), Point3(U, U, U), 1e-6)
        assert data["r_xyz_m"] == est.r_xyz_m
        assert data["sigma_x_m"] == est.sigma_x_m

    def test_degenerate_point_reported(self, capsys):
        # A symmetry-axis point and a baseline endpoint.
        for user in ("0,0,100", "2,0,0"):
            code, out, err = run(
                capsys,
                ["gdop", "--preset", "terrestrial", "--sigma-s", "1e-6", "--user", user],
            )
            assert code == 0, err
            data = json.loads(out)
            assert data["degenerate"] is True
            assert data["r_xyz_m"] is None

    def test_non_numeric_constellation_file(self, capsys, tmp_path, ground):
        data = ground.to_json_dict()
        data["baselines"][0]["a"] = ["two", 0, 0]
        path = tmp_path / "c.json"
        path.write_text(json.dumps(data))
        code, _, err = run(
            capsys,
            ["gdop", "--constellation", str(path), "--sigma-s", "1e-6", "--user", "1,2,3"],
        )
        assert code == 1
        assert json.loads(err)["error"] == "InvalidInputError"

    @pytest.mark.parametrize("bad", ["200", [1, None, 3], [1e308, 0, 0]])
    def test_malformed_or_far_endpoint_in_file(self, capsys, tmp_path, ground, bad):
        # A string once loaded as the endpoint (2, 0, 0), None leaked a
        # TypeError, and 1e308 overflowed the model's squares.
        data = ground.to_json_dict()
        data["baselines"][0]["a"] = bad
        path = tmp_path / "c.json"
        path.write_text(json.dumps(data))
        for argv in (
            ["gdop", "--constellation", str(path), "--sigma-s", "1e-6", "--user", "1,2,3"],
            ["solve", "--constellation", str(path), "--s=0,0.1,0.1"],
        ):
            code, out, err = run(capsys, argv)
            assert code == 1 and out == ""
            assert json.loads(err)["error"] == "InvalidInputError"

    def test_output_file(self, capsys, tmp_path):
        out_path = tmp_path / "estimate.json"
        code, out, _ = run(
            capsys,
            [
                "gdop",
                "--preset",
                "leo",
                "--sigma-s",
                "1e-6",
                "--user",
                "3682000,3682000,3682000",
                "--output",
                str(out_path),
            ],
        )
        assert code == 0
        assert out == ""
        data = json.loads(out_path.read_text())
        assert data["r_xyz_m"] > 0.0


class TestSolveCommand:
    def test_zero_delays(self, capsys):
        code, out, _ = run(
            capsys,
            ["solve", "--preset", "terrestrial", "--a", "2", "--s", "0,0,0", "--guess", "1,1,1"],
        )
        assert code == 0
        data = json.loads(out)
        assert np.linalg.norm(data["position_m"]) < 1e-9
        assert data["converged"] is True

    def test_multi_start_region(self, capsys):
        # --region keeps the candidates inside the box.
        argv = ["solve", "--preset", "terrestrial", "--a", "2", "--s", "0,0,0"]
        code, out, _ = run(capsys, argv + ["--region=-5,5,-5,5,-5,5"])
        assert code == 0
        data = json.loads(out)
        assert isinstance(data, list) and data
        assert np.linalg.norm(data[0]["position_m"]) < 1e-6
        code, out, _ = run(capsys, argv + ["--region=1,5,-5,5,-5,5"])
        assert code == 0
        assert json.loads(out) == []

    def test_start_count_over_limit(self, capsys):
        # The search has no starts, so --starts and --seed are usage errors.
        for flags in (["--starts", "4097"], ["--starts", "64"], ["--seed", "0"]):
            with pytest.raises(SystemExit) as excinfo:
                main(["solve", "--preset", "terrestrial", "--s", "0,0,0", *flags])
            assert excinfo.value.code == 2

    def test_search_keeps_stderr_clean(self):
        proc = run_fresh(
            "-m", "qps", "solve", "--preset", "terrestrial", "--s=-2.3,-2.3,-2.3",
        )
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert json.loads(proc.stdout)

    def test_stalled_start_is_a_json_error(self, capsys):
        s = forward_delays(build_leo(LeoConfig(7.36e6, 2e4)), Point3(4164009.10, 4367049.02, 2066106.26))
        code, _, err = run(
            capsys,
            ["solve", "--preset", "leo", "--a", "7.36e6", "--b", "2e4",
             "--s=" + ",".join(map(repr, s.tolist())), "--guess=-4475260.50,-4704237.52,-2587125.53"],
        )
        assert code == 1
        data = json.loads(err)
        assert data["error"] == "NotConvergedError"
        assert "stalled" in data["message"]

    def test_divergent_start_is_a_json_error(self, capsys):
        s = forward_delays(build_terrestrial(TerrestrialConfig(2.0)), Point3(15, 32, -28))
        code, _, err = run(
            capsys,
            ["solve", "--preset", "terrestrial", "--a", "2", "--s=" + ",".join(map(repr, s.tolist())),
             "--guess=-40,-40,-40"],
        )
        assert code == 1
        data = json.loads(err)
        assert data["error"] == "NotConvergedError"
        assert "bound" in data["message"]

    def test_ground_search_has_one_candidate(self, capsys):
        # All three delays equal: the user is on the (1, 1, 1) diagonal, 100 m
        # out, and the ground layout's sheets meet nowhere else.
        code, out, err = run(
            capsys,
            ["solve", "--preset", "terrestrial", "--s=" + ",".join(["-2.3090931771511536"] * 3)],
        )
        assert code == 0, err
        (candidate,) = json.loads(out)
        np.testing.assert_allclose(candidate["position_m"], [U] * 3, rtol=1e-12)
        assert candidate["residual_norm_m"] == 0.0

    def test_degenerate_layout_is_a_json_error(self, capsys, tmp_path):
        # With zero delays every point of the z axis solves this layout.
        path = tmp_path / "line.json"
        line_constellation().save_json(path)
        code, _, err = run(capsys, ["solve", "--constellation", str(path), "--s", "0,0,0"])
        assert code == 1
        data = json.loads(err)
        assert data["error"] == "QpsError"
        assert "dimension 13" in data["message"]

    def test_degenerate_delay_error_is_machine_readable(self, capsys):
        code, _, err = run(
            capsys,
            ["solve", "--preset", "terrestrial", "--a", "2", "--s", "9,0,0", "--guess", "1,1,1"],
        )
        assert code == 1
        data = json.loads(err)
        assert data["error"] == "DegenerateDelayError"
        assert "s1" in data["message"]

    def test_degenerate_delay_message_has_plain_floats(self, capsys):
        code, _, err = run(capsys, ["solve", "--preset", "terrestrial", "--s=5,0,0"])
        assert code == 1
        assert json.loads(err) == {
            "error": "DegenerateDelayError",
            "message": "delay s1=5.0 m is inconsistent with baseline length 4.0 m",
        }

    def test_constellation_file_source(self, capsys, tmp_path, ground):
        path = tmp_path / "c.json"
        ground.save_json(path)
        code, out, _ = run(
            capsys,
            ["solve", "--constellation", str(path), "--s", "0,0,0", "--guess", "1,1,1"],
        )
        assert code == 0
        assert np.linalg.norm(json.loads(out)["position_m"]) < 1e-9


class TestDipScanCommand:
    GRID = "-0.0009,0.0009,41"

    def test_stdout_contains_scan_and_fit(self, capsys):
        code, out, _ = run(
            capsys,
            ["dip-scan", f"--grid={self.GRID}", "--true-offset", "0", "--seed", "3"],
        )
        assert code == 0
        data = json.loads(out)
        assert set(data) == {"scan", "fit"}
        assert len(data["scan"]["offsets_m"]) == 41
        assert abs(data["fit"]["offset_m"]) < 5e-5

    def test_writes_csv_and_json(self, capsys, tmp_path):
        base = tmp_path / "scan"
        code, out, _ = run(
            capsys,
            [
                "dip-scan",
                f"--grid={self.GRID}",
                "--true-offset",
                "5e-4",
                "--seed",
                "1",
                "--output",
                str(base),
            ],
        )
        assert code == 0
        csv_text = (tmp_path / "scan.csv").read_text()
        assert csv_text.startswith("offset_m,rate_hz\n")
        scan = json.loads((tmp_path / "scan.json").read_text())
        assert scan["rng_seed"] == 1
        fit = json.loads(out)
        assert abs(fit["offset_m"] - 5e-4) < 5e-5

    def test_no_noise_exact_recovery(self, capsys):
        code, out, _ = run(
            capsys,
            [
                "dip-scan",
                "--grid=-0.0004,0.0014,41",
                "--true-offset",
                "5e-4",
                "--no-noise",
            ],
        )
        assert code == 0
        fit = json.loads(out)["fit"]
        assert abs(fit["offset_m"] - 5e-4) <= 1e-12 * 5e-4

    def test_determinism(self, capsys):
        argv = ["dip-scan", f"--grid={self.GRID}", "--seed", "11"]
        _, out1, _ = run(capsys, argv)
        _, out2, _ = run(capsys, argv)
        assert out1 == out2

    def test_no_dip_error(self, capsys):
        code, _, err = run(
            capsys,
            ["dip-scan", "--grid", "0.01,0.02,11", "--true-offset", "0", "--no-noise"],
        )
        assert code == 1
        assert json.loads(err)["error"] == "NoDipFoundError"

    @pytest.mark.parametrize(
        "grid, seed",
        [
            ("-0.0023506754830643728,0.00018226098898877066,2", "0"),
            ("-0.0001498418726252951,0.0005086056556068771,2", "28"),
        ],
    )
    def test_too_short_scan_error(self, capsys, grid, seed):
        code, out, err = run(
            capsys, ["dip-scan", f"--grid={grid}", "--integration-time", "0.004", "--seed", seed]
        )
        assert code == 1 and out == ""
        assert json.loads(err) == {
            "error": "InvalidInputError",
            "message": "a scan of 2 points cannot fit 3 parameters",
        }

    def test_degenerate_fit_error(self, capsys):
        code, _, err = run(
            capsys,
            [
                "dip-scan",
                "--grid=-0.00010765114447853821,0.002258588467658301,2",
                "--integration-time", "0.04191114123015526",
                "--seed", "1681",
                "--fix-bandwidth",
            ],
        )
        assert code == 1
        assert json.loads(err)["error"] == "FitDivergedError"

    def test_far_out_trial_step_error_is_json(self):
        # A damped step throws the center far enough out that the model's
        # exponent overflows; the fit rejects the step without a warning,
        # so stderr holds only the JSON error.
        proc = run_fresh(
            "-m", "qps", "dip-scan",
            "--grid=-0.001768783551904021,-0.0003865627524457472,3",
            "--integration-time", "0.0075374048211578285",
            "--seed", "1644",
        )
        assert proc.returncode == 1 and proc.stdout == ""
        assert json.loads(proc.stderr)["error"] == "FitDivergedError"

    def test_overflowing_true_offset_error_is_json(self):
        # The model's exponent overflows at every grid point; the scan is
        # flat at the plateau, and stderr holds only the JSON error.
        proc = run_fresh(
            "-m", "qps", "dip-scan", "--grid=-1e-3,1e-3,41", "--true-offset=1e200", "--seed", "1"
        )
        assert proc.returncode == 1 and proc.stdout == ""
        assert json.loads(proc.stderr)["error"] == "NoDipFoundError"

    @pytest.mark.parametrize("count", [MAX_SCAN_POINTS + 1, "1e12"])
    def test_grid_over_point_budget(self, capsys, count):
        # 1e12 points once died allocating the grid.
        code, out, err = run(capsys, ["dip-scan", f"--grid=-1e-3,1e-3,{count}"])
        assert code == 1 and out == ""
        error = json.loads(err)
        assert error["error"] == "InvalidInputError"
        assert "exceeds the limit" in error["message"]

    @pytest.mark.parametrize("t_int", ["1e16", "1e300"])
    def test_counts_beyond_poisson_limit_error(self, capsys, t_int):
        code, out, err = run(
            capsys,
            ["dip-scan", "--grid=-0.001,0.001,5", "--integration-time", t_int, "--seed", "1"],
        )
        assert code == 1 and out == ""
        error = json.loads(err)
        assert error["error"] == "InvalidInputError"
        assert "exceeds 9.2e+18" in error["message"]


class TestGridCommands:
    def test_field_csv(self, capsys, tmp_path):
        out_path = tmp_path / "field.csv"
        code, _, _ = run(
            capsys,
            [
                "field",
                "--preset",
                "terrestrial",
                "--a",
                "2",
                "--sweep",
                "x,29,31,3",
                "--sweep",
                "y,29,31,3",
                "--fixed",
                f"z,{100/math.sqrt(3)}",
                "--sigma-s",
                "1e-6",
                "--output",
                str(out_path),
            ],
        )
        assert code == 0
        lines = out_path.read_text().strip().split("\n")
        assert lines[0] == "x_m,y_m,r_xyz_m,degenerate,condition_number"
        assert len(lines) == 10

    def test_line_json(self, capsys):
        code, out, _ = run(
            capsys,
            [
                "line",
                "--preset",
                "terrestrial",
                "--start",
                "10,30,57.7",
                "--end",
                "50,30,57.7",
                "--count",
                "5",
                "--sigma-s",
                "1e-6",
                "--format",
                "json",
            ],
        )
        assert code == 0
        data = json.loads(out)
        assert data["axes"][0]["name"] == "arc_m"
        assert len(data["r_xyz_m"]) == 5

    def test_sweep_a(self, capsys):
        code, out, _ = run(
            capsys,
            [
                "sweep-a",
                "--a-range",
                "1,3,5",
                "--user",
                "30,30,57.735",
                "--sigma-s",
                "1e-6",
                "--format",
                "json",
            ],
        )
        assert code == 0
        data = json.loads(out)
        assert data["coords"]["a_m"] == [1.0, 1.5, 2.0, 2.5, 3.0]
        values = data["r_xyz_m"]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_reproduce_small_dataset(self, capsys, tmp_path):
        out_path = tmp_path / "fig6.csv"
        code, _, _ = run(capsys, ["reproduce", "fig6", "--output", str(out_path)])
        assert code == 0
        lines = out_path.read_text().strip().split("\n")
        assert lines[0] == "a_m,r_xyz_m,degenerate,condition_number"
        assert len(lines) == 602

    def test_reproduce_rejects_unknown(self, capsys):
        with pytest.raises(SystemExit):
            main(["reproduce", "fig7"])

    def test_negative_sigma_rejected_on_symmetry_axis(self, capsys):
        # Every sample lies on the z symmetry axis, where the geometry is
        # degenerate; sigma_s is still checked first.
        code, out, err = run(
            capsys,
            [
                "line",
                "--preset",
                "terrestrial",
                "--start=0,0,10",
                "--end",
                "0,0,50",
                "--count",
                "3",
                "--sigma-s",
                "-1",
            ],
        )
        assert code == 1
        assert out == ""
        assert json.loads(err)["error"] == "InvalidInputError"

    def test_scan_over_point_budget(self, capsys):
        argv = ["field", "--preset", "terrestrial", "--sweep", "x,-1,1,1001",
                "--sweep", "y,-1,1,1000", "--fixed", "z,50", "--sigma-s", "1e-6"]
        code, out, err = run(capsys, argv)
        assert code == 1
        assert out == ""
        assert json.loads(err)["error"] == "InvalidInputError"

    def test_line_through_endpoints_flags_degenerate(self, capsys):
        # Samples at x = -4, -2, 0, 2, 4; x = +-2 are the x baseline's
        # endpoints, where the Jacobian is undefined.
        argv = [
            "line",
            "--preset",
            "terrestrial",
            "--start=-4,0,0",
            "--end",
            "4,0,0",
            "--count",
            "5",
            "--sigma-s",
            "1e-6",
        ]
        code, out, err = run(capsys, argv)
        assert code == 0, err
        rows = out.strip().split("\n")[1:]
        for i in (1, 3):
            _, x, _, _, r_xyz, degenerate, cond = rows[i].split(",")
            assert abs(float(x)) == 2.0
            assert (r_xyz, degenerate, cond) == ("nan", "1", "inf")
        code, out, err = run(capsys, argv + ["--format", "json"])
        assert code == 0, err
        data = json.loads(out)
        for i in (1, 3):
            assert data["degenerate"][i] is True
            assert data["condition_number"][i] is None


class TestUsageErrors:
    def test_missing_subcommand(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2

    def test_bad_point_format(self, capsys):
        for argv in (
            ["gdop", "--preset", "terrestrial", "--sigma-s", "1e-6", "--user", "1,2"],
            # A COUNT field must be an integer, not truncated to one.
            ["sweep-a", "--a-range=0.5,5,10.7", "--user", "30,30,57.735", "--sigma-s", "1e-6"],
            ["dip-scan", "--grid=-0.0009,0.0009,41.9", "--seed", "1"],
            # A seed must be a non-negative integer.
            ["dip-scan", "--grid=-0.0009,0.0009,41", "--seed", "-1"],
        ):
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == 2

    def test_preset_and_file_exclusive(self, capsys, tmp_path):
        with pytest.raises(SystemExit):
            main(
                [
                    "gdop",
                    "--preset",
                    "terrestrial",
                    "--constellation",
                    str(tmp_path / "x.json"),
                    "--sigma-s",
                    "1e-6",
                    "--user",
                    "1,1,1",
                ]
            )


class TestImport:
    def test_cli_import_does_not_load_scipy_stats(self):
        # numpy is the only third-party dependency, also for the search.
        proc = run_fresh(
            "-c",
            "import sys, qps, qps.cli\n"
            "c = qps.build_terrestrial(qps.TerrestrialConfig(2.0))\n"
            "qps.solve_all(c, qps.DelayTriple(0, 0, 0))\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_package_imports_only_stdlib_and_numpy(self):
        # A relative import (an empty first name) stays inside the package.
        allowed = set(sys.stdlib_module_names) | {"numpy", "qps", ""}
        outside = []
        for path in sorted(Path(qps.__file__).resolve().parent.glob("*.py")):
            names = imported_modules(path)
            outside += [f"{path.name}: {n}" for n in names if n.split(".")[0] not in allowed]
        assert outside == []
