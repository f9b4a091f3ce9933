import ast
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qps
from qps import Point3, TerrestrialConfig, build_terrestrial, forward_delays, point_error
from qps.cli import main
from qps.solver import MAX_STARTS

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
        code, out, _ = run(
            capsys,
            [
                "solve",
                "--preset",
                "terrestrial",
                "--a",
                "2",
                "--s",
                "0,0,0",
                "--region=-5,5,-5,5,-5,5",
                "--starts",
                "16",
                "--seed",
                "7",
            ],
        )
        assert code == 0
        data = json.loads(out)
        assert isinstance(data, list) and data
        assert np.linalg.norm(data[0]["position_m"]) < 1e-6

    def test_start_count_over_limit(self, capsys):
        code, _, err = run(
            capsys,
            ["solve", "--preset", "terrestrial", "--s", "0,0,0", "--region=-5,5,-5,5,-5,5",
             "--starts", str(MAX_STARTS + 1)],
        )
        assert code == 1
        assert json.loads(err)["error"] == "InvalidInputError"

    def test_any_start_count_keeps_stderr_clean(self):
        proc = run_fresh(
            "-m", "qps", "solve", "--preset", "terrestrial", "--s=-2.3,-2.3,-2.3",
            "--region=-80,80,-80,80,-80,80", "--starts", "10", "--seed", "0",
        )
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert json.loads(proc.stdout)

    def test_stalled_start_is_a_json_error(self, capsys):
        s = forward_delays(build_terrestrial(TerrestrialConfig(2.0)), Point3(15, 32, -28))
        code, _, err = run(
            capsys,
            ["solve", "--preset", "terrestrial", "--a", "2", "--s=" + ",".join(map(repr, s.tolist())),
             "--guess=-40,-40,-40"],
        )
        assert code == 1
        data = json.loads(err)
        assert data["error"] == "NotConvergedError"
        assert "stalled" in data["message"]

    def test_requires_guess_or_region(self, capsys):
        code, _, err = run(
            capsys, ["solve", "--preset", "terrestrial", "--s", "0,0,0"]
        )
        assert code == 1
        assert json.loads(err)["error"] == "QpsError"

    def test_degenerate_delay_error_is_machine_readable(self, capsys):
        code, _, err = run(
            capsys,
            ["solve", "--preset", "terrestrial", "--a", "2", "--s", "9,0,0", "--guess", "1,1,1"],
        )
        assert code == 1
        data = json.loads(err)
        assert data["error"] == "DegenerateDelayError"
        assert "s1" in data["message"]

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
            ["solve", "--preset", "terrestrial", "--s=-2.3,-2.3,-2.3",
             "--region=-80,80,-80,80,-80,80", "--starts", "8", "--seed", "-1"],
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
        # numpy is the only third-party dependency, also for the multi-start search.
        proc = run_fresh(
            "-c",
            "import sys, qps, qps.cli\n"
            "c = qps.build_terrestrial(qps.TerrestrialConfig(2.0))\n"
            "region = qps.Region(qps.Point3(-5, -5, -5), qps.Point3(5, 5, 5))\n"
            "qps.multi_start_solve(c, qps.DelayTriple(0, 0, 0), region, 4, 0)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_package_imports_only_stdlib_and_numpy(self):
        allowed = set(sys.stdlib_module_names) | {"numpy", "qps"}
        outside = []
        for path in sorted(Path(qps.__file__).resolve().parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    names = [node.module]
                else:
                    continue
                outside += [f"{path.name}: {n}" for n in names if n.split(".")[0] not in allowed]
        assert outside == []
