import json
import math

import numpy as np
import pytest

from qps import (
    EARTH_RADIUS_M,
    AxisSpec,
    FieldGrid,
    InvalidInputError,
    LeoConfig,
    Point3,
    TerrestrialConfig,
    build_leo,
    build_terrestrial,
    figure_dataset,
    forward_delays,
    point_error,
    scan_baseline_length,
    scan_line,
    scan_plane,
)
from qps.geometry import json_float
from qps.scenarios import MAX_SCAN_POINTS

from .support import reference_csv

Z_GROUND = 100.0 / math.sqrt(3.0)


class TestConfigs:
    def test_terrestrial_validation(self):
        with pytest.raises(InvalidInputError):
            TerrestrialConfig(0.0)

    def test_leo_validation(self):
        with pytest.raises(InvalidInputError):
            LeoConfig(1e4, 2e4)
        with pytest.raises(InvalidInputError):
            LeoConfig(7.36e6, 0.0)


class TestBuildTerrestrial:
    def test_endpoints(self):
        c = build_terrestrial(TerrestrialConfig(2.0))
        assert c.baselines[0].endpoint_a == Point3(2.0, 0.0, 0.0)
        assert c.baselines[0].endpoint_b == Point3(-2.0, 0.0, 0.0)
        assert c.baselines[1].endpoint_a == Point3(0.0, 2.0, 0.0)
        assert c.baselines[2].endpoint_a == Point3(0.0, 0.0, 2.0)

    def test_sources_at_origin(self):
        c = build_terrestrial(TerrestrialConfig(3.5))
        for baseline in c.baselines:
            assert baseline.source == Point3(0.0, 0.0, 0.0)
            assert baseline.source_path_offset == 0.0

    def test_forward_delays_zero_at_origin(self):
        c = build_terrestrial(TerrestrialConfig(1.7))
        assert np.all(forward_delays(c, Point3(0.0, 0.0, 0.0)) == 0.0)


class TestBuildLeo:
    def test_endpoints(self):
        a, b = 7.36e6, 2.0e4
        c = build_leo(LeoConfig(a, b))
        q = b / (2.0 * math.sqrt(2.0))
        assert c.baselines[0].endpoint_a == Point3(a, -b / 2, 0.0)
        assert c.baselines[0].endpoint_b == Point3(a, b / 2, 0.0)
        assert c.baselines[1].endpoint_a == Point3(b / 2, a, 0.0)
        assert c.baselines[1].endpoint_b == Point3(-b / 2, a, 0.0)
        assert c.baselines[2].endpoint_a == Point3(-q, -q, a)
        assert c.baselines[2].endpoint_b == Point3(q, q, a)

    def test_baseline_lengths_all_equal_b(self):
        c = build_leo(LeoConfig(7.36e6, 2.0e4))
        for baseline in c.baselines:
            assert math.isclose(baseline.length, 2.0e4, rel_tol=1e-12)

    def test_overhead_midpoint(self):
        c = build_leo(LeoConfig(7.36e6, 2.0e4))
        assert c.baselines[2].source == Point3(0.0, 0.0, 7.36e6)
        for baseline in c.baselines:
            assert baseline.source_path_offset == 0.0


class TestScanPlane:
    def test_reference_point_value(self, ground):
        grid = scan_plane(
            ground,
            AxisSpec("x", 29.0, 31.0, 3),
            AxisSpec("y", 29.0, 31.0, 3),
            "z",
            Z_GROUND,
            1e-6,
        )
        # Center point is (30, 30, 100/sqrt(3)).
        center = 4
        assert abs(grid.r_xyz_m[center] - 0.039) / 0.039 < 0.02
        assert not grid.degenerate[center]

    def test_degenerate_point_isolated(self, ground):
        grid = scan_plane(
            ground,
            AxisSpec("x", -1.0, 1.0, 3),
            AxisSpec("y", -1.0, 1.0, 3),
            "z",
            Z_GROUND,
            1e-6,
        )
        flat_index = 4  # (0, 0) node
        assert grid.degenerate[flat_index]
        assert math.isnan(grid.r_xyz_m[flat_index])
        others = np.delete(np.arange(9), flat_index)
        assert not grid.degenerate[others].any()
        assert np.all(np.isfinite(grid.r_xyz_m[others]))

    def test_swap_symmetry(self, ground):
        # The ground layout is symmetric under exchanging x and y.
        grid = scan_plane(
            ground,
            AxisSpec("x", -50.0, 50.0, 11),
            AxisSpec("y", -50.0, 50.0, 11),
            "z",
            Z_GROUND,
            1e-6,
        )
        field = grid.r_xyz_m.reshape(11, 11)
        np.testing.assert_allclose(field, field.T, rtol=1e-9, equal_nan=True)

    def test_matches_single_point_evaluation(self, ground):
        grid = scan_plane(
            ground,
            AxisSpec("x", 20.0, 40.0, 3),
            AxisSpec("y", 50.0, 70.0, 4),
            "z",
            Z_GROUND,
            1e-6,
        )
        for i in range(len(grid.r_xyz_m)):
            user = Point3(grid.coords["x_m"][i], grid.coords["y_m"][i], Z_GROUND)
            est = point_error(ground, user, 1e-6)
            assert grid.r_xyz_m[i] == est.r_xyz_m
            assert grid.condition_number[i] == est.condition_number

    def test_row_major_ordering(self, ground):
        grid = scan_plane(
            ground,
            AxisSpec("x", 0.0, 1.0, 2),
            AxisSpec("y", 10.0, 11.0, 3),
            "z",
            Z_GROUND,
            1e-6,
        )
        np.testing.assert_array_equal(grid.coords["x_m"], [0, 0, 0, 1, 1, 1])
        np.testing.assert_array_equal(grid.coords["y_m"], [10, 10.5, 11, 10, 10.5, 11])

    def test_axis_name_validation(self, ground):
        with pytest.raises(InvalidInputError):
            scan_plane(
                ground,
                AxisSpec("x", 0.0, 1.0, 2),
                AxisSpec("x", 0.0, 1.0, 2),
                "z",
                0.0,
                1e-6,
            )


class TestScanLine:
    def test_leo_radial_claim(self, leo):
        lo = EARTH_RADIUS_M / math.sqrt(3.0)
        hi = 11_680_000.0 / math.sqrt(3.0)
        grid = scan_line(leo, Point3(lo, lo, lo), Point3(hi, hi, hi), 200, 1e-6)
        assert not grid.degenerate.any()
        assert np.all(grid.r_xyz_m < 0.01)

    def test_degenerate_start_isolated(self, ground):
        grid = scan_line(
            ground, Point3(0.0, 0.0, 100.0), Point3(50.0, 0.0, 100.0), 5, 1e-6
        )
        assert grid.degenerate[0]
        assert not grid.degenerate[1:].any()
        assert np.all(np.isfinite(grid.r_xyz_m[1:]))

    def test_matches_single_point_evaluation(self, ground, ground_user):
        grid = scan_line(ground, Point3(10, 20, 30), Point3(40, 50, 60), 4, 1e-6)
        for i in range(4):
            user = Point3(
                grid.coords["x_m"][i], grid.coords["y_m"][i], grid.coords["z_m"][i]
            )
            assert grid.r_xyz_m[i] == point_error(ground, user, 1e-6).r_xyz_m

    def test_zero_length_rejected(self, ground):
        with pytest.raises(InvalidInputError):
            scan_line(ground, Point3(1, 2, 3), Point3(1, 2, 3), 5, 1e-6)


class TestScanBaselineLength:
    def test_matches_single_point_evaluation(self):
        user = Point3(30.0, 30.0, Z_GROUND)
        grid = scan_baseline_length(1.0, 3.0, 5, user, 1e-6)
        for i, a in enumerate(grid.coords["a_m"]):
            c = build_terrestrial(TerrestrialConfig(float(a)))
            assert grid.r_xyz_m[i] == point_error(c, user, 1e-6).r_xyz_m

    def test_strictly_decreasing_with_a(self):
        user = Point3(30.0, 30.0, Z_GROUND)
        grid = scan_baseline_length(0.5, 5.0, 46, user, 1e-6)
        assert np.all(np.diff(grid.r_xyz_m) < 0.0)

    def test_nonpositive_a_rejected(self):
        with pytest.raises(InvalidInputError):
            scan_baseline_length(-1.0, 2.0, 5, Point3(30, 30, Z_GROUND), 1e-6)


class TestScanBudget:
    def test_over_budget_rejected(self, ground):
        # Each scan is just over the budget.
        with pytest.raises(InvalidInputError, match="exceeds"):
            scan_plane(
                ground,
                AxisSpec("x", -1.0, 1.0, 1001),
                AxisSpec("y", -1.0, 1.0, 1000),
                "z",
                Z_GROUND,
                1e-6,
            )
        with pytest.raises(InvalidInputError, match="exceeds"):
            scan_line(ground, Point3(1, 2, 3), Point3(4, 5, 6), MAX_SCAN_POINTS + 1, 1e-6)
        with pytest.raises(InvalidInputError, match="exceeds"):
            scan_baseline_length(
                0.5, 5.0, MAX_SCAN_POINTS + 1, Point3(30, 30, Z_GROUND), 1e-6
            )


class TestFieldGrid:
    def test_axis_count_validation(self):
        with pytest.raises(InvalidInputError):
            AxisSpec("x", 0.0, 1.0, 1)

    def test_length_mismatch_rejected(self):
        with pytest.raises(InvalidInputError):
            FieldGrid(
                axes=(AxisSpec("x", 0.0, 1.0, 3),),
                fixed={},
                coords={"x_m": np.zeros(3)},
                r_xyz_m=np.zeros(2),
                degenerate=np.zeros(3, dtype=bool),
                condition_number=np.zeros(3),
            )

    def test_csv_shape(self, ground):
        grid = scan_line(ground, Point3(10, 20, 30), Point3(40, 50, 60), 3, 1e-6)
        lines = grid.to_csv().strip().split("\n")
        assert lines[0] == "arc_m,x_m,y_m,z_m,r_xyz_m,degenerate,condition_number"
        assert len(lines) == 4
        row = lines[1].split(",")
        assert float(row[0]) == 0.0
        assert row[5] in {"0", "1"}

    def test_json_round_trip_values(self, ground):
        grid = scan_line(ground, Point3(0, 0, 100), Point3(30, 0, 100), 3, 1e-6)
        data = json.loads(json.dumps(grid.to_json_dict()))
        assert data["r_xyz_m"][0] is None  # degenerate start point
        assert data["degenerate"][0] is True
        assert data["axes"][0]["count"] == 3
        np.testing.assert_allclose(data["coords"]["x_m"], [0.0, 15.0, 30.0])


    def test_writers_match_the_replaced_loops(self):
        # Every kind of float, and coordinates that are not float64.
        values = np.array([0.0, -0.0, 5e-324, 1e-7, 1.0, 123456789.0, 1.7e308, np.nan, np.inf])
        n = len(values)
        grid = FieldGrid(
            axes=(AxisSpec("x", 0.0, 1.0, n),),
            fixed={"y": 1.0},
            coords={
                "x_m": values[::-1].copy(),
                "i_m": np.arange(n),
                "f_m": np.linspace(0.1, 0.9, n, dtype=np.float32),
            },
            r_xyz_m=values,
            degenerate=np.arange(n) % 2 == 0,
            condition_number=-values,
        )
        columns = ("r_xyz_m", "degenerate", "condition_number")
        assert grid.to_csv() == reference_csv({**grid.coords, **{c: getattr(grid, c) for c in columns}})
        expected = {
            **grid.to_json_dict(),
            "coords": {k: [float(v) for v in arr] for k, arr in grid.coords.items()},
            "r_xyz_m": [json_float(v) for v in grid.r_xyz_m],
            "degenerate": [bool(v) for v in grid.degenerate],
            "condition_number": [json_float(v) for v in grid.condition_number],
        }
        assert json.dumps(grid.to_json_dict()) == json.dumps(expected)


class TestFigureDatasets:
    def test_unknown_name_rejected(self):
        with pytest.raises(InvalidInputError):
            figure_dataset("fig7")

    def test_ground_line_dataset(self):
        grid = figure_dataset("fig5")
        assert grid.axes[0].count == 500
        # The profile is symmetric in x and smallest in the measured
        # high-accuracy region around |x| = 30 m.
        field = grid.r_xyz_m
        np.testing.assert_allclose(field, field[::-1], rtol=1e-9)
        assert field.min() < 0.045
        assert field.max() < 0.25

    def test_baseline_sweep_dataset_contains_reference_node(self):
        grid = figure_dataset("fig6")
        a_values = grid.coords["a_m"]
        idx = int(np.argmin(np.abs(a_values - 2.0)))
        assert abs(a_values[idx] - 2.0) < 1e-9
        assert abs(grid.r_xyz_m[idx] - 0.039) / 0.039 < 0.02

    def test_leo_radial_dataset(self):
        grid = figure_dataset("fig10")
        radii = np.linalg.norm(
            np.column_stack(
                [grid.coords["x_m"], grid.coords["y_m"], grid.coords["z_m"]]
            ),
            axis=1,
        )
        below = grid.r_xyz_m[radii <= 11_680_000.0]
        assert np.all(below < 0.01)
        above = grid.r_xyz_m[radii >= 11_700_000.0]
        assert np.any(above > 0.01)
