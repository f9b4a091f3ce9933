import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qps import (
    Baseline,
    Constellation,
    InvalidInputError,
    Point3,
    forward_delays,
    load_constellation,
)
from qps.geometry import condition_number, delays_at, jacobian_at

from .support import (
    naive_delay,
    naive_delays,
    random_rotation,
    rotate_constellation,
    translate_constellation,
)

X_BASELINE = Baseline.with_midpoint_source(Point3(1.0, 0.0, 0.0), Point3(-1.0, 0.0, 0.0))
Y_BASELINE = Baseline.with_midpoint_source(Point3(0.0, 1.0, 0.0), Point3(0.0, -1.0, 0.0))
Z_BASELINE = Baseline.with_midpoint_source(Point3(0.0, 0.0, 1.0), Point3(0.0, 0.0, -1.0))


def first_delay(baseline: Baseline, user: Point3) -> float:
    """Balancing delay of ``baseline`` as the first of a constellation."""
    return float(forward_delays(Constellation((baseline, Y_BASELINE, Z_BASELINE)), user)[0])


class TestPoint3:
    def test_rejects_nan(self):
        with pytest.raises(InvalidInputError):
            Point3(math.nan, 0.0, 0.0)

    def test_rejects_inf(self):
        with pytest.raises(InvalidInputError):
            Point3(0.0, math.inf, 0.0)

    def test_array_round_trip(self):
        p = Point3(1.5, -2.0, 3.25)
        assert Point3.from_array(p.as_array()) == p

    def test_from_array_wrong_length(self):
        with pytest.raises(InvalidInputError):
            Point3.from_array([1.0, 2.0])


class TestBaseline:
    def test_coincident_endpoints_rejected(self):
        p = Point3(1.0, 2.0, 3.0)
        with pytest.raises(InvalidInputError):
            Baseline(p, p, Point3(0.0, 0.0, 0.0))

    def test_length(self):
        assert X_BASELINE.length == 2.0

    def test_midpoint_source_predicate(self):
        assert X_BASELINE.source_path_offset == 0.0
        skewed = Baseline(Point3(1, 0, 0), Point3(-1, 0, 0), Point3(0.5, 0, 0))
        assert skewed.source_path_offset == -1.0

    def test_source_path_offset_zero_at_midpoint(self):
        assert X_BASELINE.source_path_offset == 0.0


class TestBalancedDelay:
    def test_zero_on_bisector_plane(self):
        assert first_delay(X_BASELINE, Point3(0.0, 5.0, 7.0)) == 0.0

    def test_user_at_endpoint_a(self):
        s = first_delay(X_BASELINE, Point3(1.0, 0.0, 0.0))
        assert math.isclose(s, -X_BASELINE.length, rel_tol=1e-12)

    def test_against_distance_oracle(self, ground, ground_user):
        np.testing.assert_allclose(
            forward_delays(ground, ground_user), naive_delays(ground, ground_user), atol=1e-12
        )

    def test_general_source_placement(self):
        skewed = Baseline(Point3(1, 0, 0), Point3(-1, 0, 0), Point3(0.3, 0.2, -0.1))
        user = Point3(4.0, -2.0, 1.0)
        assert math.isclose(
            first_delay(skewed, user), naive_delay(skewed, user), abs_tol=1e-12
        )

    def test_sign_convention_positive_when_a_leg_longer(self):
        # User close to endpoint_b: the endpoint_a leg is the longer one.
        s = first_delay(X_BASELINE, Point3(-0.9, 0.1, 0.0))
        assert s > 0.0


class TestForwardDelays:
    def test_origin_is_balanced_everywhere(self, ground):
        assert np.all(forward_delays(ground, Point3(0.0, 0.0, 0.0)) == 0.0)

    def test_against_distance_oracle_leo(self, leo, leo_user):
        expected = naive_delays(leo, leo_user)
        np.testing.assert_allclose(forward_delays(leo, leo_user), expected, atol=5e-8)


class TestExtent:
    def test_ground_layout(self, ground):
        np.testing.assert_array_equal(ground.centre, [0.0, 0.0, 0.0])
        assert ground.radius == 2.0

    def test_leo_layout(self, leo):
        # Mean of the three baseline midpoints; every endpoint lies within
        # the radius, and the farthest on it.
        mids = [
            [(b.endpoint_a.x + b.endpoint_b.x) / 2, (b.endpoint_a.y + b.endpoint_b.y) / 2,
             (b.endpoint_a.z + b.endpoint_b.z) / 2]
            for b in leo.baselines
        ]
        np.testing.assert_allclose(leo.centre, np.mean(mids, axis=0), rtol=1e-15)
        ends = [p for b in leo.baselines for p in (b.endpoint_a, b.endpoint_b)]
        distances = [math.dist((p.x, p.y, p.z), leo.centre) for p in ends]
        assert max(distances) == pytest.approx(leo.radius, rel=1e-15)


class TestBroadcast:
    def test_stack_matches_single_points_exactly(self, ground, leo):
        rng = np.random.default_rng(11)
        for constellation, scale in ((ground, 100.0), (leo, 1e7)):
            xyz = rng.normal(size=(4, 5, 3)) * scale * 10.0 ** rng.uniform(-3, 6, (4, 5, 1))
            delays, jac = delays_at(constellation, xyz), jacobian_at(constellation, xyz)
            cond = condition_number(jac)
            assert delays.shape == (4, 5, 3) and jac.shape == (4, 5, 3, 3) and cond.shape == (4, 5)
            for idx in np.ndindex(4, 5):
                assert np.array_equal(delays[idx], delays_at(constellation, xyz[idx]))
                assert np.array_equal(jac[idx], jacobian_at(constellation, xyz[idx]))
                assert cond[idx] == condition_number(jac[idx])

    def test_stacked_singular_condition_is_infinite(self):
        jac = np.array([np.eye(3), np.zeros((3, 3)), np.diag([1.0, 1.0, 0.0])])
        assert condition_number(jac).tolist() == [1.0, math.inf, math.inf]

    def test_endpoint_in_stack_rejected(self, ground):
        with pytest.raises(InvalidInputError):
            jacobian_at(ground, np.array([[1.0, 2.0, 3.0], [2.0, 0.0, 0.0]]))


coords = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)


class TestProperties:
    @given(ux=coords, uy=coords, uz=coords)
    @settings(max_examples=200, deadline=None)
    def test_triangle_bound(self, ux, uy, uz):
        s = first_delay(X_BASELINE, Point3(ux, uy, uz))
        assert abs(s) <= X_BASELINE.length + 1e-9

    def test_equality_on_exterior_axis(self):
        # Outside the segment along its own axis the bound is attained.
        assert math.isclose(
            first_delay(X_BASELINE, Point3(-3.0, 0.0, 0.0)),
            X_BASELINE.length,
            rel_tol=1e-12,
        )

    def test_rigid_motion_equivariance(self, ground, ground_user):
        rng = np.random.default_rng(42)
        base = forward_delays(ground, ground_user)
        for _ in range(20):
            rot = random_rotation(rng)
            shift = rng.uniform(-50.0, 50.0, 3)
            moved = translate_constellation(rotate_constellation(ground, rot), shift)
            moved_user = Point3.from_array(rot @ ground_user.as_array() + shift)
            np.testing.assert_allclose(forward_delays(moved, moved_user), base, atol=1e-9)

    def test_mirror_symmetry_negates_delay(self, ground):
        rng = np.random.default_rng(7)
        for _ in range(50):
            user = Point3.from_array(rng.uniform(-40.0, 40.0, 3))
            delays = forward_delays(ground, user)
            for i, baseline in enumerate(ground.baselines):
                a = baseline.endpoint_a.as_array()
                b = baseline.endpoint_b.as_array()
                normal = (a - b) / np.linalg.norm(a - b)
                mid = 0.5 * (a + b)
                u = user.as_array()
                mirrored = Point3.from_array(u - 2.0 * np.dot(u - mid, normal) * normal)
                assert math.isclose(
                    forward_delays(ground, mirrored)[i],
                    -delays[i],
                    abs_tol=1e-10,
                )


class TestConstellationJson:
    def test_round_trip(self, ground, tmp_path):
        path = tmp_path / "constellation.json"
        ground.save_json(path)
        assert load_constellation(path) == ground

    def test_schema_shape(self, ground):
        data = ground.to_json_dict()
        assert set(data) == {"baselines"}
        assert len(data["baselines"]) == 3
        assert set(data["baselines"][0]) == {"a", "b", "source"}

    def test_missing_key_rejected(self):
        with pytest.raises(InvalidInputError):
            Constellation.from_json_dict({"nope": []})

    def test_wrong_count_rejected(self, ground):
        data = ground.to_json_dict()
        data["baselines"] = data["baselines"][:2]
        with pytest.raises(InvalidInputError):
            Constellation.from_json_dict(data)

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(InvalidInputError):
            load_constellation(path)

    def test_non_numeric_coordinate_rejected(self, ground, tmp_path):
        data = ground.to_json_dict()
        data["baselines"][0]["a"] = ["two", 0, 0]
        path = tmp_path / "non_numeric.json"
        path.write_text(json.dumps(data))
        with pytest.raises(InvalidInputError, match="numbers"):
            load_constellation(path)

    def test_constellation_needs_three_baselines(self):
        with pytest.raises(InvalidInputError):
            Constellation((X_BASELINE, X_BASELINE))
