import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qps import (
    Baseline,
    Constellation,
    DelayTriple,
    InvalidInputError,
    Point3,
    SingularJacobianError,
    forward_delays,
    load_constellation,
    solve_position,
)
from qps.geometry import _evaluate, condition_number, delays_at, jacobian_at

from .support import (
    naive_delay,
    naive_delays,
    outcome,
    random_instance,
    random_rotation,
    reference_delays_at,
    reference_jacobian_at,
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


def stacks(ground, leo):
    """(constellation, positions of shape (4, 5, 3)) on the ground and
    satellite layouts and on three random layouts around their users."""
    rng = np.random.default_rng(24)
    cases = [
        (constellation, rng.normal(size=(4, 5, 3)) * scale * 10.0 ** rng.uniform(-3, 3, (4, 5, 1)))
        for constellation, scale in ((ground, 100.0), (leo, 1e7))
    ]
    for _ in range(3):
        constellation, user = random_instance(rng)
        cases.append((constellation, user.as_array() + rng.normal(size=(4, 5, 3))))
    return cases


class TestFusedEvaluation:
    """``_evaluate`` gives the delays and the Jacobian from one evaluation
    of the legs to both endpoints."""

    def test_matches_public_functions_exactly(self, ground, leo):
        for constellation, xyz in stacks(ground, leo):
            delays, jac = _evaluate(constellation, xyz)
            assert delays.tobytes() == delays_at(constellation, xyz).tobytes()
            assert jac.tobytes() == jacobian_at(constellation, xyz).tobytes()

    def test_stack_matches_single_points_exactly(self, ground, leo):
        for constellation, xyz in stacks(ground, leo):
            delays, jac = _evaluate(constellation, xyz)
            for idx in np.ndindex(4, 5):
                one_delays, one_jac = _evaluate(constellation, xyz[idx])
                assert delays[idx].tobytes() == one_delays.tobytes()
                assert jac[idx].tobytes() == one_jac.tobytes()

    def test_against_distance_oracle_and_central_differences(self, ground, leo):
        # Direct distance differences lose a few ulps of the longest leg;
        # central differences with a step of 1e-5 of the nearest endpoint
        # distance err by about (1e-5)**2 from truncation and eps / 1e-5
        # from rounding, relative to the unit-vector rows.
        eps = np.finfo(float).eps
        for constellation, xyz in stacks(ground, leo):
            delays, jac = _evaluate(constellation, xyz)
            for idx in np.ndindex(4, 5):
                user = Point3.from_array(xyz[idx])
                legs = np.concatenate(
                    (
                        np.linalg.norm(xyz[idx] - constellation.endpoints_a, axis=1),
                        np.linalg.norm(xyz[idx] - constellation.endpoints_b, axis=1),
                    )
                )
                oracle = naive_delays(constellation, user)
                assert np.all(np.abs(delays[idx] - oracle) <= 8.0 * eps * legs.max())
                h = 1e-5 * legs.min()
                columns = [
                    (delays_at(constellation, xyz[idx] + h * e) - delays_at(constellation, xyz[idx] - h * e))
                    / (2.0 * h)
                    for e in np.eye(3)
                ]
                np.testing.assert_allclose(jac[idx], np.column_stack(columns), rtol=0, atol=1e-9)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_endpoint_gives_no_jacobian(self, ground, ground_user):
        endpoint = ground.endpoints_b[1]
        delays, jac = _evaluate(ground, endpoint)
        assert jac is None
        assert delays.tobytes() == delays_at(ground, endpoint).tobytes()
        assert _evaluate(ground, np.array([[1.0, 2.0, 3.0], endpoint]))[1] is None
        with pytest.raises(InvalidInputError, match="coincides with a baseline endpoint"):
            jacobian_at(ground, endpoint)
        triple = DelayTriple.from_array(forward_delays(ground, ground_user))
        with pytest.raises(SingularJacobianError, match="coincides with a baseline endpoint"):
            solve_position(ground, triple, Point3.from_array(endpoint))

    @pytest.mark.parametrize("bad", [[1.0, math.nan, 0.0], [math.inf, -math.inf, 0.0]])
    def test_non_finite_position_rejected(self, ground, bad):
        for xyz in (np.array(bad), np.array([[1.0, 2.0, 3.0], bad])):
            for evaluate in (_evaluate, delays_at, jacobian_at):
                with pytest.raises(InvalidInputError, match="must be finite"):
                    evaluate(ground, xyz)


class TestAgainstTwoArrayLegs:
    """The legs to all six endpoints come from one ``(..., 6, 3)`` array;
    delays, Jacobians and errors must equal, bit for bit, those of the legs
    to the A and to the B endpoints as two arrays."""

    @staticmethod
    def cases(ground, leo):
        """(constellation, (N, 3) positions ending in the six endpoints)."""
        rng = np.random.default_rng(25)
        layouts = [(ground, np.zeros(3), 100.0), (leo, np.zeros(3), 1e7)]
        for _ in range(3):
            constellation, user = random_instance(rng)
            layouts.append((constellation, user.as_array(), 1.0))
        for constellation, centre, scale in layouts:
            xyz = centre + rng.normal(size=(30, 3)) * scale * 10.0 ** rng.uniform(-3, 3, (30, 1))
            yield constellation, np.vstack((xyz, constellation.endpoints_a, constellation.endpoints_b))

    @staticmethod
    def assert_same(constellation, xyz):
        delays = outcome(delays_at, constellation, xyz)
        jac = outcome(jacobian_at, constellation, xyz)
        assert delays == outcome(reference_delays_at, constellation, xyz)
        assert jac == outcome(reference_jacobian_at, constellation, xyz)
        fused = outcome(_evaluate, constellation, xyz)
        if isinstance(delays[0], type):
            assert fused == delays
        else:
            one_delays, one_jac = fused
            assert (one_delays.shape, one_delays.tobytes()) == delays
            if one_jac is None:
                assert jac == (InvalidInputError, "position coincides with a baseline endpoint")
            else:
                assert (one_jac.shape, one_jac.tobytes()) == jac

    def test_single_points(self, ground, leo):
        for constellation, xyz in self.cases(ground, leo):
            for point in xyz:
                self.assert_same(constellation, point)

    def test_stacks(self, ground, leo):
        for constellation, xyz in self.cases(ground, leo):
            self.assert_same(constellation, xyz[:30])
            self.assert_same(constellation, xyz)
            self.assert_same(constellation, xyz[:30].reshape(5, 6, 3))

    def test_both_endpoints_of_a_baseline(self):
        # The legs' squares underflow to zero, so the position sits on both
        # endpoints of the 1e-163 m baseline at once.
        tiny = Baseline.with_midpoint_source(Point3(0.0, 0.0, 0.0), Point3(1e-163, 0.0, 0.0))
        constellation = Constellation((tiny, Y_BASELINE, Z_BASELINE))
        xyz = np.array([5e-164, 0.0, 0.0])
        self.assert_same(constellation, xyz)
        with pytest.raises(InvalidInputError, match="coincides with both endpoints of a baseline"):
            delays_at(constellation, xyz)


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
