import math

import numpy as np
import pytest

from qps import (
    Baseline,
    Constellation,
    DegenerateDelayError,
    DelayTriple,
    InvalidInputError,
    Point3,
    Region,
    SingularJacobianError,
    forward_delays,
    forward_jacobian,
    multi_start_solve,
    solve_position,
)

from .support import naive_delays, random_instance


def triple_from(constellation, user) -> DelayTriple:
    return DelayTriple.from_array(forward_delays(constellation, user))


class TestDelayTriple:
    def test_round_trip(self):
        t = DelayTriple(0.1, -0.2, 0.3)
        assert DelayTriple.from_array(t.as_array()) == t

    def test_rejects_nan(self):
        with pytest.raises(InvalidInputError):
            DelayTriple(math.nan, 0.0, 0.0)
        with pytest.raises(InvalidInputError):
            DelayTriple.from_array(["x", 0.0, 0.0])


class TestRegion:
    def test_empty_region_rejected(self):
        with pytest.raises(InvalidInputError):
            Region(Point3(0, 0, 0), Point3(1, 1, 0))

    def test_center(self):
        region = Region(Point3(0, 0, 0), Point3(2, 4, 6))
        assert region.center == Point3(1, 2, 3)


def residuals(constellation, candidate: Point3, delays: DelayTriple) -> np.ndarray:
    """Range-difference residuals ``f_i = s_i(candidate) - s_i_measured``."""
    return forward_delays(constellation, candidate) - delays.as_array()


class TestResiduals:
    def test_zero_at_true_user(self, ground, ground_user):
        f = residuals(ground, ground_user, triple_from(ground, ground_user))
        assert np.all(f == 0.0)

    def test_zero_delays_at_origin(self, ground):
        f = residuals(ground, Point3(0, 0, 0), DelayTriple(0.0, 0.0, 0.0))
        assert np.all(f == 0.0)

    def test_first_order_matches_jacobian(self, ground, ground_user):
        delays = triple_from(ground, ground_user)
        delta = np.array([1e-3, 0.0, 0.0])
        perturbed = Point3.from_array(ground_user.as_array() + delta)
        f = residuals(ground, perturbed, delays)
        expected = forward_jacobian(ground, ground_user) @ delta
        np.testing.assert_allclose(f, expected, rtol=1e-4, atol=1e-9)

    def test_block_structure(self, ground, ground_user):
        # Each residual component depends only on its own baseline.
        delays = triple_from(ground, ground_user)
        rolled = Constellation(tuple(ground.baselines[i] for i in (1, 2, 0)))
        rolled_delays = DelayTriple(delays.s2, delays.s3, delays.s1)
        probe = Point3(11.0, -7.0, 23.0)
        f = residuals(ground, probe, delays)
        f_rolled = residuals(rolled, probe, rolled_delays)
        np.testing.assert_array_equal(f_rolled, np.roll(f, -1))


class TestSolvePosition:
    def test_ground_reference_case(self, ground, ground_user):
        result = solve_position(ground, triple_from(ground, ground_user), Point3(50, 50, 50))
        err = np.linalg.norm(result.position.as_array() - ground_user.as_array())
        assert err <= 1e-9
        assert result.converged
        assert result.condition_number < 1e5

    def test_leo_reference_case(self, leo, leo_user):
        result = solve_position(leo, triple_from(leo, leo_user), Point3(6e6, 6e6, 6e6))
        err = np.linalg.norm(result.position.as_array() - leo_user.as_array())
        assert err <= 1e-6

    def test_zero_delays_find_origin(self, ground):
        result = solve_position(ground, DelayTriple(0.0, 0.0, 0.0), Point3(1, 1, 1))
        assert np.linalg.norm(result.position.as_array()) <= 1e-9

    def test_converged_satisfies_equations_directly(self, ground, ground_user):
        # Re-evaluate the range-difference equations with plain distance
        # arithmetic, independent of the solver's residual bookkeeping.
        delays = triple_from(ground, ground_user)
        result = solve_position(ground, delays, Point3(40, 60, 45))
        direct = naive_delays(ground, result.position) - delays.as_array()
        tol = 1e-12 * (1.0 + result.position.norm())
        assert np.all(np.abs(direct) <= tol + 1e-13)

    def test_residual_norm_meets_tolerance(self, ground, ground_user):
        result = solve_position(ground, triple_from(ground, ground_user), Point3(50, 50, 50))
        assert result.residual_norm < 1e-12 * (1.0 + result.position.norm())

    def test_degenerate_delay_rejected(self, ground):
        # Range difference equal to the baseline length is unreachable.
        with pytest.raises(DegenerateDelayError):
            solve_position(ground, DelayTriple(4.0, 0.0, 0.0), Point3(1, 1, 1))

    def test_singular_initial_guess(self, ground, ground_user):
        # On the z-axis the ground layout's Jacobian loses rank.
        delays = triple_from(ground, ground_user)
        with pytest.raises(SingularJacobianError):
            solve_position(ground, delays, Point3(0.0, 0.0, 100.0))

    def test_guess_at_endpoint(self, ground, ground_user):
        delays = triple_from(ground, ground_user)
        with pytest.raises(SingularJacobianError):
            solve_position(ground, delays, Point3(2.0, 0.0, 0.0))

    def test_round_trip_random_instances(self):
        rng = np.random.default_rng(2024)
        for _ in range(200):
            constellation, user = random_instance(rng)
            direction = rng.normal(size=3)
            direction /= np.linalg.norm(direction)
            guess = Point3.from_array(
                user.as_array() + 0.01 * user.norm() * direction
            )
            result = solve_position(constellation, triple_from(constellation, user), guess)
            rel = np.linalg.norm(result.position.as_array() - user.as_array()) / user.norm()
            assert rel <= 1e-9

    def test_json_dict(self, ground, ground_user):
        result = solve_position(ground, triple_from(ground, ground_user), Point3(50, 50, 50))
        data = result.to_json_dict()
        assert set(data) == {
            "position_m",
            "residual_norm_m",
            "iterations",
            "converged",
            "condition_number",
        }
        assert data["converged"] is True


def planar_constellation() -> Constellation:
    """All endpoints in the z=0 plane: solutions come in z-mirror pairs."""
    return Constellation(
        (
            Baseline.with_midpoint_source(Point3(1, 0, 0), Point3(-1, 0, 0)),
            Baseline.with_midpoint_source(Point3(0, 1, 0), Point3(0, -1, 0)),
            Baseline.with_midpoint_source(Point3(2, 2, 0), Point3(4, 3, 0)),
        )
    )


class TestMultiStart:
    def test_contains_true_user(self, ground, ground_user):
        delays = triple_from(ground, ground_user)
        region = Region(Point3(10, 10, 10), Point3(120, 120, 120))
        results = multi_start_solve(ground, delays, region, n_starts=32, seed=1)
        assert results
        best = results[0].position.as_array()
        assert np.linalg.norm(best - ground_user.as_array()) <= 1e-6

    def test_mirror_pair_both_found(self):
        constellation = planar_constellation()
        user = Point3(0.5, 0.8, 1.7)
        twin = Point3(0.5, 0.8, -1.7)
        delays = triple_from(constellation, user)
        # The mirrored point satisfies the same delays: planar layout.
        np.testing.assert_allclose(
            forward_delays(constellation, twin), delays.as_array(), atol=1e-12
        )
        region = Region(Point3(-3, -3, -4), Point3(5, 5, 4))
        results = multi_start_solve(constellation, delays, region, n_starts=128, seed=3)
        assert len(results) >= 2
        positions = np.array([r.position.as_array() for r in results])
        assert min(np.linalg.norm(positions - user.as_array(), axis=1)) <= 1e-6
        assert min(np.linalg.norm(positions - twin.as_array(), axis=1)) <= 1e-6

    def test_single_start_matches_solve_position(self, ground, ground_user):
        delays = triple_from(ground, ground_user)
        region = Region(Point3(40, 40, 40), Point3(80, 80, 80))
        results = multi_start_solve(ground, delays, region, n_starts=1, seed=9)
        assert len(results) == 1
        direct = solve_position(ground, delays, ground_user)
        np.testing.assert_allclose(
            results[0].position.as_array(), direct.position.as_array(), atol=1e-9
        )

    def test_cluster_merging(self, ground, ground_user):
        delays = triple_from(ground, ground_user)
        region = Region(Point3(40, 40, 40), Point3(80, 80, 80))
        results = multi_start_solve(ground, delays, region, n_starts=64, seed=5)
        assert len(results) == 1

    def test_invalid_start_count(self, ground, ground_user):
        delays = triple_from(ground, ground_user)
        region = Region(Point3(0, 0, 0), Point3(1, 1, 1))
        with pytest.raises(InvalidInputError):
            multi_start_solve(ground, delays, region, n_starts=0, seed=0)

    def test_degenerate_delays_rejected_up_front(self, ground):
        region = Region(Point3(0, 0, 0), Point3(1, 1, 1))
        with pytest.raises(DegenerateDelayError):
            multi_start_solve(ground, DelayTriple(5.0, 0.0, 0.0), region, n_starts=4, seed=0)
