import itertools
import math

import numpy as np
import pytest

import qps.solver
from qps import (
    EARTH_RADIUS_M,
    Baseline,
    Constellation,
    DegenerateDelayError,
    DelayTriple,
    InvalidInputError,
    NotConvergedError,
    Point3,
    Region,
    SingularJacobianError,
    forward_delays,
    forward_jacobian,
    multi_start_solve,
    solve_position,
)
from qps.geometry import delays_at
from qps.solver import MAX_STARTS, _r3_starts, _solve_starts

from .support import condition, naive_delays, random_instance, reference_multi_start


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

    def test_stalled_start_fails_early(self, ground, monkeypatch):
        # From this guess the damping ladder climbs until the accepted point
        # equals the current one bit for bit. The iteration depends on the
        # iterate alone, so the start fails at once instead of repeating that
        # state until the iteration budget runs out (1746 evaluations).
        delays = triple_from(ground, Point3(15, 32, -28))
        calls = 0

        def counting(constellation, xyz):
            nonlocal calls
            calls += 1
            return delays_at(constellation, xyz)

        monkeypatch.setattr(qps.solver, "delays_at", counting)
        with pytest.raises(NotConvergedError, match="stalled"):
            solve_position(ground, delays, Point3(-40, -40, -40))
        assert calls < 100

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
        # 2.5 must not be rounded to a start count.
        for n_starts in (0, -1, 2.5, MAX_STARTS + 1):
            with pytest.raises(InvalidInputError):
                multi_start_solve(ground, delays, region, n_starts=n_starts, seed=0)

    def test_invalid_seed(self, ground, ground_user):
        delays = triple_from(ground, ground_user)
        region = Region(Point3(0, 0, 0), Point3(1, 1, 1))
        for seed in (-1, 1.5):
            with pytest.raises(InvalidInputError):
                multi_start_solve(ground, delays, region, n_starts=4, seed=seed)

    def test_degenerate_delays_rejected_up_front(self, ground):
        region = Region(Point3(0, 0, 0), Point3(1, 1, 1))
        with pytest.raises(DegenerateDelayError):
            multi_start_solve(ground, DelayTriple(5.0, 0.0, 0.0), region, n_starts=4, seed=0)


def solve_or_none(constellation, delays, start):
    try:
        return solve_position(constellation, delays, Point3.from_array(start))
    except (SingularJacobianError, NotConvergedError):
        return None


def near_region(results, region):
    """Candidates within 1e6 half-diagonals of the region centre.

    Farther ones are the divergent iterates that the relative convergence
    test accepts; the lockstep search need not reproduce them exactly.
    """
    center = region.center.as_array()
    limit = 1e6 * 0.5 * np.linalg.norm(region.upper.as_array() - region.lower.as_array())
    return [r for r in results if np.linalg.norm(r.position.as_array() - center) <= limit]


def assert_matches_reference(constellation, delays, region, n_starts, seed):
    got = multi_start_solve(constellation, delays, region, n_starts, seed)
    ref = reference_multi_start(constellation, delays, region, n_starts, seed)
    assert near_region(got, region) == near_region(ref, region)


class TestLockstep:
    """The lockstep search against one solve_position call per start."""

    def test_mirror_layout(self):
        constellation = planar_constellation()
        delays = triple_from(constellation, Point3(0.5, 0.8, 1.7))
        assert_matches_reference(
            constellation, delays, Region(Point3(-3, -3, -4), Point3(5, 5, 4)), 128, 3
        )

    def test_random_instances(self):
        rng = np.random.default_rng(7)
        for seed in range(40):
            constellation, user = random_instance(rng)
            u = user.as_array()
            region = Region(Point3.from_array(u - 15.0), Point3.from_array(u + 15.0))
            assert_matches_reference(constellation, triple_from(constellation, user), region, 16, seed)

    def test_single_start(self, ground):
        # Converging, singular and stalling starts alike.
        delays = triple_from(ground, Point3(15, 32, -28))
        region = cube(80.0)
        outcomes = set()
        for seed in range(12):
            start = _r3_starts(region, 1, seed)[0]
            expected = solve_or_none(ground, delays, start)
            outcomes.add(expected is None)
            assert multi_start_solve(ground, delays, region, 1, seed) == (
                [] if expected is None else [expected]
            )
        assert outcomes == {True, False}

    def test_failed_rows_leave_others_alone(self, ground, ground_user):
        # An endpoint start and a symmetry-axis start fail as singular
        # without aborting the rows that converge.
        delays = triple_from(ground, ground_user)
        starts = np.array(
            [[2.0, 0.0, 0.0], [0.0, 0.0, 100.0], [50.0, 50.0, 50.0], [-40.0, -40.0, -40.0], [40.0, 60.0, 45.0]]
        )
        got = _solve_starts(ground, delays.as_array(), starts)
        assert got == [solve_or_none(ground, delays, start) for start in starts]
        assert got[0] is None and got[1] is None and got[2] is not None


def cube(half: float) -> Region:
    return Region(Point3(-half, -half, -half), Point3(half, half, half))


def draw_until(accept, draw) -> np.ndarray:
    while not accept(user := draw()):
        pass
    return user


class TestSearch:
    """Cold searches as in the benchmark's acquisition workload: one ground
    user in each octant of the +-80 m box with 16 starts, and an antipodal
    pair on the Earth's surface with 64 starts over +-8e6 m."""

    @pytest.fixture(scope="class")
    def searches(self, ground, leo):
        rng = np.random.default_rng(1)

        def on_earth():
            v = rng.normal(size=3)
            return EARTH_RADIUS_M * v / np.linalg.norm(v)

        cases = []
        for signs in itertools.product((-1.0, 1.0), repeat=3):
            user = draw_until(
                lambda u: condition(ground, u) <= 1e3,
                lambda: np.array(signs) * rng.uniform(0.0, 80.0, 3),
            )
            cases.append((ground, user, 80.0, 16))
        u = draw_until(lambda u: max(condition(leo, u), condition(leo, -u)) <= 1e3, on_earth)
        cases += [(leo, u, 8e6, 64), (leo, -u, 8e6, 64)]
        out = []
        for seed, (constellation, user, half, starts) in enumerate(cases):
            delays = DelayTriple.from_array(naive_delays(constellation, Point3.from_array(user)))
            args = (constellation, delays, cube(half), starts, seed)
            out.append((user, args, multi_start_solve(*args)))
        return out

    def test_true_user_found(self, searches):
        for user, _, results in searches:
            tol = 1e-6 * max(1.0, float(np.linalg.norm(user)))
            distances = [np.linalg.norm(r.position.as_array() - user) for r in results]
            assert distances and min(distances) <= tol, (user, distances)

    def test_matches_reference_loop(self, searches):
        for _, args, results in searches:
            assert near_region(results, args[2]) == near_region(reference_multi_start(*args), args[2])

    def test_same_seed_same_candidates(self, searches):
        # One ground and one satellite search, repeated.
        for _, args, results in (searches[0], searches[-1]):
            assert multi_start_solve(*args) == results
