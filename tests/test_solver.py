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
    QpsError,
    Region,
    SingularJacobianError,
    forward_delays,
    forward_jacobian,
    multi_start_solve,
    solve_all,
    solve_position,
)
from qps.geometry import delays_at, jacobian_at
from qps.solver import MAX_ITERATIONS, _backtrack

from .support import (
    closed_form_ground,
    condition,
    line_constellation,
    naive_delays,
    random_instance,
)


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

    def test_stalled_start_fails_early(self, leo, monkeypatch):
        # From this guess no step scale keeps the residual from rising after
        # 11 iterations, so the accepted point equals the current one bit for
        # bit. The iteration depends on the iterate alone, so the start fails
        # at once (225 evaluations) instead of repeating that state, at 41
        # evaluations an iteration, until the budget of 200 runs out.
        delays = triple_from(leo, Point3(4164009.10, 4367049.02, 2066106.26))
        calls = {"delays": 0, "jacobian": 0}

        def counting(name, func):
            def wrapped(constellation, xyz):
                calls[name] += 1
                return func(constellation, xyz)

            return wrapped

        monkeypatch.setattr(qps.solver, "delays_at", counting("delays", delays_at))
        monkeypatch.setattr(qps.solver, "jacobian_at", counting("jacobian", jacobian_at))
        with pytest.raises(NotConvergedError, match="stalled"):
            solve_position(leo, delays, Point3(-4475260.50, -4704237.52, -2587125.53))
        assert calls["jacobian"] < MAX_ITERATIONS // 10
        assert calls["delays"] < 2 * MAX_ITERATIONS

    def test_divergent_start_fails_early(self, ground, monkeypatch):
        # From this guess the first Newton step lands beyond 1e3 times the
        # guess's distance from the constellation centre, so the start is
        # abandoned after two evaluations.
        delays = triple_from(ground, Point3(15, 32, -28))
        calls = 0

        def counting(constellation, xyz):
            nonlocal calls
            calls += 1
            return delays_at(constellation, xyz)

        monkeypatch.setattr(qps.solver, "delays_at", counting)
        with pytest.raises(NotConvergedError, match="bound"):
            solve_position(ground, delays, Point3(-40, -40, -40))
        assert calls < 10

    def test_backtracking_rows(self, ground, ground_user):
        # The first step overshoots the user threefold, so the half step is
        # the first that lowers the residual. The second points away from the
        # user, so no scale helps and the point and residual come back as
        # they were.
        s = triple_from(ground, ground_user).as_array()
        d = np.array([0.3, -0.2, 0.1])
        x = ground_user.as_array() + d
        r = delays_at(ground, x) - s
        x_new, r_new = _backtrack(ground, x, r, -3.0 * d, s)
        np.testing.assert_array_equal(x_new, x - 1.5 * d)
        np.testing.assert_array_equal(r_new, delays_at(ground, x_new) - s)
        x_new, r_new = _backtrack(ground, x, r, d, s)
        assert x_new is x and r_new is r

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
    """Searches without a starting point, through :func:`solve_all`."""

    def test_contains_true_user(self, ground, ground_user):
        results = solve_all(ground, triple_from(ground, ground_user))
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
        results = solve_all(constellation, delays)
        assert len(results) >= 2
        positions = np.array([r.position.as_array() for r in results])
        assert min(np.linalg.norm(positions - user.as_array(), axis=1)) <= 1e-6
        assert min(np.linalg.norm(positions - twin.as_array(), axis=1)) <= 1e-6

    def test_single_start_matches_solve_position(self, ground, ground_user):
        delays = triple_from(ground, ground_user)
        (result,) = solve_all(ground, delays)
        direct = solve_position(ground, delays, ground_user)
        np.testing.assert_allclose(
            result.position.as_array(), direct.position.as_array(), atol=1e-9
        )

    def test_cluster_merging(self, ground):
        # Zero delays: all eight roots of the quadrics sit at the origin.
        (result,) = solve_all(ground, DelayTriple(0.0, 0.0, 0.0))
        assert np.linalg.norm(result.position.as_array()) <= 1e-9

    def test_degenerate_delays_rejected_up_front(self, ground):
        with pytest.raises(DegenerateDelayError):
            solve_all(ground, DelayTriple(5.0, 0.0, 0.0))

    def test_missed_by_sixty_four_starts(self, leo):
        # The user is one of four real intersections. A 64-start search with
        # this seed over this box found only the other three.
        user = np.array([6001961.2473346805, 1899660.6178994568, -1023051.6713708002])
        delays = DelayTriple(14902.554943223018, -14677.669682278298, 10659.009086422622)
        results = multi_start_solve(leo, delays, cube(8e6), 64, 624796484)
        assert results == solve_all(leo, delays)
        assert len(results) == 4
        positions = np.array([r.position.as_array() for r in results])
        assert min(np.linalg.norm(positions - user, axis=1)) <= 1e-6 * np.linalg.norm(user)
        for position in positions:
            direct = naive_delays(leo, Point3.from_array(position)) - delays.as_array()
            assert np.all(np.abs(direct) <= 1e-12 * (1.0 + np.linalg.norm(position)))

    def test_solution_line_is_an_error(self):
        # Every point of the z axis solves these delays, so the roots are not
        # isolated and the null space is larger than 8.
        with pytest.raises(QpsError, match="dimension 13"):
            solve_all(line_constellation(), DelayTriple(0.0, 0.0, 0.0))


def cube(half: float) -> Region:
    return Region(Point3(-half, -half, -half), Point3(half, half, half))


def draw_until(accept, draw) -> np.ndarray:
    while not accept(user := draw()):
        pass
    return user


class TestSearch:
    """Cold searches for the users of the benchmark's acquisition workload:
    one ground user in each octant of the +-80 m box, and an antipodal pair
    on the Earth's surface."""

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
            cases.append((ground, user))
        u = draw_until(lambda u: max(condition(leo, u), condition(leo, -u)) <= 1e3, on_earth)
        cases += [(leo, u), (leo, -u)]
        out = []
        for constellation, user in cases:
            delays = DelayTriple.from_array(naive_delays(constellation, Point3.from_array(user)))
            args = (constellation, delays)
            out.append((user, args, solve_all(*args)))
        return out

    def test_true_user_found(self, searches):
        for user, _, results in searches:
            tol = 1e-6 * max(1.0, float(np.linalg.norm(user)))
            distances = [np.linalg.norm(r.position.as_array() - user) for r in results]
            assert distances and min(distances) <= tol, (user, distances)

    def test_candidates_satisfy_equations(self, searches):
        # Every candidate, not only the user, against the direct distances.
        for _, (constellation, delays), results in searches:
            for r in results:
                direct = naive_delays(constellation, r.position) - delays.as_array()
                assert np.all(np.abs(direct) <= 1e-12 * (1.0 + r.position.norm())), (r, direct)

    def test_ground_searches_find_one_candidate(self, searches, ground):
        for _, (constellation, _), results in searches:
            if constellation is ground:
                assert len(results) == 1

    def test_candidates_sorted_by_distance_from_centre(self, searches):
        for _, (constellation, _), results in searches:
            distances = [np.linalg.norm(r.position.as_array() - constellation.centre) for r in results]
            assert distances == sorted(distances)

    def test_repeat_gives_same_candidates(self, searches):
        # One ground and one satellite search, repeated.
        for _, args, results in (searches[0], searches[-1]):
            assert solve_all(*args) == results


class TestGroundClosedForm:
    """Searches on the ground layout against its closed-form intersection."""

    def test_closed_form_recovers_user(self, ground):
        rng = np.random.default_rng(11)
        for _ in range(500):
            user = rng.uniform(1.0, 80.0, 3) * rng.choice((-1.0, 1.0), 3)
            s = naive_delays(ground, Point3.from_array(user))
            rel = np.linalg.norm(closed_form_ground(s, 2.0) - user) / np.linalg.norm(user)
            assert rel <= 1e-9, (user, rel)

    def test_one_candidate_at_the_closed_form(self, ground):
        # The ground layout's three sheets meet in exactly one point, so any
        # second candidate would be spurious.
        rng = np.random.default_rng(12)
        for _ in range(48):
            user = rng.uniform(1.0, 80.0, 3) * rng.choice((-1.0, 1.0), 3)
            s = naive_delays(ground, Point3.from_array(user))
            results = solve_all(ground, DelayTriple.from_array(s))
            assert len(results) == 1, (user, [r.position for r in results])
            err = np.linalg.norm(results[0].position.as_array() - closed_form_ground(s, 2.0))
            assert err <= 1e-8 * np.linalg.norm(user), (user, err)


class TestClusterRadius:
    def test_far_root_reported_once(self, leo):
        # A satellite-layout search with a genuine second root at 8.14e8 m.
        # Solves converge to it with a spread of 1.3e-6 to 2.5e-4 m, which is
        # rounding at that range; an absolute 1e-6 m radius reported it 19
        # times from 64 starts.
        delays = DelayTriple(-9129.809515275992, -3681.9029072746634, -3861.2586644571275)
        user = np.array([2237501.7950346284, -3591873.393014133, 4771888.016893728])
        results = solve_all(leo, delays)
        ranges = [r.position.norm() for r in results]
        assert sum(8.1e8 < d < 8.2e8 for d in ranges) == 1, ranges
        assert min(np.linalg.norm(r.position.as_array() - user) for r in results) <= 1e-6 * np.linalg.norm(user)
