import math

import numpy as np
import pytest

from qps import (
    SEP_COEFFICIENT,
    DelayTriple,
    InvalidInputError,
    Point3,
    forward_delays,
    forward_jacobian,
    point_error,
    solve_position,
)

from .support import random_instance, random_rotation, rotate_constellation


def fd_jacobian(constellation, user: Point3, step: float) -> np.ndarray:
    """Central finite differences of the forward delay model."""
    x = user.as_array()
    cols = []
    for k in range(3):
        offset = np.zeros(3)
        offset[k] = step
        plus = forward_delays(constellation, Point3.from_array(x + offset))
        minus = forward_delays(constellation, Point3.from_array(x - offset))
        cols.append((plus - minus) / (2.0 * step))
    return np.column_stack(cols)


class TestForwardJacobian:
    def test_matches_finite_differences(self, ground, leo, ground_user, leo_user):
        rng = np.random.default_rng(11)
        cases = [(ground, ground_user.as_array(), 30.0), (leo, leo_user.as_array(), 1e6)]
        for constellation, center, spread in cases:
            for _ in range(25):
                user = Point3.from_array(center + rng.uniform(-spread, spread, 3))
                scale = max(1.0, user.norm())
                analytic = forward_jacobian(constellation, user)
                numeric = fd_jacobian(constellation, user, 1e-6 * scale)
                assert np.max(np.abs(analytic - numeric)) / np.max(np.abs(analytic)) < 1e-6

    def test_row_parallel_to_baseline_on_bisector_plane(self, ground):
        # On a baseline's perpendicular-bisector plane the delay is even in
        # the in-plane directions, so its gradient keeps only the
        # baseline-parallel component.
        user = Point3(0.0, 13.0, 5.0)  # bisector plane of the x baseline
        row = forward_jacobian(ground, user)[0]
        assert abs(row[1]) < 1e-12 and abs(row[2]) < 1e-12
        assert abs(row[0]) > 0.0

    def test_rank_loss_on_symmetry_axis(self, ground):
        jac = forward_jacobian(ground, Point3(0.0, 0.0, 100.0))
        assert abs(np.linalg.det(jac)) < 1e-15

    def test_endpoint_rejected(self, ground):
        with pytest.raises(InvalidInputError):
            forward_jacobian(ground, Point3(2.0, 0.0, 0.0))


class TestSensitivity:
    def test_columns_match_resolve_finite_differences(self, ground, ground_user):
        # Independent oracle for the whole chain: perturb one delay,
        # re-solve the nonlinear system, difference the positions. The
        # columns are d(position)/d(delay j), so each position sigma is
        # sigma times the norm of its row across the three columns.
        sigma = 1e-6
        s0 = forward_delays(ground, ground_user)
        delta = 1e-7
        columns = []
        for j in range(3):
            bump = np.zeros(3)
            bump[j] = delta
            plus = solve_position(ground, DelayTriple.from_array(s0 + bump), ground_user)
            minus = solve_position(ground, DelayTriple.from_array(s0 - bump), ground_user)
            columns.append((plus.position.as_array() - minus.position.as_array()) / (2.0 * delta))
        expected = sigma * np.linalg.norm(np.column_stack(columns), axis=1)
        est = point_error(ground, ground_user, sigma)
        np.testing.assert_allclose(
            [est.sigma_x_m, est.sigma_y_m, est.sigma_z_m], expected, rtol=1e-4
        )


class TestPropagateErrors:
    def test_zero_sigma_gives_zero(self, ground, ground_user):
        est = point_error(ground, ground_user, 0.0)
        assert est.sigma_x_m == est.sigma_y_m == est.sigma_z_m == est.r_xyz_m == 0.0

    def test_exact_linearity(self, ground, ground_user):
        one = point_error(ground, ground_user, 1e-6)
        two = point_error(ground, ground_user, 2e-6)
        assert two.sigma_x_m == 2.0 * one.sigma_x_m
        assert two.sigma_y_m == 2.0 * one.sigma_y_m
        assert two.sigma_z_m == 2.0 * one.sigma_z_m
        assert two.r_xyz_m == 2.0 * one.r_xyz_m

    def test_ground_reference_error(self, ground, ground_user):
        est = point_error(ground, ground_user, 1e-6)
        assert abs(est.r_xyz_m - 0.083) / 0.083 < 0.02

    def test_componentwise_formula(self, ground, ground_user):
        # r_xyz and the sigmas must equal the explicit sum-of-squares form.
        m = np.linalg.inv(forward_jacobian(ground, ground_user))
        sigma = 1e-6
        est = point_error(ground, ground_user, sigma)
        for i, value in enumerate((est.sigma_x_m, est.sigma_y_m, est.sigma_z_m)):
            expected = math.sqrt(sum((m[i, j] * sigma) ** 2 for j in range(3)))
            assert math.isclose(value, expected, rel_tol=1e-15)
        expected_r = (
            SEP_COEFFICIENT
            / math.sqrt(3.0)
            * math.sqrt(est.sigma_x_m**2 + est.sigma_y_m**2 + est.sigma_z_m**2)
        )
        assert math.isclose(est.r_xyz_m, expected_r, rel_tol=1e-15)

    def test_per_baseline_sigma_triple(self, ground, ground_user):
        m = np.linalg.inv(forward_jacobian(ground, ground_user))
        uniform = point_error(ground, ground_user, 1e-6)
        triple = point_error(ground, ground_user, (1e-6, 1e-6, 1e-6))
        assert triple == uniform
        mixed = point_error(ground, ground_user, (1e-6, 2e-6, 3e-6))
        expected_x = math.sqrt(
            (m[0, 0] * 1e-6) ** 2 + (m[0, 1] * 2e-6) ** 2 + (m[0, 2] * 3e-6) ** 2
        )
        assert math.isclose(mixed.sigma_x_m, expected_x, rel_tol=1e-14)

    def test_negative_sigma_rejected(self, ground, ground_user):
        # sigma_s is checked before the geometry, so a symmetry-axis or
        # endpoint user does not turn a bad sigma_s into a degenerate point.
        for user in (ground_user, Point3(0.0, 0.0, 50.0), Point3(2.0, 0.0, 0.0)):
            for sigma in (-1.0, (1e-6, 1e-6)):
                with pytest.raises(InvalidInputError):
                    point_error(ground, user, sigma)

    def test_monte_carlo_oracle(self, ground, ground_user, leo, leo_user):
        # Perturb the delays with Gaussian noise, re-solve, and compare
        # sample standard deviations against the analytic propagation.
        rng = np.random.default_rng(99)
        sigma = 1e-6
        trials = 4000
        for constellation, user in ((ground, ground_user), (leo, leo_user)):
            est = point_error(constellation, user, sigma)
            s0 = forward_delays(constellation, user)
            samples = np.empty((trials, 3))
            for t in range(trials):
                noisy = DelayTriple.from_array(s0 + rng.normal(0.0, sigma, 3))
                samples[t] = solve_position(constellation, noisy, user).position.as_array()
            observed = samples.std(axis=0, ddof=1)
            analytic = np.array([est.sigma_x_m, est.sigma_y_m, est.sigma_z_m])
            np.testing.assert_allclose(observed, analytic, rtol=0.03)

    def test_rigid_rotation_preserves_r_xyz(self, ground, ground_user):
        rng = np.random.default_rng(4)
        base = point_error(ground, ground_user, 1e-6).r_xyz_m
        for _ in range(10):
            rot = random_rotation(rng)
            rotated = rotate_constellation(ground, rot)
            rotated_user = Point3.from_array(rot @ ground_user.as_array())
            value = point_error(rotated, rotated_user, 1e-6).r_xyz_m
            assert math.isclose(value, base, rel_tol=1e-9)

    def test_divergence_approaching_symmetry_axis(self, ground):
        z = 100.0 / math.sqrt(3.0)
        values = [
            point_error(ground, Point3(x, 0.0, z), 1e-6).r_xyz_m
            for x in (10.0, 5.0, 2.0, 1.0, 0.5, 0.1, 0.01)
        ]
        assert all(b > a for a, b in zip(values, values[1:]))


class TestPointError:
    def test_degenerate_flag(self, ground):
        # On the symmetry axis the Jacobian is singular; on a baseline
        # endpoint it is undefined.
        for user in (Point3(0.0, 0.0, 100.0), Point3(2.0, 0.0, 0.0)):
            est = point_error(ground, user, 1e-6)
            assert est.degenerate
            assert est.condition_number > 1e12
            assert math.isnan(est.r_xyz_m)
        assert point_error(ground, Point3(2.0, 0.0, 0.0), 1e-6).condition_number == math.inf

    def test_json_dict_none_for_non_finite(self, ground):
        est = point_error(ground, Point3(0.0, 0.0, 100.0), 1e-6)
        data = est.to_json_dict()
        assert data["degenerate"] is True
        assert data["r_xyz_m"] is None

    def test_json_dict_regular(self, ground, ground_user):
        data = point_error(ground, ground_user, 1e-6).to_json_dict()
        assert set(data) == {
            "sigma_x_m",
            "sigma_y_m",
            "sigma_z_m",
            "r_xyz_m",
            "degenerate",
            "condition_number",
        }
        assert data["degenerate"] is False
        assert data["r_xyz_m"] > 0.0

    def test_random_instances_nondegenerate(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            constellation, user = random_instance(rng)
            est = point_error(constellation, user, 1e-6)
            assert not est.degenerate
            assert est.r_xyz_m > 0.0
