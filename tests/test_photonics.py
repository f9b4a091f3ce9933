import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qps import (
    SPEED_OF_LIGHT,
    BalanceEstimate,
    DipScan,
    FitDivergedError,
    HomConfig,
    InvalidInputError,
    NoDipFoundError,
    coincidence_rate,
    estimate_balance,
    simulate_dip_scan,
)

from .support import outcome, reference_estimate_balance

CONFIG = HomConfig(alpha1=0.8, alpha2=0.8, eta_v_sq=15625.0, delta_omega=1e12)
#: Dip width in offset units, meters.
WIDTH_M = SPEED_OF_LIGHT / CONFIG.delta_omega


def dip_grid(center: float, halfwidths: float = 3.0, points: int = 41) -> np.ndarray:
    return center + np.linspace(-halfwidths * WIDTH_M, halfwidths * WIDTH_M, points)


class TestHomConfig:
    def test_plateau_rate(self):
        assert math.isclose(CONFIG.plateau_rate, 10000.0, rel_tol=1e-12)
        assert CONFIG.plateau_rate == 0.8 * 0.8 * 15625.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(alpha1=0.0),
            dict(alpha1=1.2),
            dict(alpha2=-0.1),
            dict(eta_v_sq=0.0),
            dict(delta_omega=0.0),
            dict(delta_omega=math.inf),
        ],
    )
    def test_invalid_parameters(self, kwargs):
        base = dict(alpha1=0.8, alpha2=0.8, eta_v_sq=15625.0, delta_omega=1e12)
        with pytest.raises(InvalidInputError):
            HomConfig(**{**base, **kwargs})


class TestCoincidenceRate:
    def test_exact_zero_at_balance(self):
        assert coincidence_rate(CONFIG, 0.0) == 0.0

    def test_plateau_limit(self):
        assert coincidence_rate(CONFIG, 1.0) == CONFIG.plateau_rate

    def test_unit_argument(self):
        expected = CONFIG.plateau_rate * (1.0 - math.exp(-1.0))
        assert math.isclose(
            coincidence_rate(CONFIG, 1.0 / CONFIG.delta_omega), expected, rel_tol=1e-12
        )

    def test_vectorized(self):
        dts = np.array([-1e-12, 0.0, 1e-12])
        rates = coincidence_rate(CONFIG, dts)
        assert rates.shape == (3,)
        assert rates[0] == rates[2]
        assert rates[1] == 0.0

    def test_rejects_nan(self):
        with pytest.raises(InvalidInputError):
            coincidence_rate(CONFIG, math.nan)

    @given(dt=st.floats(min_value=-1e-10, max_value=1e-10))
    @settings(max_examples=200, deadline=None)
    def test_even_in_imbalance(self, dt):
        assert coincidence_rate(CONFIG, dt) == coincidence_rate(CONFIG, -dt)

    @given(
        small=st.floats(min_value=0.0, max_value=5e-12),
        extra=st.floats(min_value=1e-15, max_value=5e-12),
    )
    @settings(max_examples=200, deadline=None)
    def test_monotone_in_magnitude(self, small, extra):
        assert coincidence_rate(CONFIG, small + extra) > coincidence_rate(CONFIG, small)


class TestSimulateDipScan:
    def test_noise_free_zero_at_true_offset(self):
        grid = dip_grid(5e-4)
        scan = simulate_dip_scan(CONFIG, 5e-4, grid, 1.0, seed=0, noise=False)
        assert scan.rates_hz[20] == 0.0

    def test_noise_free_symmetric(self):
        scan = simulate_dip_scan(CONFIG, 0.0, dip_grid(0.0), 1.0, seed=0, noise=False)
        np.testing.assert_allclose(scan.rates_hz, scan.rates_hz[::-1], rtol=1e-12)

    def test_seed_determinism(self):
        grid = dip_grid(1e-4)
        one = simulate_dip_scan(CONFIG, 1e-4, grid, 2.0, seed=123)
        two = simulate_dip_scan(CONFIG, 1e-4, grid, 2.0, seed=123)
        assert np.array_equal(one.rates_hz, two.rates_hz)

    def test_different_seeds_differ(self):
        grid = dip_grid(1e-4)
        one = simulate_dip_scan(CONFIG, 1e-4, grid, 2.0, seed=1)
        two = simulate_dip_scan(CONFIG, 1e-4, grid, 2.0, seed=2)
        assert not np.array_equal(one.rates_hz, two.rates_hz)

    def test_unsorted_grid_rejected(self):
        with pytest.raises(InvalidInputError):
            simulate_dip_scan(CONFIG, 0.0, np.array([0.0, 2.0, 1.0]), 1.0, seed=0)

    def test_bad_integration_time_rejected(self):
        with pytest.raises(InvalidInputError):
            simulate_dip_scan(CONFIG, 0.0, dip_grid(0.0), 0.0, seed=0)


class TestDipScanType:
    def test_validation(self):
        with pytest.raises(InvalidInputError):
            DipScan(np.array([0.0, 1.0]), np.array([1.0]), 1.0, 0)
        with pytest.raises(InvalidInputError):
            DipScan(np.array([1.0, 0.0]), np.array([1.0, 1.0]), 1.0, 0)
        with pytest.raises(InvalidInputError):
            DipScan(np.array([0.0, 1.0]), np.array([-1.0, 1.0]), 1.0, 0)

    def test_csv_round_trip(self):
        scan = simulate_dip_scan(CONFIG, 0.0, dip_grid(0.0), 1.0, seed=5)
        lines = scan.to_csv().strip().split("\n")
        assert lines[0] == "offset_m,rate_hz"
        parsed = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        np.testing.assert_array_equal(parsed[:, 0], scan.offsets_m)
        np.testing.assert_array_equal(parsed[:, 1], scan.rates_hz)

    def test_json_dict(self):
        scan = simulate_dip_scan(CONFIG, 0.0, dip_grid(0.0), 1.0, seed=5)
        data = scan.to_json_dict()
        assert set(data) == {"offsets_m", "rates_hz", "integration_time_s", "rng_seed"}
        assert data["rng_seed"] == 5


class TestEstimateBalance:
    def test_noise_free_recovery(self):
        true = 5e-4
        scan = simulate_dip_scan(CONFIG, true, dip_grid(true), 1.0, seed=0, noise=False)
        fit = estimate_balance(scan, CONFIG)
        assert abs(fit.offset_m - true) <= 1e-12 * abs(true)
        assert fit.sigma_m > 0.0

    def test_noise_free_recovery_fixed_bandwidth(self):
        true = 5e-4
        scan = simulate_dip_scan(CONFIG, true, dip_grid(true), 1.0, seed=0, noise=False)
        fit = estimate_balance(scan, CONFIG, fit_bandwidth=False)
        assert abs(fit.offset_m - true) <= 1e-12 * abs(true)
        assert fit.delta_omega == CONFIG.delta_omega

    def test_off_center_grid_still_recovers(self):
        true = 2e-4
        grid = true + np.linspace(-4.0 * WIDTH_M, 2.0 * WIDTH_M, 61)
        scan = simulate_dip_scan(CONFIG, true, grid, 1.0, seed=0, noise=False)
        fit = estimate_balance(scan, CONFIG)
        assert abs(fit.offset_m - true) <= 1e-10 * abs(true)

    def test_plateau_only_scan_raises(self):
        grid = np.linspace(10.0 * WIDTH_M, 14.0 * WIDTH_M, 21)
        scan = simulate_dip_scan(CONFIG, 0.0, grid, 1.0, seed=0, noise=False)
        with pytest.raises(NoDipFoundError):
            estimate_balance(scan, CONFIG)

    def test_tuple_contract(self):
        scan = simulate_dip_scan(CONFIG, 0.0, dip_grid(0.0), 1.0, seed=0, noise=False)
        offset, sigma, *_ = estimate_balance(scan, CONFIG)
        assert offset == pytest.approx(0.0, abs=1e-15)
        assert sigma > 0.0

    def test_poisson_errors_match_reported_sigma(self):
        true = 5e-4
        grid = dip_grid(true)
        misses = 0
        for seed in range(150):
            scan = simulate_dip_scan(CONFIG, true, grid, 1.0, seed=seed)
            fit = estimate_balance(scan, CONFIG)
            if abs(fit.offset_m - true) >= 5.0 * fit.sigma_m:
                misses += 1
        assert misses <= 1

    def test_noise_free_recovery_over_random_grids(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            true = float(rng.uniform(-1e-3, 1e-3))
            lo = true - float(rng.uniform(2.0, 5.0)) * WIDTH_M
            hi = true + float(rng.uniform(2.0, 5.0)) * WIDTH_M
            grid = np.linspace(lo, hi, int(rng.integers(25, 81)))
            scan = simulate_dip_scan(CONFIG, true, grid, 1.0, seed=0, noise=False)
            fit = estimate_balance(scan, CONFIG)
            assert abs(fit.offset_m - true) <= 1e-10 * max(abs(true), WIDTH_M)

    def test_sigma_scales_with_integration_time(self):
        true = 0.0
        grid = dip_grid(true)
        sigma_1 = estimate_balance(
            simulate_dip_scan(CONFIG, true, grid, 1.0, seed=0, noise=False), CONFIG
        ).sigma_m
        sigma_10 = estimate_balance(
            simulate_dip_scan(CONFIG, true, grid, 10.0, seed=0, noise=False), CONFIG
        ).sigma_m
        ratio = sigma_1 / sigma_10
        assert math.sqrt(10.0) / 1.5 <= ratio <= math.sqrt(10.0) * 1.5


class TestShortScans:
    """A scan too short to fit, or whose fit ends where the center has no
    variance, raises a QpsError, not numpy's or math's own exception."""

    @pytest.mark.parametrize("points, fit_bandwidth", [(1, True), (2, True), (1, False)])
    def test_fewer_points_than_parameters_rejected(self, points, fit_bandwidth):
        rng = np.random.default_rng(points)
        for seed in range(20):
            grid = (float(rng.uniform(-3.0, 0.0)) + np.arange(points)) * WIDTH_M
            scan = simulate_dip_scan(CONFIG, 0.0, grid, 0.01, seed)
            with pytest.raises(InvalidInputError, match=f"a scan of {points} points cannot fit"):
                estimate_balance(scan, CONFIG, fit_bandwidth)

    # (first offset, last offset, points, integration time, seed, fit the
    # bandwidth) of seeded scans whose fit stops at a singular normal
    # matrix or a negative center variance.
    DEGENERATE_FITS = [
        (1.8104908019315714e-05, 0.002094610293250301, 4, 0.14166341694502438, 43, True),
        (7.591764420867006e-05, 0.002847628871693519, 3, 0.0023450075366215723, 92, True),
        (0.00015879777428644533, 0.002298959869123038, 2, 0.00885038934951054, 425, False),
        (-0.00010765114447853821, 0.002258588467658301, 2, 0.04191114123015526, 1681, False),
    ]

    @pytest.mark.parametrize("lo, hi, points, t_int, seed, fit_bandwidth", DEGENERATE_FITS)
    def test_degenerate_fit_diverges(self, lo, hi, points, t_int, seed, fit_bandwidth):
        scan = simulate_dip_scan(CONFIG, 0.0, np.linspace(lo, hi, points), t_int, seed)
        with pytest.raises(FitDivergedError, match="at the fitted point"):
            estimate_balance(scan, CONFIG, fit_bandwidth)


class TestAgainstSeparateEvaluations:
    """The fit carries each point's residuals and Jacobian with it; its
    results must equal, bit for bit, those of the loop that evaluates the
    model, chi-squared and Jacobian in separate passes."""

    def test_seeded_scans_match_reference_loop(self):
        rng = np.random.default_rng(2404)
        kinds = set()
        for seed in range(500):
            true = float(rng.uniform(-1.0, 1.0)) * WIDTH_M
            halfwidths = float(rng.uniform(1.5, 6.0))
            grid = dip_grid(true, halfwidths, (21, 41, 81)[seed % 3])
            grid += float(rng.uniform(-0.5, 0.5)) * WIDTH_M
            if seed % 50 == 0:
                grid += 50.0 * WIDTH_M  # plateau only: no dip to fit
            t_int = 10.0 ** float(rng.uniform(-3.5, 0.0))  # down to 3 counts a point
            scan = simulate_dip_scan(CONFIG, true, grid, t_int, seed, noise=seed % 2 == 1)
            for fit_bandwidth in (True, False):
                got = outcome(estimate_balance, scan, CONFIG, fit_bandwidth)
                assert got == outcome(reference_estimate_balance, scan, CONFIG, fit_bandwidth)
                kinds.add(got[0] if isinstance(got[0], type) else BalanceEstimate)
        assert kinds == {BalanceEstimate, NoDipFoundError, FitDivergedError}
