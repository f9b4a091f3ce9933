import math
import warnings

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
    QpsError,
    coincidence_rate,
    estimate_balance,
    simulate_dip_scan,
)

from qps.photonics import MAX_EXPECTED_COUNT

from .support import reference_estimate_balance

CONFIG = HomConfig(alpha1=0.8, alpha2=0.8, eta_v_sq=15625.0, delta_omega=1e12)
#: Dip width in offset units, meters.
WIDTH_M = SPEED_OF_LIGHT / CONFIG.delta_omega


def dip_grid(center: float, halfwidths: float = 3.0, points: int = 41) -> np.ndarray:
    return center + np.linspace(-halfwidths * WIDTH_M, halfwidths * WIDTH_M, points)


def short_scans(count: int):
    """``count`` seeded short scans of a dip balanced at zero offset: 2-7
    points over 0.5-10 dip widths, starting between 8 dip widths below and
    2 above the balance point, at 3 to 10^4 counts a point on the plateau.
    Yields (first offset, last offset, points, integration time, seed)."""
    rng = np.random.default_rng(2600)
    for seed in range(count):
        points = int(rng.integers(2, 8))
        lo = WIDTH_M * float(rng.uniform(-8.0, 2.0))
        hi = lo + WIDTH_M * float(rng.uniform(0.5, 10.0))
        yield lo, hi, points, 10.0 ** float(rng.uniform(-3.5, 0.0)), seed


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

    def test_non_finite_grid_rejected(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(InvalidInputError, match="grid offsets must be finite"):
                simulate_dip_scan(CONFIG, 0.0, np.array([0.0, 1e-4, bad]), 1.0, seed=0)

    @pytest.mark.parametrize("t_int", [1e16, 1e300])
    def test_counts_beyond_poisson_limit_rejected(self, t_int):
        # 1e4 Hz on the plateau: 1e20 or more expected counts a point,
        # beyond what numpy's Poisson sampler accepts.
        with pytest.raises(InvalidInputError, match="expected count .* exceeds 9.2e\\+18"):
            simulate_dip_scan(CONFIG, 0.0, dip_grid(0.0, points=5), t_int, seed=1)
        scan = simulate_dip_scan(CONFIG, 0.0, dip_grid(0.0, points=5), t_int, seed=1, noise=False)
        assert np.isfinite(scan.rates_hz).all()

    def test_counts_just_below_poisson_limit_sampled(self):
        t_int = 0.99 * MAX_EXPECTED_COUNT / CONFIG.plateau_rate
        scan = simulate_dip_scan(CONFIG, 0.0, np.array([0.0, 1.0]), t_int, seed=2)
        assert scan.rates_hz[0] == 0.0 and scan.rates_hz[1] > 0.0

    @pytest.mark.parametrize("noise", [True, False])
    def test_scan_passes_dip_scan_checks(self, noise):
        # The scan is built without DipScan's own checks; it must pass them.
        scan = simulate_dip_scan(CONFIG, 1e-4, dip_grid(1e-4), 2.0, seed=4, noise=noise)
        DipScan(scan.offsets_m, scan.rates_hz, scan.integration_time_s, scan.rng_seed)


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
    # matrix or a negative center variance. The first four came from an
    # earlier fuzz of short scans; the last four are the first scans of
    # short_scans() that reach each raise path with and without the
    # bandwidth fitted.
    DEGENERATE_FITS = [
        (1.8104908019315714e-05, 0.002094610293250301, 4, 0.14166341694502438, 43, True),
        (7.591764420867006e-05, 0.002847628871693519, 3, 0.0023450075366215723, 92, True),
        (0.00015879777428644533, 0.002298959869123038, 2, 0.00885038934951054, 425, False),
        (-0.00010765114447853821, 0.002258588467658301, 2, 0.04191114123015526, 1681, False),
        (-0.0010070308691948436, -0.0003181267153464304, 6, 0.0006501352833942134, 9, True),
        (0.00018563375100157038, 0.0024460059117690693, 2, 0.001918005968108812, 35, False),
        (-7.185821469975895e-05, 0.0024721045927074774, 2, 0.0022653438990748558, 94, False),
        (0.00018540936974742057, 0.0021176395462228523, 3, 0.011883442782057213, 466, True),
    ]

    @staticmethod
    def fit(lo, hi, points, t_int, seed, fit_bandwidth):
        scan = simulate_dip_scan(CONFIG, 0.0, np.linspace(lo, hi, points), t_int, seed)
        return estimate_balance(scan, CONFIG, fit_bandwidth)

    @pytest.mark.parametrize("lo, hi, points, t_int, seed, fit_bandwidth", DEGENERATE_FITS)
    def test_degenerate_fit_diverges(self, lo, hi, points, t_int, seed, fit_bandwidth):
        with pytest.raises(FitDivergedError, match="at the fitted point"):
            self.fit(lo, hi, points, t_int, seed, fit_bandwidth)

    def test_pinned_fits_reach_both_raise_paths(self):
        messages = []
        for case in self.DEGENERATE_FITS:
            with pytest.raises(FitDivergedError) as info:
                self.fit(*case)
            messages.append(str(info.value))
        assert "normal equations singular at the fitted point" in messages
        assert any(m.startswith("center variance ") for m in messages)

    @pytest.mark.parametrize("fit_bandwidth", [True, False])
    def test_non_finite_start_diverges(self, fit_bandwidth):
        # Offsets 2e308 apart: the shift from the starting center overflows.
        scan = DipScan(np.array([-1e308, 0.0, 1e308]), np.array([0.0, 1e4, 1e4]), 1.0, 0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FitDivergedError, match="not finite at the starting point"):
                estimate_balance(scan, CONFIG, fit_bandwidth)

    def test_fuzz_raises_only_qps_errors(self):
        """Short scans, where damped steps can throw the center far out,
        give an estimate or a QpsError, with no warning."""
        estimates = 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for lo, hi, points, t_int, seed in short_scans(2000):
                for fit_bandwidth in (True, False):
                    try:
                        self.fit(lo, hi, points, t_int, seed, fit_bandwidth)
                    except QpsError:
                        continue
                    estimates += 1
        assert estimates > 0


class TestAgainstLapackFit:
    """The fit builds its normal equations from one Gram matrix per trial
    point and solves them in closed form. Over 500 seeded scans it must
    agree with the copy of the fit that it replaced, which built them by
    matrix products and solved them with LAPACK, within stated tolerances.
    The worst differences measured were 3.3e-7 sigma in the offset, and
    1.2e-8 in sigma, 1.0e-8 in the plateau and 6.2e-9 in the bandwidth,
    relative."""

    OFFSET_TOL_SIGMAS = 1e-6
    SIGMA_RTOL = 1e-7
    #: Plateau and bandwidth.
    NUISANCE_RTOL = 5e-8

    @staticmethod
    def fit(call, scan, fit_bandwidth):
        try:
            return call(scan, CONFIG, fit_bandwidth)
        except QpsError as exc:
            return exc

    def test_seeded_scans_match_reference_loop(self):
        rng = np.random.default_rng(2404)
        kinds = set()
        unsettled = 0
        for seed in range(500):
            true = float(rng.uniform(-1.0, 1.0)) * WIDTH_M
            halfwidths = float(rng.uniform(1.5, 6.0))
            grid = dip_grid(true, halfwidths, (21, 41, 81)[seed % 3])
            grid += float(rng.uniform(-0.5, 0.5)) * WIDTH_M
            if seed % 50 == 0:
                grid += 50.0 * WIDTH_M  # plateau only: no dip to fit
            t_int = 10.0 ** float(rng.uniform(-3.5, 0.0))  # down to 3 counts a point
            scan = simulate_dip_scan(CONFIG, true, grid, t_int, seed, noise=seed % 2 == 1)
            span = grid[-1] - grid[0]
            for fit_bandwidth in (True, False):
                got = self.fit(estimate_balance, scan, fit_bandwidth)
                ref = self.fit(reference_estimate_balance, scan, fit_bandwidth)
                kinds.add(type(got))
                if isinstance(ref, (NoDipFoundError, InvalidInputError)):
                    # The prechecks did not change.
                    assert (type(got), str(got)) == (type(ref), str(ref))
                elif isinstance(ref, BalanceEstimate) and ref.sigma_m < span:
                    assert isinstance(got, BalanceEstimate), (seed, fit_bandwidth, got)
                    assert abs(got.offset_m - ref.offset_m) <= self.OFFSET_TOL_SIGMAS * ref.sigma_m
                    assert got.sigma_m == pytest.approx(ref.sigma_m, rel=self.SIGMA_RTOL)
                    assert got.plateau_hz == pytest.approx(ref.plateau_hz, rel=self.NUISANCE_RTOL)
                    assert got.delta_omega == pytest.approx(ref.delta_omega, rel=self.NUISANCE_RTOL)
                else:
                    # The reference diverged or could not place the dip
                    # within the scan; the fit must do one of the two too.
                    unsettled += 1
                    assert isinstance(got, FitDivergedError) or got.sigma_m >= span
        assert kinds == {BalanceEstimate, NoDipFoundError, FitDivergedError}
        assert unsettled > 0
