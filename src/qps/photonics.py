"""Two-photon coincidence dip model and balance-point estimation.

The coincidence counting rate of each interferometer falls to a unique
minimum when the two photon paths have equal propagation time; locating
that minimum is how a delay observable is measured. The dip is modeled as
a Gaussian notch in the count rate,

    R_c(dt) = alpha1 * alpha2 * eta_v_sq * (1 - exp(-(delta_omega * dt)^2)),

with dt the residual path imbalance in seconds. This module simulates
sampled scans of that curve under Poisson counting statistics and fits the
model back to a scan to recover the balance point and its uncertainty.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import FitDivergedError, InvalidInputError, NoDipFoundError
from .geometry import SPEED_OF_LIGHT

#: Fit iteration budget.
MAX_FIT_ITERATIONS = 100
#: Relative parameter-step convergence threshold.
FIT_STEP_RTOL = 1e-10
#: Required dip depth, in counting standard deviations, below the plateau.
MIN_DIP_SIGNIFICANCE = 3.0


@dataclass(frozen=True)
class HomConfig:
    """Photonic parameters of one coincidence interferometer.

    Attributes:
        alpha1: Quantum efficiency of the first detector, in (0, 1].
        alpha2: Quantum efficiency of the second detector, in (0, 1].
        eta_v_sq: Combined source/coupling amplitude (pump intensity times
            coupling constants), counts per second. The dip plateau is
            ``alpha1 * alpha2 * eta_v_sq``.
        delta_omega: Bandwidth of the band-pass filters in front of the
            detectors, rad/s. Sets the dip width ``c / delta_omega`` in
            offset units.
    """

    alpha1: float
    alpha2: float
    eta_v_sq: float
    delta_omega: float

    def __post_init__(self):
        for name in ("alpha1", "alpha2"):
            v = getattr(self, name)
            if not (math.isfinite(v) and 0.0 < v <= 1.0):
                raise InvalidInputError(f"{name} must be in (0, 1], got {v!r}")
        if not (math.isfinite(self.eta_v_sq) and self.eta_v_sq > 0.0):
            raise InvalidInputError(f"eta_v_sq must be > 0, got {self.eta_v_sq!r}")
        if not (math.isfinite(self.delta_omega) and self.delta_omega > 0.0):
            raise InvalidInputError(f"delta_omega must be > 0, got {self.delta_omega!r}")

    @property
    def plateau_rate(self) -> float:
        """Coincidence rate far from balance, counts/second."""
        return self.alpha1 * self.alpha2 * self.eta_v_sq


def coincidence_rate(config: HomConfig, imbalance: float | np.ndarray) -> float | np.ndarray:
    """Coincidence counting rate at a path-time imbalance (seconds).

    Even in the imbalance, exactly zero at balance, and saturating at the
    plateau rate for large imbalance. Accepts a scalar or an array.
    """
    scalar = np.isscalar(imbalance)
    dt = np.asarray(imbalance, dtype=float)
    if not np.all(np.isfinite(dt)):
        raise InvalidInputError("imbalance must be finite")
    q = config.delta_omega * dt
    rate = config.plateau_rate * (-np.expm1(-(q * q)))
    return float(rate) if scalar else rate


@dataclass(frozen=True)
class DipScan:
    """A sampled coincidence-rate-vs-delay-offset curve.

    Attributes:
        offsets_m: Strictly increasing trial delay offsets, meters.
        rates_hz: Observed coincidence rates, counts/second.
        integration_time_s: Counting time per grid point, seconds.
        rng_seed: Seed used to generate the counting noise.
    """

    offsets_m: np.ndarray
    rates_hz: np.ndarray
    integration_time_s: float
    rng_seed: int

    def __post_init__(self):
        offsets = np.asarray(self.offsets_m, dtype=float)
        rates = np.asarray(self.rates_hz, dtype=float)
        if offsets.ndim != 1 or offsets.size == 0:
            raise InvalidInputError("offsets must be a nonempty 1-D sequence")
        if not np.all(np.isfinite(offsets)) or not np.all(np.isfinite(rates)):
            raise InvalidInputError("scan values must be finite")
        if np.any(np.diff(offsets) <= 0.0):
            raise InvalidInputError("offsets must be strictly increasing")
        if rates.shape != offsets.shape:
            raise InvalidInputError("offsets and rates must have equal length")
        if np.any(rates < 0.0):
            raise InvalidInputError("rates must be nonnegative")
        if not (math.isfinite(self.integration_time_s) and self.integration_time_s > 0.0):
            raise InvalidInputError("integration time must be > 0")
        object.__setattr__(self, "offsets_m", offsets)
        object.__setattr__(self, "rates_hz", rates)

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["offset_m", "rate_hz"])
        for o, r in zip(self.offsets_m, self.rates_hz):
            writer.writerow([repr(float(o)), repr(float(r))])
        return buf.getvalue()

    def to_json_dict(self) -> dict:
        return {
            "offsets_m": [float(v) for v in self.offsets_m],
            "rates_hz": [float(v) for v in self.rates_hz],
            "integration_time_s": self.integration_time_s,
            "rng_seed": self.rng_seed,
        }


def simulate_dip_scan(
    config: HomConfig,
    true_balance_offset: float,
    grid: Sequence[float] | np.ndarray,
    integration_time: float,
    seed: int,
    noise: bool = True,
) -> DipScan:
    """Simulate a dip scan over trial delay offsets.

    At each grid offset ``o`` the expected count is the model rate at
    imbalance ``(o - true_balance_offset) / c`` times the integration
    time; the observed count is Poisson-distributed with that mean unless
    ``noise`` is disabled. A fixed seed gives a bit-identical scan.

    Args:
        config: Interferometer parameters.
        true_balance_offset: Delay offset (meters) at which the
            interferometer is actually balanced.
        grid: Strictly increasing trial offsets, meters.
        integration_time: Counting time per point, seconds.
        seed: RNG seed for the counting noise.
        noise: When False, record the exact expected rates instead.
    """
    offsets = np.asarray(grid, dtype=float)
    if offsets.ndim != 1 or offsets.size == 0:
        raise InvalidInputError("grid must be a nonempty 1-D sequence")
    if np.any(np.diff(offsets) <= 0.0):
        raise InvalidInputError("grid offsets must be strictly increasing")
    if not (math.isfinite(integration_time) and integration_time > 0.0):
        raise InvalidInputError("integration time must be > 0")
    if not math.isfinite(true_balance_offset):
        raise InvalidInputError("true balance offset must be finite")

    expected = coincidence_rate(config, (offsets - true_balance_offset) / SPEED_OF_LIGHT)
    expected_counts = expected * integration_time
    if noise:
        rng = np.random.default_rng(seed)
        counts = rng.poisson(expected_counts).astype(float)
    else:
        counts = expected_counts
    return DipScan(
        offsets_m=offsets,
        rates_hz=counts / integration_time,
        integration_time_s=float(integration_time),
        rng_seed=int(seed),
    )


class BalanceEstimate(NamedTuple):
    """Fitted balance point of a dip scan.

    The first two fields are the contract of the estimate: the balancing
    offset and its 1-sigma uncertainty, both in meters. The remaining
    fields are fit diagnostics.
    """

    offset_m: float
    sigma_m: float
    plateau_hz: float
    delta_omega: float
    iterations: int


def estimate_balance(
    scan: DipScan, config: HomConfig, fit_bandwidth: bool = True
) -> BalanceEstimate:
    """Fit the dip model to a scan and return the balance point.

    A weighted Levenberg-Marquardt fit of (plateau, center[, bandwidth])
    against the scan, with per-point weights from Poisson counting
    statistics (counts floored at one). The center uncertainty is read
    off the parameter covariance of the weighted fit; it is the
    delay-measurement error that drives position error downstream. Each
    trial point is evaluated once, for its chi-squared, weighted residuals
    and weighted Jacobian together; the accepted point carries them into
    the next step, and the covariance reuses the Jacobian of the point
    returned.

    Args:
        scan: The measured (or simulated) scan.
        config: Nominal interferometer parameters; supplies the bandwidth
            starting value (or fixed value when ``fit_bandwidth`` is
            False).
        fit_bandwidth: Fit the filter bandwidth along with plateau and
            center instead of trusting the configured value.

    Raises:
        NoDipFoundError: The scan minimum is not significantly below the
            scan plateau, so there is no dip to fit.
        FitDivergedError: The fit did not converge in the iteration
            budget.
    """
    offsets = scan.offsets_m
    rates = scan.rates_hz
    t_int = scan.integration_time_s
    counts = rates * t_int

    # Dip-coverage precondition: the deepest point must sit at least
    # MIN_DIP_SIGNIFICANCE counting standard deviations below the highest.
    peak = float(counts.max())
    depth = peak - float(counts.min())
    if depth < MIN_DIP_SIGNIFICANCE * math.sqrt(max(peak, 1.0)):
        raise NoDipFoundError(
            f"scan depth {depth:.3g} counts is below "
            f"{MIN_DIP_SIGNIFICANCE} counting standard deviations of the plateau"
        )

    sigma_rate = np.sqrt(np.maximum(counts, 1.0)) / t_int
    weights = 1.0 / sigma_rate

    dw0 = config.delta_omega
    theta = np.array(
        [max(float(rates.max()), 1.0 / t_int), float(offsets[np.argmin(rates)])]
        + ([dw0] if fit_bandwidth else [])
    )

    def unpack(th: np.ndarray) -> tuple[float, float, float]:
        return float(th[0]), float(th[1]), (float(th[2]) if fit_bandwidth else dw0)

    def evaluate(th: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
        """Chi-squared, weighted residuals and weighted Jacobian at ``th``."""
        plateau, center, dw = unpack(th)
        shift = offsets - center
        q = dw * shift / SPEED_OF_LIGHT
        neg_q2 = -(q * q)
        e = np.exp(neg_q2)
        residuals = weights * (plateau * (-np.expm1(neg_q2)) - rates)
        jac = np.empty((offsets.size, th.size))
        np.multiply(weights, 1.0 - e, out=jac[:, 0])
        np.multiply(weights, -plateau * e * 2.0 * q * dw / SPEED_OF_LIGHT, out=jac[:, 1])
        if fit_bandwidth:
            np.multiply(weights, plateau * e * 2.0 * q * shift / SPEED_OF_LIGHT, out=jac[:, 2])
        return float((residuals**2).sum()), residuals, jac

    def finish(theta: np.ndarray, jac: np.ndarray, iteration: int) -> BalanceEstimate:
        plateau, center, dw = unpack(theta)
        covariance = np.linalg.inv(jac.T @ jac)
        return BalanceEstimate(
            offset_m=center,
            sigma_m=float(math.sqrt(covariance[1, 1])),
            plateau_hz=plateau,
            delta_omega=dw,
            iterations=iteration,
        )

    f_cur, res_cur, jac_cur = evaluate(theta)
    tiny = np.finfo(float).tiny
    for iteration in range(1, MAX_FIT_ITERATIONS + 1):
        grad = jac_cur.T @ res_cur
        jtj = jac_cur.T @ jac_cur
        lam = 0.0
        while True:
            damp = jtj + lam * np.diag(np.diag(jtj)) if lam else jtj
            try:
                step = np.linalg.solve(damp, -grad)
            except np.linalg.LinAlgError:
                lam = max(10.0 * lam, 1e-4)
                if lam > 1e14:
                    raise FitDivergedError("normal equations singular at every damping level")
                continue
            trial = theta + step
            f_trial, res_trial, jac_trial = evaluate(trial)
            # Parameter-step convergence: once no component can move by
            # more than the relative threshold, the fit is done whether or
            # not the (ulp-level) residual change is an improvement.
            if float((np.abs(step) / (np.abs(theta) + tiny)).max()) < FIT_STEP_RTOL:
                if f_trial <= f_cur:
                    return finish(trial, jac_trial, iteration)
                return finish(theta, jac_cur, iteration)
            if f_trial <= f_cur:
                break
            lam = max(10.0 * lam, 1e-4)
            if lam > 1e14:
                raise FitDivergedError("no damping level reduced the fit residual")
        theta, f_cur, res_cur, jac_cur = trial, f_trial, res_trial, jac_trial
    raise FitDivergedError(f"dip fit did not converge in {MAX_FIT_ITERATIONS} iterations")
