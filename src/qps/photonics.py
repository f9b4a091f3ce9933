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
import sys
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
#: Largest expected count per point that a noisy scan samples; numpy's
#: Poisson sampler rejects means above about 9.22e18.
MAX_EXPECTED_COUNT = 9.2e18


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
    if not np.isfinite(dt).all():
        raise InvalidInputError("imbalance must be finite")
    rate = _rate(config, dt)
    return float(rate) if scalar else rate


def _rate(config: HomConfig, dt: np.ndarray) -> np.ndarray:
    """The coincidence rate at finite imbalances ``dt``, unchecked."""
    q = config.delta_omega * dt
    return config.plateau_rate * (-np.expm1(-(q * q)))


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
        if not np.isfinite(offsets).all() or not np.isfinite(rates).all():
            raise InvalidInputError("scan values must be finite")
        if (np.diff(offsets) <= 0.0).any():
            raise InvalidInputError("offsets must be strictly increasing")
        if rates.shape != offsets.shape:
            raise InvalidInputError("offsets and rates must have equal length")
        if (rates < 0.0).any():
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
    ``noise`` is disabled. A fixed seed gives a bit-identical scan. The
    inputs are checked once, here; the scan is built from them without
    repeating the checks of :class:`DipScan`.

    Args:
        config: Interferometer parameters.
        true_balance_offset: Delay offset (meters) at which the
            interferometer is actually balanced.
        grid: Strictly increasing finite trial offsets, meters.
        integration_time: Counting time per point, seconds.
        seed: RNG seed for the counting noise.
        noise: When False, record the exact expected rates instead.

    Raises:
        InvalidInputError: An input is out of range, or, with ``noise``,
            an expected count exceeds ``MAX_EXPECTED_COUNT`` (9.2e18),
            above which Poisson counts cannot be sampled.
    """
    offsets = np.asarray(grid, dtype=float)
    if offsets.ndim != 1 or offsets.size == 0:
        raise InvalidInputError("grid must be a nonempty 1-D sequence")
    if not np.isfinite(offsets).all():
        raise InvalidInputError("grid offsets must be finite")
    if (np.diff(offsets) <= 0.0).any():
        raise InvalidInputError("grid offsets must be strictly increasing")
    if not (math.isfinite(integration_time) and integration_time > 0.0):
        raise InvalidInputError("integration time must be > 0")
    if not math.isfinite(true_balance_offset):
        raise InvalidInputError("true balance offset must be finite")

    expected = _rate(config, (offsets - true_balance_offset) / SPEED_OF_LIGHT)
    if noise:
        peak = float(expected.max()) * integration_time
        if not peak <= MAX_EXPECTED_COUNT:
            raise InvalidInputError(
                f"expected count {peak:.3g} exceeds {MAX_EXPECTED_COUNT:.3g}, "
                "the largest that Poisson counts are sampled for"
            )
        rng = np.random.default_rng(seed)
        counts = rng.poisson(expected * integration_time).astype(float)
    else:
        counts = expected * integration_time
    rates = counts / integration_time
    if not np.isfinite(rates).all():
        raise InvalidInputError("scan values must be finite")
    scan = object.__new__(DipScan)
    vars(scan).update(
        offsets_m=offsets,
        rates_hz=rates,
        integration_time_s=float(integration_time),
        rng_seed=int(seed),
    )
    return scan


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
    delay-measurement error that drives position error downstream.

    Each trial point is evaluated once: its weighted Jacobian columns and
    weighted residuals fill the rows of one array, whose Gram matrix
    gives the normal matrix, the gradient and chi-squared together. The
    damped steps and the covariance are solved in closed form on the
    normal equations scaled to unit diagonal. A trial point where any of
    these is not finite counts as a rejected step, as one that raises
    chi-squared does, and overflow in a far-out trial point warns of
    nothing.

    Args:
        scan: The measured (or simulated) scan.
        config: Nominal interferometer parameters; supplies the bandwidth
            starting value (or fixed value when ``fit_bandwidth`` is
            False).
        fit_bandwidth: Fit the filter bandwidth along with plateau and
            center instead of trusting the configured value.

    Raises:
        InvalidInputError: The scan has fewer points than the fit has
            parameters (3, or 2 with ``fit_bandwidth`` False).
        NoDipFoundError: The scan minimum is not significantly below the
            scan plateau, so there is no dip to fit.
        FitDivergedError: The model is not finite at the starting point,
            the fit did not converge in the iteration budget, or it
            converged where the normal matrix is singular (an exactly zero
            determinant or Jacobian column) or gives the center no
            positive finite variance, so there is no uncertainty to
            report.
    """
    offsets = scan.offsets_m
    n_params = 3 if fit_bandwidth else 2
    if offsets.size < n_params:
        raise InvalidInputError(f"a scan of {offsets.size} points cannot fit {n_params} parameters")
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

    weights = t_int / np.sqrt(np.maximum(counts, 1.0))  # 1 / sigma of each rate
    weighted_rates = weights * rates
    dw0 = config.delta_omega

    # The weighted Jacobian columns, each short of a constant factor (see
    # scaled_system), then the weighted residuals, as rows; two scratch
    # rows follow.
    n_rows = n_params + 1
    buffer = np.empty((n_rows + 2, offsets.size))
    rows, shift, e = buffer[:n_rows], buffer[n_rows], buffer[n_rows + 1]
    rows_t = rows.T
    plateau_row, center_row, residuals = rows[0], rows[1], rows[-1]
    pairs = [(i, j) for i in range(n_params) for j in range(i + 1, n_params)]

    def evaluate(theta: list[float]) -> list[float] | None:
        """The flattened Gram matrix of ``rows`` at ``theta``: the normal
        matrix, the gradient and, last, chi-squared. None where any entry
        is not finite."""
        plateau, center = theta[0], theta[1]
        s = (theta[2] if fit_bandwidth else dw0) / SPEED_OF_LIGHT
        np.subtract(offsets, center, out=shift)
        neg_q2 = np.multiply(shift, shift, out=residuals)
        np.multiply(neg_q2, -(s * s), out=neg_q2)
        np.exp(neg_q2, out=e)
        np.expm1(neg_q2, out=neg_q2)
        np.multiply(neg_q2, weights, out=plateau_row)  # w * (e - 1)
        np.multiply(plateau_row, -plateau, out=residuals)
        np.subtract(residuals, weighted_rates, out=residuals)
        np.multiply(e, shift, out=e)
        np.multiply(e, weights, out=center_row)  # w * e * shift
        if fit_bandwidth:
            np.multiply(center_row, shift, out=rows[2])  # w * e * shift**2
        gram = rows.dot(rows_t).ravel().tolist()
        return gram if all(map(math.isfinite, gram)) else None

    def scaled_system(theta: list[float], gram: list[float]):
        """The normal equations at ``theta`` scaled to unit diagonal: the
        upper off-diagonal entries, the negated gradient and the factor
        that takes each scaled unknown back to its parameter. None where
        a Jacobian column is zero.

        Each row holds a weighted Jacobian column divided by its entry in
        ``factors``: d/d plateau = -w (e - 1), d/d center = -2 plateau
        dw^2 / c^2 * w e shift, d/d bandwidth = 2 plateau dw / c^2 * w e
        shift^2. Scaled to unit norm, the columns give the same system
        whatever these factors are; they enter only on the way back.
        """
        dw = theta[2] if fit_bandwidth else dw0
        scale = 2.0 * theta[0] * dw / SPEED_OF_LIGHT**2
        factors = (-1.0, -scale * dw, scale)[:n_params]
        diagonal = gram[: n_rows * n_params : n_rows + 1]
        if 0.0 in diagonal or 0.0 in factors:
            return None
        r = [1.0 / math.sqrt(g) for g in diagonal]
        off = [gram[i * n_rows + j] * r[i] * r[j] for i, j in pairs]
        rhs = [-gram[i * n_rows + n_params] * ri for i, ri in enumerate(r)]
        back = [ri / k for ri, k in zip(r, factors)]
        return off, rhs, back

    def finish(theta: list[float], gram: list[float], iteration: int) -> BalanceEstimate:
        system = scaled_system(theta, gram)
        unit = [0.0, 1.0, 0.0][:n_params]
        y = None if system is None else _solve_unit_diagonal(system[0], 1.0, unit)
        if y is None:
            raise FitDivergedError("normal equations singular at the fitted point")
        variance = y[1] * system[2][1] ** 2
        if not 0.0 < variance < math.inf:
            raise FitDivergedError(
                f"center variance {variance!r} at the fitted point is not positive and finite"
            )
        return BalanceEstimate(
            offset_m=theta[1],
            sigma_m=math.sqrt(variance),
            plateau_hz=theta[0],
            delta_omega=theta[2] if fit_bandwidth else dw0,
            iterations=iteration,
        )

    theta = [max(float(rates.max()), 1.0 / t_int), float(offsets[rates.argmin()])]
    if fit_bandwidth:
        theta.append(dw0)
    tiny = sys.float_info.min
    with np.errstate(all="ignore"):
        gram = evaluate(theta)
        if gram is None:
            raise FitDivergedError("the dip model is not finite at the starting point")
        for iteration in range(1, MAX_FIT_ITERATIONS + 1):
            system = scaled_system(theta, gram)
            lam = 0.0
            while True:
                y = None if system is None else _solve_unit_diagonal(system[0], 1.0 + lam, system[1])
                if y is None:
                    lam = max(10.0 * lam, 1e-4)
                    if lam > 1e14:
                        raise FitDivergedError("normal equations singular at every damping level")
                    continue
                step = [v * b for v, b in zip(y, system[2])]
                trial = [t + d for t, d in zip(theta, step)]
                trial_gram = evaluate(trial)
                better = trial_gram is not None and trial_gram[-1] <= gram[-1]
                # Parameter-step convergence: once no component can move by
                # more than the relative threshold, the fit is done whether
                # or not the (ulp-level) residual change is an improvement.
                if all(abs(d) / (abs(t) + tiny) < FIT_STEP_RTOL for d, t in zip(step, theta)):
                    if better:
                        return finish(trial, trial_gram, iteration)
                    return finish(theta, gram, iteration)
                if better:
                    break
                lam = max(10.0 * lam, 1e-4)
                if lam > 1e14:
                    raise FitDivergedError("no damping level reduced the fit residual")
            theta, gram = trial, trial_gram
    raise FitDivergedError(f"dip fit did not converge in {MAX_FIT_ITERATIONS} iterations")


def _solve_unit_diagonal(off: list[float], diag: float, rhs: list[float]) -> list[float] | None:
    """Solve the symmetric 2 x 2 or 3 x 3 system whose diagonal entries are
    all ``diag`` and whose upper off-diagonal entries are ``off`` (row
    order), by cofactors; None where the determinant is exactly zero."""
    if len(rhs) == 2:
        (a,) = off
        det = diag * diag - a * a
        if det == 0.0:
            return None
        r0, r1 = rhs
        return [(diag * r0 - a * r1) / det, (diag * r1 - a * r0) / det]
    a, b, c = off
    d2 = diag * diag
    c00, c11, c22 = d2 - c * c, d2 - b * b, d2 - a * a
    c01, c02, c12 = b * c - a * diag, a * c - b * diag, a * b - c * diag
    det = diag * c00 + a * c01 + b * c02
    if det == 0.0:
        return None
    r0, r1, r2 = rhs
    return [
        (c00 * r0 + c01 * r1 + c02 * r2) / det,
        (c01 * r0 + c11 * r1 + c12 * r2) / det,
        (c02 * r0 + c12 * r1 + c22 * r2) / det,
    ]
