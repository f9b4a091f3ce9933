"""Shared test utilities: independent oracles and instance generators."""

import math

import numpy as np

from qps import (
    Baseline,
    BalanceEstimate,
    Constellation,
    DelayTriple,
    DipScan,
    FitDivergedError,
    HomConfig,
    InvalidInputError,
    NoDipFoundError,
    NotConvergedError,
    Point3,
    SingularJacobianError,
    SolveResult,
)
from qps.geometry import CONDITION_LIMIT, SPEED_OF_LIGHT, condition_number, delays_at, jacobian_at
from qps.photonics import FIT_STEP_RTOL, MAX_FIT_ITERATIONS, MIN_DIP_SIGNIFICANCE
from qps.solver import (
    DIVERGENCE_FACTOR,
    MAX_ITERATIONS,
    MIN_STEP_SCALE,
    RESIDUAL_TOL,
    STEP_TOL_M,
    _validate_delays,
)


def naive_delay(baseline: Baseline, user: Point3) -> float:
    """Independent range-difference oracle: direct distance evaluation."""
    u = (user.x, user.y, user.z)
    a = (baseline.endpoint_a.x, baseline.endpoint_a.y, baseline.endpoint_a.z)
    b = (baseline.endpoint_b.x, baseline.endpoint_b.y, baseline.endpoint_b.z)
    s = (baseline.source.x, baseline.source.y, baseline.source.z)
    return math.dist(u, a) + math.dist(a, s) - math.dist(u, b) - math.dist(s, b)


def naive_delays(constellation: Constellation, user: Point3) -> np.ndarray:
    return np.array([naive_delay(b, user) for b in constellation.baselines])


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Uniform-ish random proper rotation matrix."""
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def rotate_constellation(constellation: Constellation, rot: np.ndarray) -> Constellation:
    def rp(p: Point3) -> Point3:
        return Point3.from_array(rot @ p.as_array())

    return Constellation(
        tuple(
            Baseline(rp(b.endpoint_a), rp(b.endpoint_b), rp(b.source))
            for b in constellation.baselines
        )
    )


def translate_constellation(constellation: Constellation, shift: np.ndarray) -> Constellation:
    def tp(p: Point3) -> Point3:
        return Point3.from_array(p.as_array() + shift)

    return Constellation(
        tuple(
            Baseline(tp(b.endpoint_a), tp(b.endpoint_b), tp(b.source))
            for b in constellation.baselines
        )
    )


def line_constellation() -> Constellation:
    """Baselines on the x axis, the y axis and the (1, 1, 0) diagonal: with
    zero delays the three sheets are planes through the z axis."""
    return Constellation(
        (
            Baseline.with_midpoint_source(Point3(1, 0, 0), Point3(-1, 0, 0)),
            Baseline.with_midpoint_source(Point3(0, 1, 0), Point3(0, -1, 0)),
            Baseline.with_midpoint_source(Point3(1, 1, 0), Point3(-1, -1, 0)),
        )
    )


def condition(constellation: Constellation, user: np.ndarray) -> float:
    d_a = user - constellation.endpoints_a
    d_b = user - constellation.endpoints_b
    n_a = np.linalg.norm(d_a, axis=1)
    n_b = np.linalg.norm(d_b, axis=1)
    jac = d_a / n_a[:, None] - d_b / n_b[:, None]
    svals = np.linalg.svd(jac, compute_uv=False)
    return math.inf if svals[-1] == 0.0 else float(svals[0] / svals[-1])


def random_instance(
    rng: np.random.Generator,
    box: float = 10.0,
    user_box: float = 20.0,
    min_endpoint_distance: float = 2.0,
    max_condition: float = 100.0,
) -> tuple[Constellation, Point3]:
    """A well-posed random constellation/user pair.

    Rejection-samples until the user is clear of every endpoint and the
    delay Jacobian at the user is comfortably nonsingular.
    """
    while True:
        ends_a = rng.uniform(-box, box, (3, 3))
        ends_b = rng.uniform(-box, box, (3, 3))
        if np.any(np.linalg.norm(ends_a - ends_b, axis=1) < 1.0):
            continue
        user = rng.uniform(-user_box, user_box, 3)
        dmin = min(
            np.linalg.norm(user - ends_a, axis=1).min(),
            np.linalg.norm(user - ends_b, axis=1).min(),
        )
        if dmin < min_endpoint_distance:
            continue
        constellation = Constellation(
            tuple(
                Baseline.with_midpoint_source(Point3.from_array(a), Point3.from_array(b))
                for a, b in zip(ends_a, ends_b)
            )
        )
        if condition(constellation, user) <= max_condition:
            return constellation, Point3.from_array(user)


def closed_form_ground(s, a: float) -> np.ndarray:
    """The user position on the ground layout from its delays, in closed form.

    Baseline i lies on axis i with endpoints at +-a and a midpoint source,
    so delay s_i puts the user on the hyperboloid sheet
    ``x_i**2 / al_i**2 - sum_{j != i} x_j**2 / (a**2 - al_i**2) = 1`` with
    ``al_i = s_i / 2``. The three equations are linear in the squared
    coordinates, and coordinate i has the sign of ``-s_i``. Every s_i must
    be nonzero.
    """
    s = np.asarray(s, dtype=float)
    alpha2 = (0.5 * s) ** 2
    m = np.repeat(-1.0 / (a * a - alpha2)[:, None], 3, axis=1)
    m[np.diag_indices(3)] = 1.0 / alpha2
    return -np.sign(s) * np.sqrt(np.linalg.solve(m, np.ones(3)))



def reference_legs(constellation: Constellation, xyz: np.ndarray) -> tuple[np.ndarray, ...]:
    """Test-only copy of the forward model's legs as two arrays: the vectors
    from the A endpoints and from the B endpoints to ``xyz`` and their
    lengths."""
    p = xyz[..., None, :]
    d_a = p - constellation.endpoints_a
    d_b = p - constellation.endpoints_b
    n_a = np.sqrt(np.add.reduce(d_a * d_a, axis=-1))
    n_b = np.sqrt(np.add.reduce(d_b * d_b, axis=-1))
    return d_a, d_b, n_a, n_b


def reference_delays_at(constellation: Constellation, xyz: np.ndarray) -> np.ndarray:
    """``delays_at`` over :func:`reference_legs`."""
    _, _, n_a, n_b = reference_legs(constellation, xyz)
    if not np.all(np.isfinite(xyz)):
        raise InvalidInputError(f"position must be finite, got {xyz!r}")
    denom = n_a + n_b
    if np.any(denom == 0.0):
        raise InvalidInputError("position coincides with both endpoints of a baseline")
    p = xyz[..., None, :]
    num = -2.0 * np.einsum("...ij,ij->...i", p - constellation.midpoints, constellation.axes)
    return num / denom + constellation.source_path_offsets


def reference_jacobian_at(constellation: Constellation, xyz: np.ndarray) -> np.ndarray:
    """``jacobian_at`` over :func:`reference_legs`, for finite ``xyz``."""
    d_a, d_b, n_a, n_b = reference_legs(constellation, xyz)
    if np.any(n_a == 0.0) or np.any(n_b == 0.0):
        raise InvalidInputError("position coincides with a baseline endpoint")
    return d_a / n_a[..., None] - d_b / n_b[..., None]


def reference_solve_position(
    constellation: Constellation, delays: DelayTriple, initial_guess: Point3
) -> SolveResult:
    """Test-only copy of the Newton loop that evaluates delays and Jacobian
    separately through the public ``delays_at`` and ``jacobian_at``: a
    point's Jacobian is computed again when the iterate reaches it."""
    s = _validate_delays(constellation, delays)
    x = initial_guess.as_array()
    centre = constellation.centre.tolist()
    bound = DIVERGENCE_FACTOR * max(constellation.radius, math.dist(x.tolist(), centre))
    r = delays_at(constellation, x) - s
    iterations = 0

    def backtrack(x, r, step):
        r_norm = float(np.linalg.norm(r))
        t = 0.5
        while t >= MIN_STEP_SCALE:
            x_try = x + t * step
            r_try = delays_at(constellation, x_try) - s
            if float(np.linalg.norm(r_try)) <= r_norm:
                return x_try, r_try
            t *= 0.5
        return x, r

    def polish(x, r):
        for _ in range(3):
            try:
                step = np.linalg.solve(jacobian_at(constellation, x), -r)
            except (InvalidInputError, np.linalg.LinAlgError):
                break
            x_new = x + step
            r_new = delays_at(constellation, x_new) - s
            if float(np.linalg.norm(r_new)) < float(np.linalg.norm(r)):
                x, r = x_new, r_new
            else:
                break
        return x, r

    def result(x, r):
        try:
            cond = condition_number(jacobian_at(constellation, x))
        except InvalidInputError:
            cond = math.inf
        return SolveResult(Point3.from_array(x), float(np.linalg.norm(r)), iterations, True, cond)

    for _ in range(MAX_ITERATIONS):
        if math.dist(x.tolist(), centre) > bound:
            raise NotConvergedError(
                f"iterate left the bound of {bound:.3e} m around the constellation "
                f"centre at {x.tolist()}"
            )
        r_norm = float(np.linalg.norm(r))
        if r_norm < RESIDUAL_TOL * (1.0 + float(np.linalg.norm(x))):
            return result(*polish(x, r))
        try:
            jac = jacobian_at(constellation, x)
        except InvalidInputError:
            raise SingularJacobianError(
                f"iterate coincides with a baseline endpoint at {x.tolist()}"
            ) from None
        cond = condition_number(jac)
        if cond > CONDITION_LIMIT:
            raise SingularJacobianError(
                f"Jacobian condition number {cond:.3e} exceeds {CONDITION_LIMIT:.0e} at iterate {x.tolist()}"
            )
        step = np.linalg.solve(jac, -r)
        if float(np.linalg.norm(step)) < STEP_TOL_M:
            return result(x, r)
        x_new = x + step
        r_new = delays_at(constellation, x_new) - s
        if float(np.linalg.norm(r_new)) > r_norm:
            x_new, r_new = backtrack(x, r, step)
        if x_new.tobytes() == x.tobytes():
            raise NotConvergedError(f"step stalled at residual norm {r_norm:.3e} m at {x.tolist()}")
        x, r = x_new, r_new
        iterations += 1
    raise NotConvergedError(
        f"no convergence in {MAX_ITERATIONS} iterations; last residual norm "
        f"{float(np.linalg.norm(r)):.3e} m at {x.tolist()}"
    )


def reference_estimate_balance(
    scan: DipScan, config: HomConfig, fit_bandwidth: bool = True
) -> BalanceEstimate:
    """Test-only copy of the dip fit that the Gram-matrix fit replaced: it
    builds the normal equations by matrix products and solves them, damped
    and for the covariance, with numpy's LAPACK routines."""
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
        slope = plateau * e * 2.0 * q
        np.multiply(weights, 1.0 - e, out=jac[:, 0])
        np.multiply(weights, -slope * dw / SPEED_OF_LIGHT, out=jac[:, 1])
        if fit_bandwidth:
            np.multiply(weights, slope * shift / SPEED_OF_LIGHT, out=jac[:, 2])
        return float((residuals**2).sum()), residuals, jac

    def finish(theta: np.ndarray, jac: np.ndarray, iteration: int) -> BalanceEstimate:
        plateau, center, dw = unpack(theta)
        try:
            covariance = np.linalg.inv(jac.T @ jac)
        except np.linalg.LinAlgError:
            raise FitDivergedError("normal equations singular at the fitted point") from None
        variance = float(covariance[1, 1])
        if not 0.0 < variance < math.inf:
            raise FitDivergedError(
                f"center variance {variance!r} at the fitted point is not positive and finite"
            )
        return BalanceEstimate(
            offset_m=center,
            sigma_m=math.sqrt(variance),
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


def outcome(call, *args, **kwargs):
    """What a call gives, comparable bit for bit: the shape and bytes of an
    array, the bytes of each float field of a result, or the exception's
    type and message."""
    try:
        value = call(*args, **kwargs)
    except Exception as exc:
        return type(exc), str(exc)
    if isinstance(value, np.ndarray):
        return value.shape, value.tobytes()
    if isinstance(value, SolveResult):
        value = (*value.position.as_array(), value.residual_norm, value.iterations,
                 value.converged, value.condition_number)
    return tuple(np.float64(v).tobytes() if isinstance(v, float) else v for v in value)
