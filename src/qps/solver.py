"""Position recovery from measured balancing delays.

Each delay observable constrains the user to one sheet of a hyperboloid
of revolution with foci at the baseline endpoints; the position is the
intersection of three such sheets. The inversion is a damped Gauss-Newton
iteration on the range-difference residuals with the analytic Jacobian
(difference of unit vectors toward the two endpoints); sheet selection is
encoded by the sign of each delay, so no case analysis is needed.
"""

from __future__ import annotations

import contextlib
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateDelayError,
    InvalidInputError,
    NotConvergedError,
    SingularJacobianError,
)
from .geometry import (
    CONDITION_LIMIT,
    Constellation,
    Point3,
    condition_number,
    delays_at,
    jacobian_at,
    json_float,
)

#: Residual convergence scale: converged when ||f|| < RESIDUAL_TOL * (1 + |x|).
RESIDUAL_TOL = 1e-12
#: Step-size convergence threshold, meters.
STEP_TOL_M = 1e-14
#: Iteration budget.
MAX_ITERATIONS = 200
#: Converged solutions closer than this are considered the same point.
CLUSTER_RADIUS_M = 1e-6
#: Largest start count of one multi-start search.
MAX_STARTS = 4096
#: Step of the R3 sequence: inverse powers of the real root of x**4 = x + 1.
_R3_STEP = 1.2207440846057596 ** -np.arange(1.0, 4.0)


@dataclass(frozen=True)
class DelayTriple:
    """Measured balancing delay lengths, meters, one per baseline."""

    s1: float
    s2: float
    s3: float

    def __post_init__(self):
        for name in ("s1", "s2", "s3"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise InvalidInputError(f"DelayTriple.{name} must be finite, got {v!r}")
            object.__setattr__(self, name, float(v))

    @classmethod
    def from_array(cls, arr) -> "DelayTriple":
        try:
            vals = [float(v) for v in arr]
        except ValueError:
            raise InvalidInputError(f"delays must be numbers, got {arr!r}") from None
        if len(vals) != 3:
            raise InvalidInputError(f"expected 3 delays, got {len(vals)}")
        return cls(*vals)

    def as_array(self) -> np.ndarray:
        return np.array([self.s1, self.s2, self.s3], dtype=float)


@dataclass(frozen=True)
class SolveResult:
    """A converged position with solver diagnostics."""

    position: Point3
    residual_norm: float
    iterations: int
    converged: bool
    condition_number: float

    def to_json_dict(self) -> dict:
        return {
            "position_m": [self.position.x, self.position.y, self.position.z],
            "residual_norm_m": self.residual_norm,
            "iterations": self.iterations,
            "converged": self.converged,
            "condition_number": json_float(self.condition_number),
        }


@dataclass(frozen=True)
class Region:
    """Axis-aligned search box for multi-start solving."""

    lower: Point3
    upper: Point3

    def __post_init__(self):
        lo, hi = self.lower.as_array(), self.upper.as_array()
        if not np.all(lo < hi):
            raise InvalidInputError("region lower bound must be strictly below upper bound")

    @property
    def center(self) -> Point3:
        return Point3.from_array(0.5 * (self.lower.as_array() + self.upper.as_array()))


def _validate_delays(constellation: Constellation, delays: DelayTriple) -> np.ndarray:
    """Reject delays whose hyperboloid sheet is empty or degenerate.

    After removing the constant source-leg asymmetry, the range difference
    must be strictly smaller in magnitude than the baseline length.
    """
    s = delays.as_array()
    reduced = np.abs(s - constellation.source_path_offsets)
    bad = reduced >= constellation.lengths
    if np.any(bad):
        i = int(np.argmax(bad))
        raise DegenerateDelayError(
            f"delay s{i + 1}={s[i]!r} m is inconsistent with baseline length "
            f"{constellation.lengths[i]!r} m"
        )
    return s


def solve_position(
    constellation: Constellation, delays: DelayTriple, initial_guess: Point3
) -> SolveResult:
    """Invert the three range-difference equations for the user position.

    Damped Gauss-Newton: full Newton steps while they reduce the residual
    norm, with multiplicative Levenberg damping of the normal equations as
    the fallback. Converged when ``||f|| < 1e-12 * (1 + |x|)`` or the
    Newton step is below 1e-14 m; after the residual criterion fires, full
    steps are polished in while they still strictly reduce the residual,
    which costs a couple of extra function evaluations and buys the last
    digits of position accuracy.

    Args:
        constellation: Baseline geometry.
        delays: Measured delay triple.
        initial_guess: Starting point; determines which intersection point
            is found when several exist.

    Raises:
        DegenerateDelayError: A delay is incompatible with its baseline.
        SingularJacobianError: The Jacobian at an iterate is degenerate
            (condition number above ``CONDITION_LIMIT``, or the iterate
            sits on a baseline endpoint).
        NotConvergedError: Iteration budget exhausted, or damping stalled:
            no damping reduces the residual, or the accepted step leaves
            the iterate unchanged, so every later iteration would repeat.
    """
    s = _validate_delays(constellation, delays)
    x = initial_guess.as_array()
    r = delays_at(constellation, x) - s
    iterations = 0

    for _ in range(MAX_ITERATIONS):
        r_norm = float(np.linalg.norm(r))
        if r_norm < RESIDUAL_TOL * (1.0 + float(np.linalg.norm(x))):
            x, r = _polish(constellation, x, r, s)
            return _result(constellation, x, r, iterations)

        try:
            jac = jacobian_at(constellation, x)
        except InvalidInputError as exc:
            raise SingularJacobianError(
                f"iterate coincides with a baseline endpoint at {x.tolist()}"
            ) from exc
        cond = condition_number(jac)
        if cond > CONDITION_LIMIT:
            raise SingularJacobianError(
                f"Jacobian condition number {cond:.3e} exceeds {CONDITION_LIMIT:.0e} at iterate {x.tolist()}"
            )

        step = np.linalg.solve(jac, -r)
        if float(np.linalg.norm(step)) < STEP_TOL_M:
            return _result(constellation, x, r, iterations)

        x_new = x + step
        r_new = delays_at(constellation, x_new) - s
        if float(np.linalg.norm(r_new)) > r_norm:
            x_new, r_new = (a[0] for a in _damped_step(constellation, x[None], r[None], jac[None], s))
        if x_new.tobytes() == x.tobytes():  # _unmoved, for one row
            raise NotConvergedError(
                f"damping stalled at residual norm {r_norm:.3e} m at {x.tolist()}"
            )
        x, r = x_new, r_new
        iterations += 1

    raise NotConvergedError(
        f"no convergence in {MAX_ITERATIONS} iterations; last residual norm "
        f"{float(np.linalg.norm(r)):.3e} m at {x.tolist()}"
    )


def _norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of ``v``, bit-identical to ``np.linalg.norm(row)``."""
    return np.sqrt((v[..., None, :] @ v[..., :, None])[..., 0, 0])


def _unmoved(x_new: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Rows where the accepted point equals the current one bit for bit.

    The iteration is a deterministic function of the iterate alone, so
    such a start would repeat the same step until the budget ran out.
    """
    return (x_new.view(np.int64) == x.view(np.int64)).all(axis=-1)


def _damped_step(
    constellation: Constellation,
    x: np.ndarray,
    r: np.ndarray,
    jac: np.ndarray,
    s: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Levenberg fallback, row-wise over ``(n, 3)`` iterates.

    For each row, raise the damping of the normal equations from 1e-4 by
    factors of 10 up to 1e12 until the residual norm does not increase. A
    row that no damping helps keeps its current point and residual.
    """
    r_norm = _norms(r)
    jt = np.swapaxes(jac, -1, -2)
    jtj = jt @ jac
    jtr = jt @ r[..., None]
    # The diagonal of J^T J is non-negative, so this is diag(diag(jtj)) with
    # +0.0 off the diagonal, as the damping term must be.
    scale = np.diagonal(jtj, axis1=-2, axis2=-1)[..., None] * np.eye(3)
    x_new, r_new = x.copy(), r.copy()
    todo = np.arange(len(x))
    lam = 1e-4
    while lam <= 1e12 and todo.size:
        step = np.linalg.solve(jtj[todo] + lam * scale[todo], -jtr[todo])[..., 0]
        x_try = x[todo] + step
        r_try = delays_at(constellation, x_try) - s
        ok = _norms(r_try) <= r_norm[todo]
        x_new[todo[ok]], r_new[todo[ok]] = x_try[ok], r_try[ok]
        todo = todo[~ok]
        lam *= 10.0
    return x_new, r_new


def _polish(
    constellation: Constellation, x: np.ndarray, r: np.ndarray, s: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Extra full Newton steps while they strictly reduce the residual."""
    for _ in range(3):
        try:
            jac = jacobian_at(constellation, x)
            step = np.linalg.solve(jac, -r)
        except (InvalidInputError, np.linalg.LinAlgError):
            break
        x_new = x + step
        r_new = delays_at(constellation, x_new) - s
        if float(np.linalg.norm(r_new)) < float(np.linalg.norm(r)):
            x, r = x_new, r_new
        else:
            break
    return x, r


def _result(
    constellation: Constellation, x: np.ndarray, r: np.ndarray, iterations: int
) -> SolveResult:
    try:
        cond = condition_number(jacobian_at(constellation, x))
    except InvalidInputError:
        cond = math.inf
    return SolveResult(
        position=Point3.from_array(x),
        residual_norm=float(np.linalg.norm(r)),
        iterations=iterations,
        converged=True,
        condition_number=cond,
    )


def _r3_starts(region: Region, n_starts: int, seed: int) -> np.ndarray:
    """The first ``n_starts`` points of the seeded, shifted R3 sequence over ``region``."""
    shift = np.random.default_rng(seed).random(3)
    unit = (shift + np.arange(1, n_starts + 1)[:, None] * _R3_STEP) % 1.0
    lower, upper = region.lower.as_array(), region.upper.as_array()
    return lower + unit * (upper - lower)


def _jacobians(constellation: Constellation, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stacked :func:`jacobian_at` of ``(n, 3)`` iterates, and a mask of the
    rows on a baseline endpoint, whose matrices are NaN."""
    try:
        return jacobian_at(constellation, x), np.zeros(len(x), dtype=bool)
    except InvalidInputError:
        pass
    jac = np.full((len(x), 3, 3), np.nan)
    for i, row in enumerate(x):
        with contextlib.suppress(InvalidInputError):
            jac[i] = jacobian_at(constellation, row)
    return jac, np.isnan(jac[:, 0, 0])


def _solve_starts(
    constellation: Constellation, s: np.ndarray, starts: np.ndarray
) -> list[SolveResult | None]:
    """Run :func:`solve_position` from every row of ``starts`` at once.

    The live starts advance in lockstep as one ``(n, 3)`` array, so the
    residuals, Jacobians, condition numbers, Newton steps and damping
    ladder of an iteration are one numpy call each. Every row follows
    solve_position's rules with the same floating-point operations, and
    leaves the array where solve_position would return or raise: it
    converges, its Jacobian is singular or undefined, it stalls, or the
    budget runs out. One result per start, ``None`` where the start fails;
    a converged one is the exact result of solve_position from that start.
    """
    found: list[SolveResult | None] = [None] * len(starts)
    x = starts
    r = delays_at(constellation, x) - s
    rows = np.arange(len(x))
    for iterations in range(MAX_ITERATIONS):
        r_norm = _norms(r)
        done = r_norm < RESIDUAL_TOL * (1.0 + _norms(x))
        for i in np.flatnonzero(done):
            found[rows[i]] = _result(constellation, *_polish(constellation, x[i], r[i], s), iterations)
        x, r, r_norm, rows = (a[~done] for a in (x, r, r_norm, rows))

        jac, on_endpoint = _jacobians(constellation, x)
        regular = ~on_endpoint
        regular[regular] = condition_number(jac[regular]) <= CONDITION_LIMIT
        x, r, r_norm, rows, jac = (a[regular] for a in (x, r, r_norm, rows, jac))

        step = np.linalg.solve(jac, -r[..., None])[..., 0]
        done = _norms(step) < STEP_TOL_M
        for i in np.flatnonzero(done):
            found[rows[i]] = _result(constellation, x[i], r[i], iterations)
        x, r, r_norm, rows, jac, step = (a[~done] for a in (x, r, r_norm, rows, jac, step))

        x_new = x + step
        r_new = delays_at(constellation, x_new) - s
        worse = _norms(r_new) > r_norm
        if worse.any():
            x_new[worse], r_new[worse] = _damped_step(constellation, x[worse], r[worse], jac[worse], s)
        moved = ~_unmoved(x_new, x)
        x, r, rows = x_new[moved], r_new[moved], rows[moved]
        if not rows.size:
            break
    return found


def multi_start_solve(
    constellation: Constellation,
    delays: DelayTriple,
    region: Region,
    n_starts: int,
    seed: int,
) -> list[SolveResult]:
    """Solve from quasi-random starts and return the distinct solutions.

    Three hyperboloids can intersect in more than one point; this runs
    :func:`solve_position`'s iteration from the first ``n_starts`` points
    of the R3 sequence (Roberts' additive recurrence) over the region,
    shifted by a random offset drawn from ``seed``, advancing all starts
    together as one array. Converged results are sorted by
    residual norm, then by distance to the region center, and a result
    within ``CLUSTER_RADIUS_M`` of an earlier one is dropped. Starts that
    fail to converge are dropped too; the list is empty when none
    converge. ``n_starts`` must be an integer in [1, ``MAX_STARTS``] and
    ``seed`` a non-negative integer, else ``InvalidInputError``.
    """
    if not isinstance(n_starts, numbers.Integral) or not 1 <= n_starts <= MAX_STARTS:
        raise InvalidInputError(f"n_starts must be an integer in [1, {MAX_STARTS}], got {n_starts!r}")
    if not isinstance(seed, numbers.Integral) or seed < 0:
        raise InvalidInputError(f"seed must be a non-negative integer, got {seed!r}")
    s = _validate_delays(constellation, delays)

    starts = _r3_starts(region, n_starts, seed)
    found = [res for res in _solve_starts(constellation, s, starts) if res is not None]

    center = region.center.as_array()
    found.sort(
        key=lambda res: (
            res.residual_norm,
            float(np.linalg.norm(res.position.as_array() - center)),
        )
    )
    representatives: list[SolveResult] = []
    for res in found:
        pos = res.position.as_array()
        if all(
            float(np.linalg.norm(pos - rep.position.as_array())) > CLUSTER_RADIUS_M
            for rep in representatives
        ):
            representatives.append(res)
    return representatives
