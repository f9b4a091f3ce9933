"""Position recovery from measured balancing delays.

Each delay observable constrains the user to one sheet of a hyperboloid
of revolution with foci at the baseline endpoints; the position is the
intersection of three such sheets. The inversion is a Newton iteration
with a backtracking line search on the range-difference residuals and the
analytic Jacobian (difference of unit vectors toward the two endpoints);
sheet selection is encoded by the sign of each delay, so no case analysis
is needed. Without a starting point, :func:`solve_all` finds every
intersection at once as the roots of three quadrics, from one null space
and one eigenproblem.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateDelayError,
    InvalidInputError,
    NotConvergedError,
    QpsError,
    SingularJacobianError,
)
from .geometry import (
    CONDITION_LIMIT,
    Constellation,
    Point3,
    _evaluate,
    condition_number,
    delays_at,
    json_float,
)

#: Residual scale of the rounding floor: below ``RESIDUAL_TOL * (1 + |x|)``,
#: a full step that does not strictly reduce the residual ends the solve.
RESIDUAL_TOL = 1e-12
#: Relative step convergence: a Newton step shorter than
#: ``STEP_RTOL * (1 + |x|)`` is taken and ends the solve.
STEP_RTOL = 1e-12
#: Iteration budget.
MAX_ITERATIONS = 200
#: An iterate farther than this many times ``max(radius, |start - centre|)``
#: from the constellation centre is abandoned as divergent.
DIVERGENCE_FACTOR = 1e3
#: Smallest step scale of the backtracking line search.
MIN_STEP_SCALE = 2.0**-40
#: Converged solutions closer than this are considered the same point. Beyond
#: 1 km from the origin the radius grows as ``|x| / 1 km``, as rounding does.
CLUSTER_RADIUS_M = 1e-6


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
    """Axis-aligned box, meters."""

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
    if bad.any():
        i = int(np.argmax(bad))
        raise DegenerateDelayError(
            f"delay s{i + 1}={float(s[i])!r} m is inconsistent with baseline length "
            f"{float(constellation.lengths[i])!r} m"
        )
    return s


def solve_position(
    constellation: Constellation, delays: DelayTriple, initial_guess: Point3
) -> SolveResult:
    """Invert the three range-difference equations for the user position.

    Newton's method with a backtracking line search: a full Newton step
    when it does not raise the residual norm, else the same step scaled by
    1/2, 1/4, ... down to ``MIN_STEP_SCALE``, the first scale that does
    not raise it. Every iteration runs the same checks in the same order:
    the divergence bound (an iterate farther from the constellation centre
    than ``DIVERGENCE_FACTOR * max(radius, |guess - centre|)`` is
    abandoned), the endpoint and condition checks on the Jacobian, and
    only then the Newton step. The solve has converged when either

    * the Newton step is shorter than ``STEP_RTOL * (1 + |x|)``: the step
      is taken, and the point it reaches is reported once it has passed
      the checks of the next iteration; or
    * the full step does not strictly reduce a residual norm that is
      already below ``RESIDUAL_TOL * (1 + |x|)``: that is the rounding
      floor, and ``x`` is reported.

    So every reported position has a checked Jacobian, and its condition
    number is at most ``CONDITION_LIMIT``. ``iterations`` counts the
    accepted steps. Each point is evaluated once: its residual and
    Jacobian come from one leg evaluation and travel with the iterate
    through the step, the line search and the result.

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
        NotConvergedError: The iterate left the divergence bound, the
            iteration budget ran out, or the step stalled: no step scale
            keeps the residual from rising, or the accepted step leaves the
            iterate unchanged, so every later iteration would repeat.
    """
    s = _validate_delays(constellation, delays)
    x = initial_guess.as_array()
    centre = constellation.centre.tolist()
    bound = DIVERGENCE_FACTOR * max(constellation.radius, math.dist(x.tolist(), centre))
    r, jac = _residual(constellation, x, s)
    iterations = 0
    converged = False

    while True:
        if math.dist(x.tolist(), centre) > bound:
            raise NotConvergedError(
                f"iterate left the bound of {bound:.3e} m around the constellation "
                f"centre at {x.tolist()}"
            )
        if jac is None:
            raise SingularJacobianError(f"iterate coincides with a baseline endpoint at {x.tolist()}")
        cond = condition_number(jac)
        if cond > CONDITION_LIMIT:
            raise SingularJacobianError(
                f"Jacobian condition number {cond:.3e} exceeds {CONDITION_LIMIT:.0e} at iterate {x.tolist()}"
            )
        r_norm = _norm(r)
        if converged:
            return SolveResult(Point3.from_array(x), r_norm, iterations, True, cond)
        if iterations == MAX_ITERATIONS:
            raise NotConvergedError(
                f"no convergence in {MAX_ITERATIONS} iterations; last residual norm "
                f"{r_norm:.3e} m at {x.tolist()}"
            )

        x_norm = _norm(x)
        step = np.linalg.solve(jac, -r)
        x_new = x + step
        r_new, jac_new = _residual(constellation, x_new, s)
        r_new_norm = _norm(r_new)
        if not r_new_norm < r_norm and r_norm < RESIDUAL_TOL * (1.0 + x_norm):
            # The rounding floor: a full step no longer reduces the residual.
            return SolveResult(Point3.from_array(x), r_norm, iterations, True, cond)
        converged = _norm(step) < STEP_RTOL * (1.0 + x_norm)
        if not converged and r_new_norm > r_norm:
            x_new, r_new, jac_new = _backtrack(constellation, x, r, jac, step, s)
            # The iteration depends on the iterate alone, so an unmoved point
            # would repeat the same step until the budget ran out.
            if x_new.tobytes() == x.tobytes():
                raise NotConvergedError(
                    f"step stalled at residual norm {r_norm:.3e} m at {x.tolist()}"
                )
        x, r, jac = x_new, r_new, jac_new
        iterations += 1


def _norm(v: np.ndarray) -> float:
    """Euclidean norm of a 1-D array, bit-identical to ``np.linalg.norm``."""
    return math.sqrt(v.dot(v))


def _residual(
    constellation: Constellation, x: np.ndarray, s: np.ndarray
) -> tuple[np.ndarray, np.ndarray | None]:
    """Residual of the delay equations at ``x`` and its Jacobian, None on an
    endpoint."""
    model, jac = _evaluate(constellation, x)
    return model - s, jac


def _backtrack(
    constellation: Constellation,
    x: np.ndarray,
    r: np.ndarray,
    jac: np.ndarray,
    step: np.ndarray,
    s: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Backtracking line search along the Newton ``step`` from ``x``.

    Scale the step by 1/2, 1/4, ... down to ``MIN_STEP_SCALE`` until the
    residual norm does not increase, and return that point with its
    residual and Jacobian. The Newton direction descends on ``||f||**2``
    wherever the Jacobian is nonsingular. When no scale helps, ``x``,
    ``r`` and ``jac`` come back unchanged.
    """
    r_norm = _norm(r)
    t = 0.5
    while t >= MIN_STEP_SCALE:
        x_try = x + t * step
        r_try, jac_try = _residual(constellation, x_try, s)
        if _norm(r_try) <= r_norm:
            return x_try, r_try, jac_try
        t *= 0.5
    return x, r, jac


#: Exponents of the 35 monomials of degree <= 4 in (x, y, z), ordered by
#: degree: 1, x, y, z, x**2, x*y, ... The first 10 have degree <= 2 and the
#: first 20 degree <= 3.
_MONOMIALS = [
    (i, j, n - i - j) for n in range(5) for i in range(n, -1, -1) for j in range(n - i, -1, -1)
]
_COLUMN = {e: k for k, e in enumerate(_MONOMIALS)}
#: Exponents of the entries of ``h = (1, x, y, z)``. A quadric is ``h' Q h``,
#: one term per entry ``Q[j, k]``, ``j <= k``, of weight 1 on the diagonal
#: and 2 off it.
_H = ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1))
_PAIRS = np.triu_indices(4)
_PAIR_WEIGHT = np.where(_PAIRS[0] == _PAIRS[1], 1.0, 2.0)


def _column(*factors: tuple[int, int, int]) -> int:
    """Column of the product of the monomials with these exponents."""
    return _COLUMN[tuple(map(sum, zip(*factors)))]


#: Row m of a quadric's block of the Macaulay matrix: the columns of
#: ``h_j h_k`` times the m-th monomial of degree <= 2.
_MACAULAY_COLUMNS = np.array(
    [[_column(m, _H[j], _H[k]) for j, k in zip(*_PAIRS)] for m in _MONOMIALS[:10]]
)
#: Multiplication of the monomials of degree <= 3 by the fixed linear form
#: 0.3 x + 0.5 y + 0.7 z, whose values separate the roots.
_SHIFT = np.zeros((20, 35))
_SHIFT[np.arange(20)[:, None], [[_column(m, e) for e in _H[1:]] for m in _MONOMIALS[:20]]] = (
    0.3, 0.5, 0.7
)
#: Three quadrics with no common point at infinity meet in 8 points (Bezout).
_N_ROOTS = 8
#: Singular values of the Macaulay matrix below this fraction of the largest
#: count as zero.
_RANK_TOL = 1e-10


def solve_all(constellation: Constellation, delays: DelayTriple) -> list[SolveResult]:
    """Every real intersection of the three hyperboloid sheets.

    Squared twice, ``|x - A_i| - |x - B_i| = d_i`` (``d_i`` the delay minus
    the baseline's source path offset) becomes the quadric ``(l_i -
    d_i**2)**2 = 4 d_i**2 |x - B_i|**2``, with ``l_i = |x - A_i|**2 - |x -
    B_i|**2`` linear in ``x``; it holds both sheets. In coordinates centred
    on the constellation centre and scaled by its radius, the quadrics
    times the 10 monomials of degree <= 2 form a 30 x 35 Macaulay matrix.
    Its null space holds the monomial vectors of the 8 roots, which a shift
    by a fixed linear form turns into the eigenvectors of an 8 x 8 matrix
    (Moller & Stetter, Numer. Math. 70, 1995).

    Roots that are not finite and real (imaginary part above 1e-3 of their
    scaled size) or lie on a mirror sheet (a residual above ``|d_i|`` plus
    1e-4 radius) are dropped, and each of the rest is refined by
    :func:`solve_position` started at it; a root whose solve raises is
    dropped, so every candidate has passed its condition check. The
    results are sorted by distance from the constellation centre, nearest
    first, and one within ``CLUSTER_RADIUS_M * max(1, |x| / 1 km)`` of an
    earlier one is dropped. The list is empty when the sheets do not meet.

    Raises:
        DegenerateDelayError: A delay is incompatible with its baseline.
        QpsError: The null space does not have dimension 8: the solutions
            include a curve or a point at infinity, to working precision.
    """
    s = _validate_delays(constellation, delays)
    centre, scale = constellation.centre, constellation.radius
    a = (constellation.endpoints_a - centre) / scale
    b = (constellation.endpoints_b - centre) / scale
    reduced = s - constellation.source_path_offsets
    d = reduced / scale

    # l_i - d_i**2 and |x - B_i|**2 over h = (1, x, y, z).
    linear = np.column_stack((np.sum(a * a, axis=1) - np.sum(b * b, axis=1) - d * d, -2.0 * (a - b)))
    to_b = np.zeros((3, 4, 4))
    to_b[:, 0, 0] = np.sum(b * b, axis=1)
    to_b[:, 0, 1:] = to_b[:, 1:, 0] = -b
    to_b[:, 1:, 1:] = np.eye(3)
    quadrics = linear[:, :, None] * linear[:, None, :] - 4.0 * (d * d)[:, None, None] * to_b
    coefficients = quadrics[:, _PAIRS[0], _PAIRS[1]] * _PAIR_WEIGHT
    coefficients /= np.linalg.norm(coefficients, axis=1, keepdims=True)
    macaulay = np.zeros((3, 10, 35))
    macaulay[:, np.arange(10)[:, None], _MACAULAY_COLUMNS] = coefficients[:, None, :]

    _, svals, vt = np.linalg.svd(macaulay.reshape(30, 35))
    rank = int(np.count_nonzero(svals > _RANK_TOL * svals[0]))
    if 35 - rank != _N_ROOTS:
        raise QpsError(
            f"the delay equations' null space has dimension {35 - rank}, not {_N_ROOTS}: "
            "their solutions include a curve or a point at infinity"
        )
    null = vt[rank:].T
    shift = np.linalg.lstsq(null[:20], _SHIFT @ null, rcond=None)[0]
    monomials = null @ np.linalg.eig(shift)[1]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        roots = (monomials[1:4] / monomials[0]).T
    size = np.maximum(1.0, np.abs(roots).max(axis=1))
    keep = np.isfinite(roots).all(axis=1) & (np.abs(roots.imag).max(axis=1) <= 1e-3 * size)
    points = centre + scale * roots[keep].real
    sheet = np.abs(delays_at(constellation, points) - s) <= np.abs(reduced) + 1e-4 * scale

    found = []
    for point in points[sheet.all(axis=1)]:
        try:
            found.append(solve_position(constellation, delays, Point3.from_array(point)))
        except (SingularJacobianError, NotConvergedError):
            continue
    found.sort(key=lambda res: _norm(res.position.as_array() - centre))
    representatives: list[SolveResult] = []
    for res in found:
        pos = res.position.as_array()
        radius = CLUSTER_RADIUS_M * max(1.0, _norm(pos) / 1e3)
        if all(_norm(pos - rep.position.as_array()) > radius for rep in representatives):
            representatives.append(res)
    return representatives


def multi_start_solve(
    constellation: Constellation,
    delays: DelayTriple,
    region: Region,
    n_starts: int,
    seed: int,
) -> list[SolveResult]:
    """Alias of :func:`solve_all`; ``region``, ``n_starts`` and ``seed`` are
    ignored.

    Its only caller is the ``acquisition`` workload of ``perfbench``, which
    passes them positionally. It goes when that workload calls
    :func:`solve_all`.
    """
    return solve_all(constellation, delays)
