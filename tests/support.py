"""Shared test utilities: independent oracles and instance generators."""

import math

import numpy as np

from qps import Baseline, Constellation, Point3


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

