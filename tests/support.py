"""Shared test utilities: independent oracles and instance generators."""

import math

import numpy as np

from qps import (
    Baseline,
    Constellation,
    NotConvergedError,
    Point3,
    SingularJacobianError,
    solve_position,
)
from qps.solver import CLUSTER_RADIUS_M, _r3_starts


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


def reference_multi_start(constellation, delays, region, n_starts, seed):
    """``multi_start_solve`` as one ``solve_position`` call per start.

    The reference for the lockstep search: the same R3 starts, failed
    starts dropped, then the same sort by (residual norm, distance to the
    region centre) and greedy clustering.
    """
    found = []
    for start in _r3_starts(region, n_starts, seed):
        try:
            found.append(solve_position(constellation, delays, Point3.from_array(start)))
        except (SingularJacobianError, NotConvergedError):
            continue
    center = region.center.as_array()
    found.sort(
        key=lambda res: (
            res.residual_norm,
            float(np.linalg.norm(res.position.as_array() - center)),
        )
    )
    representatives = []
    for res in found:
        pos = res.position.as_array()
        if all(
            float(np.linalg.norm(pos - rep.position.as_array())) > CLUSTER_RADIUS_M
            for rep in representatives
        ):
            representatives.append(res)
    return representatives
