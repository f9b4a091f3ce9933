"""Independent reference computations for the benchmark's checks.

Nothing here calls into ``qps``: the forward model is evaluated from
direct point-to-point distances, the Jacobian by central differences of
that model, and the dip-fit bound in closed form. The layouts are rebuilt
from their published parameters (the package README). Every method takes
one point ``(3,)`` or many ``(N, 3)`` and answers with the same leading
shape.
"""

from __future__ import annotations

import math

import numpy as np

SPEED_OF_LIGHT = 299_792_458.0
EARTH_RADIUS_M = 6_378_000.0
SEP_COEFFICIENT = 1.538
SIGMA_S_M = 1e-6


def _many(points) -> tuple[np.ndarray, bool]:
    p = np.asarray(points, dtype=float)
    return (p[None, :], True) if p.ndim == 1 else (p, False)


class Layout:
    """Three baselines: endpoints A and B and sources S, each ``(3, 3)``
    (one row per baseline) or ``(N, 3, 3)`` for one layout per point."""

    def __init__(self, ends_a, ends_b, sources=None):
        self.a = np.asarray(ends_a, dtype=float)
        self.b = np.asarray(ends_b, dtype=float)
        self.s = 0.5 * (self.a + self.b) if sources is None else np.asarray(sources, dtype=float)

    def _delays(self, u: np.ndarray) -> np.ndarray:
        def dist(p, q):
            return np.sqrt(np.sum((p - q) ** 2, axis=-1))

        u = u[:, None, :]
        return dist(u, self.a) + dist(self.a, self.s) - dist(u, self.b) - dist(self.s, self.b)

    def delays(self, points) -> np.ndarray:
        """Balancing delay of each baseline: |u-A| + |A-S| - |u-B| - |S-B|."""
        u, one = _many(points)
        d = self._delays(u)
        return d[0] if one else d

    def _jacobian(self, u: np.ndarray) -> np.ndarray:
        """Central-difference Jacobian of the delays, one row per baseline.

        The step scales with the distance to the nearest endpoint, which
        sets the curvature of the model; rounding stays far below it.
        """
        nearest = np.minimum(
            np.linalg.norm(u[:, None, :] - self.a, axis=-1).min(axis=-1),
            np.linalg.norm(u[:, None, :] - self.b, axis=-1).min(axis=-1),
        )
        h = 1e-5 * nearest
        jac = np.empty((len(u), 3, 3))
        for k in range(3):
            e = np.zeros((len(u), 3))
            e[:, k] = h
            jac[:, :, k] = (self._delays(u + e) - self._delays(u - e)) / (2.0 * h[:, None])
        return jac

    def condition(self, points):
        """Ratio of the largest to the smallest singular value of the Jacobian."""
        u, one = _many(points)
        svals = np.linalg.svd(self._jacobian(u), compute_uv=False)
        with np.errstate(divide="ignore"):
            cond = np.where(svals[:, -1] > 0.0, svals[:, 0] / svals[:, -1], math.inf)
        return float(cond[0]) if one else cond

    def position_sigmas(self, points, sigma_s) -> np.ndarray:
        """Per-axis position standard deviations for delay errors ``sigma_s``
        (a scalar, one value per baseline, or one triple per point); NaN
        where the Jacobian is singular."""
        u, one = _many(points)
        jac = self._jacobian(u)
        ok = np.linalg.matrix_rank(jac) == 3
        inverse = np.full_like(jac, math.nan)
        inverse[ok] = np.linalg.inv(jac[ok])
        sig = np.asarray(sigma_s, dtype=float)
        if sig.ndim == 2:  # one triple per point
            sig = sig[:, None, :]
        out = np.sqrt(np.sum((inverse * sig) ** 2, axis=-1))
        return out[0] if one else out

    def r_xyz(self, points, sigma_s):
        """Spherical-error figure 1.538 * sqrt((sx^2 + sy^2 + sz^2) / 3)."""
        sig = np.atleast_2d(self.position_sigmas(points, sigma_s))
        r = SEP_COEFFICIENT * np.sqrt(np.sum(sig * sig, axis=-1) / 3.0)
        return float(r[0]) if np.ndim(points) == 1 else r

    def rounding_scale(self, points):
        """Size of the distances summed in :meth:`delays`, the scale of its
        rounding error."""
        u, one = _many(points)
        scale = (
            np.linalg.norm(u[:, None, :] - self.a, axis=-1)
            + np.linalg.norm(u[:, None, :] - self.b, axis=-1)
        ).max(axis=-1)
        return float(scale[0]) if one else scale


def ground(half_length=2.0) -> Layout:
    """Ground layout: endpoints at +/- a on each axis, sources at the origin.
    An array of half lengths gives one layout per entry."""
    a = np.asarray(half_length, dtype=float)
    eye = np.eye(3) * a[..., None, None]
    return Layout(eye, -eye)


def leo(distance: float = 7_360_000.0, baseline: float = 20_000.0) -> Layout:
    """Satellite layout: two baselines at distance a along x and y in the
    z = 0 plane, one overhead at height a, sources at the midpoints."""
    a, b = distance, baseline
    q = b / (2.0 * math.sqrt(2.0))
    return Layout(
        [(a, -b / 2.0, 0.0), (b / 2.0, a, 0.0), (-q, -q, a)],
        [(a, b / 2.0, 0.0), (-b / 2.0, a, 0.0), (q, q, a)],
    )


def dip_center_bound(
    offsets, true_offset: float, plateau_hz: float, delta_omega: float, t_int: float
) -> float:
    """Cramér–Rao bound on the dip centre for a Poisson-counted Gaussian notch.

    The expected count at offset o is ``lam = P T (1 - exp(-q^2))`` with
    ``q = dw (o - c) / C``. For Poisson counts the Fisher information is
    ``sum_k (d lam_k / d theta)(d lam_k / d theta)^T / lam_k`` (Kay,
    Fundamentals of Statistical Signal Processing I, 1993) over
    theta = (P, c, dw), the three parameters the fit estimates. The bound
    is the square root of the centre entry of its inverse, in meters.
    ``q^2 / (1 - exp(-q^2))`` is taken as 1 at q = 0, its limit, so a grid
    point at the centre contributes its finite share.
    """
    d = np.asarray(offsets, dtype=float) - true_offset
    q = delta_omega * d / SPEED_OF_LIGHT
    q2 = q * q
    e = np.exp(-q2)
    one_minus = -np.expm1(-q2)
    ratio = np.where(q2 > 0.0, q2 / np.where(q2 > 0.0, one_minus, 1.0), 1.0)
    # (d lam / d theta) / sqrt(lam) for each parameter; for the centre and
    # the width, 2 P T q e dq / sqrt(P T (1 - e)) = 2 sqrt(P T) e sign(q) sqrt(ratio) dq.
    scale = math.sqrt(plateau_hz * t_int)
    common = 2.0 * scale * e * np.sqrt(ratio) * np.where(q < 0.0, -1.0, 1.0)
    grads = np.stack(
        [
            scale * np.sqrt(one_minus) / plateau_hz,
            common * (-delta_omega / SPEED_OF_LIGHT),
            common * (d / SPEED_OF_LIGHT),
        ],
        axis=1,
    )
    return float(math.sqrt(np.linalg.inv(grads.T @ grads)[1, 1]))
