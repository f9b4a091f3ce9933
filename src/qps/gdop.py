"""Propagation of delay-measurement error into position error.

The three balancing delays define the user position implicitly; for small
measurement errors the position error is governed by the inverse of the
forward delay Jacobian. With equal, independent Gaussian errors sigma_s
on the three delays, each position-component standard deviation is
sigma_s times the Euclidean norm of the corresponding row of that
inverse, and the scalar figure of merit is the weighted spherical-error
metric

    r_xyz = 1.538 * sqrt((sigma_x^2 + sigma_y^2 + sigma_z^2) / 3).

Where the Jacobian is singular (e.g. on the symmetry axis of an
axis-aligned ground layout) the position error is effectively unbounded;
such points are reported with a ``degenerate`` flag instead of numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvalidInputError
from .geometry import (
    CONDITION_LIMIT,
    Constellation,
    Point3,
    condition_number,
    forward_jacobian,
    json_float,
)

#: Spherical-error-probable radius per unit standard deviation for a
#: spherically symmetric Gaussian position distribution.
SEP_COEFFICIENT = 1.538


@dataclass(frozen=True)
class ErrorEstimate:
    """Propagated position error at one user position.

    When ``degenerate`` is set the sigma fields and ``r_xyz_m`` are NaN
    and only the condition number is meaningful.
    """

    sigma_x_m: float
    sigma_y_m: float
    sigma_z_m: float
    r_xyz_m: float
    degenerate: bool
    condition_number: float

    def to_json_dict(self) -> dict:
        return {
            "sigma_x_m": json_float(self.sigma_x_m),
            "sigma_y_m": json_float(self.sigma_y_m),
            "sigma_z_m": json_float(self.sigma_z_m),
            "r_xyz_m": json_float(self.r_xyz_m),
            "degenerate": self.degenerate,
            "condition_number": json_float(self.condition_number),
        }


def point_error(
    constellation: Constellation, user: Point3, sigma_s: float | Sequence[float]
) -> ErrorEstimate:
    """Propagated position error at one user position.

    ``sigma_s`` is a single delay standard deviation applied to all three
    delays (the default modeling assumption) or a per-baseline triple.
    Component variances add in quadrature: with ``m`` the inverse of the
    forward Jacobian, sigma_x^2 = sum_j (m[0, j] * sigma_s_j)^2, and
    likewise for y and z.

    Degenerate geometry (condition number above ``CONDITION_LIMIT``) is
    reported as a flagged estimate rather than an exception, so field
    scans can record it per point. A user on a baseline endpoint, where
    the Jacobian is undefined, is degenerate with an infinite condition
    number.

    Raises:
        InvalidInputError: ``sigma_s`` is not a scalar or length-3 value,
            or is negative or non-finite; checked before the geometry, so
            validity does not depend on the user position.
    """
    sig = np.asarray(sigma_s, dtype=float)
    if sig.ndim == 0:
        sig = np.full(3, float(sig))
    if sig.shape != (3,):
        raise InvalidInputError(f"sigma_s must be a scalar or length-3, got shape {sig.shape}")
    if not np.isfinite(sig).all() or (sig < 0.0).any():
        raise InvalidInputError("sigma_s must be finite and >= 0")

    try:
        jac = forward_jacobian(constellation, user)
    except InvalidInputError:
        cond = math.inf
    else:
        cond = condition_number(jac)
    if cond > CONDITION_LIMIT:
        return ErrorEstimate(
            sigma_x_m=math.nan,
            sigma_y_m=math.nan,
            sigma_z_m=math.nan,
            r_xyz_m=math.nan,
            degenerate=True,
            condition_number=cond,
        )

    sigma_xyz = np.linalg.norm(np.linalg.inv(jac) * sig[None, :], axis=1)
    r_xyz = SEP_COEFFICIENT / math.sqrt(3.0) * float(np.linalg.norm(sigma_xyz))
    return ErrorEstimate(
        sigma_x_m=float(sigma_xyz[0]),
        sigma_y_m=float(sigma_xyz[1]),
        sigma_z_m=float(sigma_xyz[2]),
        r_xyz_m=r_xyz,
        degenerate=False,
        condition_number=cond,
    )
