"""Spatial types and the forward delay model of a three-baseline
biphoton interferometric positioning system.

Each baseline is a pair of reflector endpoints with a photon-pair
source/detector station on it. A round trip of the entangled photons from
the station, via the two endpoints, to the user's corner reflector and
back is balanced by a tunable optical delay; the balancing delay length
is the observable. Three baselines give three range-difference equations
whose intersection determines the user position.

All lengths are SI meters, all times seconds, propagation in vacuum.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable

import numpy as np

from .errors import InvalidInputError

#: Vacuum speed of light in m/s (exact by definition).
SPEED_OF_LIGHT = 299_792_458.0

#: Condition number of the delay Jacobian above which the delay-to-position
#: map counts as not invertible (degenerate geometry, singular solve step).
CONDITION_LIMIT = 1e12


@dataclass(frozen=True)
class Point3:
    """A position in 3-D Cartesian space, in meters.

    All components must be finite; NaN or infinity is rejected at
    construction so downstream operations never see them.
    """

    x: float
    y: float
    z: float

    def __post_init__(self):
        for name in ("x", "y", "z"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise InvalidInputError(f"Point3.{name} must be finite, got {value!r}")
            object.__setattr__(self, name, float(value))

    @classmethod
    def from_array(cls, arr: Iterable[float]) -> "Point3":
        try:
            vals = [float(v) for v in arr]
        except ValueError:
            raise InvalidInputError(f"components must be numbers, got {arr!r}") from None
        if len(vals) != 3:
            raise InvalidInputError(f"expected 3 components, got {len(vals)}")
        return cls(*vals)

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z], dtype=float)

    def norm(self) -> float:
        return math.hypot(self.x, self.y, self.z)


@dataclass(frozen=True)
class Baseline:
    """One interferometer arm pair.

    Attributes:
        endpoint_a: First reflector endpoint.
        endpoint_b: Second reflector endpoint.
        source: Location of the photon-pair source, beam splitter and
            detectors (assumed collocated).
    """

    endpoint_a: Point3
    endpoint_b: Point3
    source: Point3

    def __post_init__(self):
        if self.length == 0.0:
            raise InvalidInputError("baseline endpoints must be distinct")

    @classmethod
    def with_midpoint_source(cls, endpoint_a: Point3, endpoint_b: Point3) -> "Baseline":
        """Build a baseline with the source at the midpoint of the endpoints."""
        mid = Point3(
            0.5 * (endpoint_a.x + endpoint_b.x),
            0.5 * (endpoint_a.y + endpoint_b.y),
            0.5 * (endpoint_a.z + endpoint_b.z),
        )
        return cls(endpoint_a, endpoint_b, mid)

    @cached_property
    def length(self) -> float:
        """Distance between the two endpoints."""
        a, b = self.endpoint_a, self.endpoint_b
        return math.hypot(a.x - b.x, a.y - b.y, a.z - b.z)

    @cached_property
    def source_path_offset(self) -> float:
        """Constant leg asymmetry ``|A - source| - |source - B|``.

        Zero for a midpoint source; folded into the balanced delay for a
        general source placement.
        """
        a, b, s = self.endpoint_a, self.endpoint_b, self.source
        leg_a = math.hypot(a.x - s.x, a.y - s.y, a.z - s.z)
        leg_b = math.hypot(b.x - s.x, b.y - s.y, b.z - s.z)
        return leg_a - leg_b


@dataclass(frozen=True)
class Constellation:
    """Exactly three baselines defining the spatial reference frame."""

    baselines: tuple[Baseline, Baseline, Baseline]

    def __post_init__(self):
        baselines = tuple(self.baselines)
        if len(baselines) != 3:
            raise InvalidInputError(f"a constellation needs exactly 3 baselines, got {len(baselines)}")
        object.__setattr__(self, "baselines", baselines)

    # Endpoint coordinates stacked as (3, 3) arrays, one row per baseline.
    # Cached because the solver and field scans evaluate the forward model
    # many times against a fixed constellation.

    @cached_property
    def endpoints_a(self) -> np.ndarray:
        return np.array([b.endpoint_a.as_array() for b in self.baselines])

    @cached_property
    def endpoints_b(self) -> np.ndarray:
        return np.array([b.endpoint_b.as_array() for b in self.baselines])

    @cached_property
    def midpoints(self) -> np.ndarray:
        return 0.5 * (self.endpoints_a + self.endpoints_b)

    @cached_property
    def centre(self) -> np.ndarray:
        """Mean of the three baseline midpoints."""
        return self.midpoints.mean(axis=0)

    @cached_property
    def radius(self) -> float:
        """Distance from :attr:`centre` to the farthest baseline endpoint."""
        ends = np.concatenate((self.endpoints_a, self.endpoints_b))
        return float(np.linalg.norm(ends - self.centre, axis=1).max())

    @cached_property
    def axes(self) -> np.ndarray:
        """Endpoint difference vectors ``A - B``, one row per baseline."""
        return self.endpoints_a - self.endpoints_b

    @cached_property
    def lengths(self) -> np.ndarray:
        return np.array([b.length for b in self.baselines])

    @cached_property
    def source_path_offsets(self) -> np.ndarray:
        return np.array([b.source_path_offset for b in self.baselines])

    def to_json_dict(self) -> dict:
        return {
            "baselines": [
                {
                    "a": [b.endpoint_a.x, b.endpoint_a.y, b.endpoint_a.z],
                    "b": [b.endpoint_b.x, b.endpoint_b.y, b.endpoint_b.z],
                    "source": [b.source.x, b.source.y, b.source.z],
                }
                for b in self.baselines
            ]
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "Constellation":
        try:
            entries = data["baselines"]
        except (TypeError, KeyError):
            raise InvalidInputError("constellation JSON must have a 'baselines' key")
        if not isinstance(entries, list) or len(entries) != 3:
            raise InvalidInputError("'baselines' must be a list of exactly 3 entries")
        baselines = []
        for i, entry in enumerate(entries):
            try:
                baselines.append(
                    Baseline(
                        Point3.from_array(entry["a"]),
                        Point3.from_array(entry["b"]),
                        Point3.from_array(entry["source"]),
                    )
                )
            except (TypeError, KeyError):
                raise InvalidInputError(f"baseline {i}: each entry needs 'a', 'b' and 'source' triples")
        return cls(tuple(baselines))

    def save_json(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_json_dict(), indent=2) + "\n")


def load_constellation(path: str | Path) -> Constellation:
    """Load a constellation from the documented JSON schema."""
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"{path}: not valid JSON ({exc})") from exc
    return Constellation.from_json_dict(data)


def forward_delays(constellation: Constellation, user: Point3) -> np.ndarray:
    """Balancing delay lengths of all three baselines, shape ``(3,)``.

    This is the exact forward model that the position solver inverts.
    """
    return delays_at(constellation, user.as_array())


def delays_at(constellation: Constellation, xyz: np.ndarray) -> np.ndarray:
    """Array-level forward model: balancing delays at positions ``xyz``.

    Hot-path variant of :func:`forward_delays` operating on a raw
    coordinate array of shape ``(..., 3)``; the result has the same shape,
    one delay per baseline, and each position's delays are bit-identical to
    evaluating it alone. Baseline i's delay is the path-length excess of
    its endpoint_a leg over its endpoint_b leg:

        s = (|xyz - A| + |A - source|) - (|xyz - B| + |source - B|)

    Positive s means the endpoint_a leg is longer, i.e. the delay element
    on the endpoint_b side must add s of optical path. The range
    difference is evaluated as ``-2 (xyz - m) . (A - B) / (|xyz-A| +
    |xyz-B|)`` with m the endpoint midpoint, which is algebraically
    identical but avoids the catastrophic cancellation of subtracting two
    nearly equal distances; far-field positioning accuracy depends on this.
    It shares the leg evaluation of :func:`jacobian_at`, so a caller that
    needs both, like the solver, evaluates each point once.
    """
    return _delays(constellation, xyz, *_legs(constellation, xyz)[2:])


def _legs(constellation: Constellation, xyz: np.ndarray) -> tuple[np.ndarray, ...]:
    """Vectors from each baseline's endpoints A and B to ``xyz`` and their
    lengths, computed as ``np.linalg.norm(v, axis=-1)`` computes them."""
    p = xyz[..., None, :]
    d_a = p - constellation.endpoints_a
    d_b = p - constellation.endpoints_b
    n_a = np.sqrt(np.add.reduce(d_a * d_a, axis=-1))
    n_b = np.sqrt(np.add.reduce(d_b * d_b, axis=-1))
    return d_a, d_b, n_a, n_b


def _delays(
    constellation: Constellation, xyz: np.ndarray, n_a: np.ndarray, n_b: np.ndarray
) -> np.ndarray:
    if not np.all(np.isfinite(xyz)):
        raise InvalidInputError(f"position must be finite, got {xyz!r}")
    denom = n_a + n_b
    if np.any(denom == 0.0):
        raise InvalidInputError("position coincides with both endpoints of a baseline")
    p = xyz[..., None, :]
    num = -2.0 * np.einsum("...ij,ij->...i", p - constellation.midpoints, constellation.axes)
    return num / denom + constellation.source_path_offsets


def _jacobian(
    d_a: np.ndarray, d_b: np.ndarray, n_a: np.ndarray, n_b: np.ndarray
) -> np.ndarray | None:
    """None where a position sits on an endpoint."""
    if np.any(n_a == 0.0) or np.any(n_b == 0.0):
        return None
    return d_a / n_a[..., None] - d_b / n_b[..., None]


def _evaluate(
    constellation: Constellation, xyz: np.ndarray
) -> tuple[np.ndarray, np.ndarray | None]:
    """:func:`delays_at` and :func:`jacobian_at` from one leg evaluation,
    bit for bit; the Jacobian is None where :func:`jacobian_at` raises."""
    legs = _legs(constellation, xyz)
    return _delays(constellation, xyz, *legs[2:]), _jacobian(*legs)


def forward_jacobian(constellation: Constellation, user: Point3) -> np.ndarray:
    """Exact gradient of the forward delay model, one row per baseline.

    Point-typed wrapper of :func:`jacobian_at`.
    """
    return jacobian_at(constellation, user.as_array())


def jacobian_at(constellation: Constellation, xyz: np.ndarray) -> np.ndarray:
    """Array-level gradient of :func:`delays_at` at positions ``xyz``.

    Row i is ``unit(xyz - A_i) - unit(xyz - B_i)``: the rate of change of
    baseline i's balancing delay per unit displacement. ``xyz`` has shape
    ``(..., 3)`` and the result ``(..., 3, 3)``, each position's matrix
    bit-identical to evaluating it alone. It shares the leg evaluation of
    :func:`delays_at` and computes no delays.

    Raises:
        InvalidInputError: A position coincides with a baseline endpoint,
            where the gradient is undefined.
    """
    jac = _jacobian(*_legs(constellation, xyz))
    if jac is None:
        raise InvalidInputError("position coincides with a baseline endpoint")
    return jac


def condition_number(jacobian: np.ndarray) -> float | np.ndarray:
    """2-norm condition number of a delay Jacobian; infinite when singular.

    The geometry is degenerate where this exceeds ``CONDITION_LIMIT``. A
    stack of shape ``(..., 3, 3)`` gives an array of condition numbers.
    """
    svals = np.linalg.svd(jacobian, compute_uv=False)
    if svals.ndim == 1:
        return math.inf if svals[-1] == 0.0 else float(svals[0] / svals[-1])
    cond = np.full(svals.shape[:-1], math.inf)
    np.divide(svals[..., 0], svals[..., -1], out=cond, where=svals[..., -1] != 0.0)
    return cond


def json_float(v: float) -> float | None:
    """A float for JSON output: non-finite values become ``None`` (null)."""
    return float(v) if math.isfinite(v) else None
