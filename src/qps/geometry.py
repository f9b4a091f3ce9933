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
import operator
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


#: Largest magnitude of a coordinate or a delay, meters; squares overflow from about 1.3e154 m.
MAX_COORDINATE_M = 1e150


class _Triple:
    """Three numbers, the dataclass fields of a subclass, each at most
    ``MAX_COORDINATE_M`` in magnitude (so NaN and infinity are rejected at
    construction); ``_noun`` names them in the errors of :meth:`from_array`."""

    _noun = "components"

    def __init_subclass__(cls):
        cls._fields = tuple(cls.__annotations__)
        cls._values = operator.attrgetter(*cls._fields)

    def __post_init__(self):
        try:
            for name in self._fields:
                value = getattr(self, name)
                if not abs(value) <= MAX_COORDINATE_M:
                    raise TypeError
                object.__setattr__(self, name, float(value))
        except TypeError:
            raise InvalidInputError(
                f"{type(self).__name__}.{name} must be finite and at most "
                f"{MAX_COORDINATE_M:.0e} in magnitude, got {value!r}"
            ) from None

    @classmethod
    def from_array(cls, arr: Iterable[float]):
        """The triple of the three numbers in ``arr``, which is not a string."""
        # Python floats convert faster than numpy scalars.
        values = arr.tolist() if isinstance(arr, np.ndarray) else arr
        try:
            if isinstance(values, (str, bytes)):
                raise TypeError
            vals = [float(v) for v in values]
        except (TypeError, ValueError):
            raise InvalidInputError(f"{cls._noun} must be numbers, got {arr!r}") from None
        if len(vals) != 3:
            raise InvalidInputError(f"expected 3 {cls._noun}, got {len(vals)}")
        return cls(*vals)

    def as_array(self) -> np.ndarray:
        return np.array(self._values(self))


@dataclass(frozen=True)
class Point3(_Triple):
    """A position in 3-D Cartesian space, in meters."""

    x: float
    y: float
    z: float

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
        mid = 0.5 * (endpoint_a.as_array() + endpoint_b.as_array())
        return cls(endpoint_a, endpoint_b, Point3.from_array(mid))

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

    # Endpoint coordinates, one row per endpoint. Cached because the solver
    # and field scans evaluate the forward model many times against a fixed
    # constellation; endpoints_a and endpoints_b are (3, 3) views of it.

    @cached_property
    def endpoints(self) -> np.ndarray:
        """The six endpoints, shape ``(6, 3)``: the A rows, then the B rows."""
        ends = [b.endpoint_a for b in self.baselines] + [b.endpoint_b for b in self.baselines]
        return np.array([p.as_array() for p in ends])

    @cached_property
    def endpoints_a(self) -> np.ndarray:
        return self.endpoints[:3]

    @cached_property
    def endpoints_b(self) -> np.ndarray:
        return self.endpoints[3:]

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
        return float(np.linalg.norm(self.endpoints - self.centre, axis=1).max())

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
                baselines.append(Baseline(*(Point3.from_array(entry[k]) for k in ("a", "b", "source"))))
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
    It shares the leg evaluation of :func:`jacobian_at` (one pass over the
    six endpoints of :attr:`Constellation.endpoints`), so a caller that
    needs both, like the solver, evaluates each point once.

    Raises:
        InvalidInputError: A coordinate is not finite or exceeds
            ``MAX_COORDINATE_M`` in magnitude, or a position sits on both
            endpoints of a baseline at once.
    """
    return _delays(constellation, xyz, _legs(constellation, xyz)[1])


def _legs(constellation: Constellation, xyz: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectors from the six endpoints (:attr:`Constellation.endpoints`) to
    ``xyz``, shape ``(..., 6, 3)``, and their lengths, computed as
    ``np.linalg.norm(v, axis=-1)`` computes them; no square overflows."""
    if not abs(xyz).max(initial=0.0) <= MAX_COORDINATE_M:
        raise InvalidInputError(
            f"position must be finite and at most {MAX_COORDINATE_M:.0e} in magnitude, got {xyz!r}"
        )
    d = xyz[..., None, :] - constellation.endpoints
    return d, np.sqrt(np.add.reduce(d * d, axis=-1))


def _delays(constellation: Constellation, xyz: np.ndarray, n: np.ndarray) -> np.ndarray:
    denom = n[..., :3] + n[..., 3:]
    if (denom == 0.0).any():
        raise InvalidInputError("position coincides with both endpoints of a baseline")
    p = xyz[..., None, :]
    num = -2.0 * np.einsum("...ij,ij->...i", p - constellation.midpoints, constellation.axes)
    return num / denom + constellation.source_path_offsets


def _jacobian(d: np.ndarray, n: np.ndarray) -> np.ndarray | None:
    """None where a position sits on an endpoint."""
    if not n.all():
        return None
    unit = d / n[..., None]
    return unit[..., :3, :] - unit[..., 3:, :]


def _evaluate(
    constellation: Constellation, xyz: np.ndarray
) -> tuple[np.ndarray, np.ndarray | None]:
    """:func:`delays_at` and :func:`jacobian_at` from one leg evaluation,
    bit for bit; the Jacobian is None where :func:`jacobian_at` raises."""
    d, n = _legs(constellation, xyz)
    return _delays(constellation, xyz, n), _jacobian(d, n)


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
        InvalidInputError: A coordinate is out of bounds, as in
            :func:`delays_at`, or a position coincides with a baseline
            endpoint, where the gradient is undefined.
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


def column_list(values: np.ndarray, boolean: type = bool) -> list:
    """An output column as Python floats, or as ``boolean`` values if boolean."""
    values = np.asarray(values)
    return values.astype(boolean if values.dtype == bool else float, copy=False).tolist()


def csv_table(columns: dict[str, np.ndarray]) -> str:
    """CSV of equal-length columns under a header of their names: floats as
    their ``repr`` and booleans as 1 or 0, the bytes of ``csv.writer``."""
    cells = (map(repr, column_list(c, int)) for c in columns.values())
    return "\n".join([",".join(columns), *map(",".join, zip(*cells)), ""])
