"""Reference constellation layouts and position-error field scans.

Two concrete layouts are provided: a compact ground installation with the
three baselines on the Cartesian axes, and a satellite layout with three
short, well-separated baselines far from the region of interest. Scan
helpers sample the propagated position error over planes, line segments
and layout-parameter sweeps, producing grids that serialize to CSV/JSON
for external plotting.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import InvalidInputError
from .gdop import point_error
from .geometry import Baseline, Constellation, Point3, json_float

#: Mean Earth radius used by the satellite presets, meters.
EARTH_RADIUS_M = 6_378_000.0

#: Default layout parameters of the bundled figure datasets.
DEFAULT_TERRESTRIAL_HALF_LENGTH_M = 2.0
DEFAULT_LEO_SEMI_MAJOR_M = 7_360_000.0
DEFAULT_LEO_BASELINE_M = 20_000.0
DEFAULT_SIGMA_S_M = 1e-6

_AXIS_NAMES = ("x", "y", "z")


@dataclass(frozen=True)
class TerrestrialConfig:
    """Ground layout: baselines along the x, y and z axes.

    Endpoints sit at +/- ``half_length_a`` on each axis and all three
    sources are collocated at the origin (every baseline midpoint).
    """

    half_length_a: float

    def __post_init__(self):
        if not (math.isfinite(self.half_length_a) and self.half_length_a > 0.0):
            raise InvalidInputError(f"half_length_a must be > 0, got {self.half_length_a!r}")


@dataclass(frozen=True)
class LeoConfig:
    """Satellite layout: three baselines of length ``baseline_b`` at
    orbital distance ``semi_major_a`` from the origin."""

    semi_major_a: float
    baseline_b: float

    def __post_init__(self):
        ok = (
            math.isfinite(self.semi_major_a)
            and math.isfinite(self.baseline_b)
            and self.semi_major_a > self.baseline_b > 0.0
        )
        if not ok:
            raise InvalidInputError(
                f"need semi_major_a > baseline_b > 0, got a={self.semi_major_a!r}, b={self.baseline_b!r}"
            )


def build_terrestrial(config: TerrestrialConfig) -> Constellation:
    """Axis-aligned ground constellation with origin-collocated sources."""
    a = config.half_length_a
    return Constellation(
        tuple(
            Baseline.with_midpoint_source(
                Point3(*(+a * e for e in axis)), Point3(*(-a * e for e in axis))
            )
            for axis in ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
        )
    )


def build_leo(config: LeoConfig) -> Constellation:
    """Satellite constellation: two baselines in the z=0 plane at distance
    ``a`` along x and y, one horizontal baseline overhead at height ``a``,
    sources at the baseline midpoints."""
    a, b = config.semi_major_a, config.baseline_b
    q = b / (2.0 * math.sqrt(2.0))
    pairs = (
        (Point3(a, -b / 2.0, 0.0), Point3(a, b / 2.0, 0.0)),
        (Point3(b / 2.0, a, 0.0), Point3(-b / 2.0, a, 0.0)),
        (Point3(-q, -q, a), Point3(q, q, a)),
    )
    return Constellation(tuple(Baseline.with_midpoint_source(p, r) for p, r in pairs))


@dataclass(frozen=True)
class AxisSpec:
    """A swept coordinate: ``count`` evenly spaced samples of ``name``."""

    name: str
    start: float
    stop: float
    count: int

    def __post_init__(self):
        if self.count < 2:
            raise InvalidInputError(f"axis {self.name!r}: count must be >= 2, got {self.count}")
        if not (math.isfinite(self.start) and math.isfinite(self.stop)) or self.start >= self.stop:
            raise InvalidInputError(f"axis {self.name!r}: need finite start < stop")

    def values(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.count)


@dataclass(frozen=True)
class FieldGrid:
    """Sampled position-error field.

    ``coords`` holds one column per reported coordinate, row-major over
    the swept axes; ``r_xyz_m`` is NaN wherever ``degenerate`` is set.
    Degeneracy is strictly per point and never contaminates neighbors.
    """

    axes: tuple[AxisSpec, ...]
    fixed: dict[str, float]
    coords: dict[str, np.ndarray]
    r_xyz_m: np.ndarray
    degenerate: np.ndarray
    condition_number: np.ndarray

    def __post_init__(self):
        n_points = int(np.prod([ax.count for ax in self.axes]))
        for name, arr in {
            "r_xyz_m": self.r_xyz_m,
            "degenerate": self.degenerate,
            "condition_number": self.condition_number,
            **self.coords,
        }.items():
            if len(arr) != n_points:
                raise InvalidInputError(
                    f"column {name!r} has {len(arr)} entries, expected {n_points}"
                )

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        names = list(self.coords)
        writer.writerow(names + ["r_xyz_m", "degenerate", "condition_number"])
        columns = [self.coords[n] for n in names]
        for i in range(len(self.r_xyz_m)):
            writer.writerow(
                [repr(float(col[i])) for col in columns]
                + [
                    repr(float(self.r_xyz_m[i])),
                    int(self.degenerate[i]),
                    repr(float(self.condition_number[i])),
                ]
            )
        return buf.getvalue()

    def to_json_dict(self) -> dict:
        return {
            "axes": [
                {"name": ax.name, "start": ax.start, "stop": ax.stop, "count": ax.count}
                for ax in self.axes
            ],
            "fixed": dict(self.fixed),
            "coords": {k: [float(v) for v in arr] for k, arr in self.coords.items()},
            "r_xyz_m": [json_float(v) for v in self.r_xyz_m],
            "degenerate": [bool(v) for v in self.degenerate],
            "condition_number": [json_float(v) for v in self.condition_number],
        }


def _evaluate_points(
    cases: Iterable[tuple[Constellation, Point3]], n: int, sigma_s: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Evaluate the error chain for each of ``n`` (constellation, user)
    cases, returning the r_xyz, degenerate and condition-number columns."""
    r_xyz = np.empty(n)
    degenerate = np.zeros(n, dtype=bool)
    cond = np.empty(n)
    for i, (constellation, user) in enumerate(cases):
        est = point_error(constellation, user, sigma_s)
        r_xyz[i] = est.r_xyz_m
        degenerate[i] = est.degenerate
        cond[i] = est.condition_number
    return r_xyz, degenerate, cond


def scan_plane(
    constellation: Constellation,
    sweep1: AxisSpec,
    sweep2: AxisSpec,
    fixed_axis: str,
    fixed_value: float,
    sigma_s: float,
) -> FieldGrid:
    """Position-error field over a coordinate plane.

    ``sweep1`` and ``sweep2`` name two of x/y/z (row-major: sweep1 outer);
    the remaining coordinate is held at ``fixed_value``.
    """
    names = {sweep1.name, sweep2.name, fixed_axis}
    if names != set(_AXIS_NAMES) or sweep1.name == sweep2.name:
        raise InvalidInputError(
            f"plane axes must be a permutation of {_AXIS_NAMES}, got "
            f"({sweep1.name!r}, {sweep2.name!r}, fixed {fixed_axis!r})"
        )
    v1, v2 = sweep1.values(), sweep2.values()
    grid1, grid2 = np.meshgrid(v1, v2, indexing="ij")
    points = np.empty((grid1.size, 3))
    points[:, _AXIS_NAMES.index(sweep1.name)] = grid1.ravel()
    points[:, _AXIS_NAMES.index(sweep2.name)] = grid2.ravel()
    points[:, _AXIS_NAMES.index(fixed_axis)] = fixed_value

    r_xyz, degenerate, cond = _evaluate_points(
        ((constellation, Point3.from_array(p)) for p in points), len(points), sigma_s
    )
    return FieldGrid(
        axes=(sweep1, sweep2),
        fixed={fixed_axis: float(fixed_value)},
        coords={
            f"{sweep1.name}_m": grid1.ravel(),
            f"{sweep2.name}_m": grid2.ravel(),
        },
        r_xyz_m=r_xyz,
        degenerate=degenerate,
        condition_number=cond,
    )


def scan_line(
    constellation: Constellation,
    start: Point3,
    end: Point3,
    count: int,
    sigma_s: float,
) -> FieldGrid:
    """Position-error profile along the segment from ``start`` to ``end``.

    The grid's swept coordinate is the arc position from ``start``; the
    sampled x/y/z coordinates are reported alongside.
    """
    p0, p1 = start.as_array(), end.as_array()
    length = float(np.linalg.norm(p1 - p0))
    if length == 0.0:
        raise InvalidInputError("line start and end must differ")
    axis = AxisSpec("arc_m", 0.0, length, count)
    t = np.linspace(0.0, 1.0, count)
    points = p0[None, :] + t[:, None] * (p1 - p0)[None, :]

    r_xyz, degenerate, cond = _evaluate_points(
        ((constellation, Point3.from_array(p)) for p in points), len(points), sigma_s
    )
    return FieldGrid(
        axes=(axis,),
        fixed={},
        coords={
            "arc_m": t * length,
            "x_m": points[:, 0],
            "y_m": points[:, 1],
            "z_m": points[:, 2],
        },
        r_xyz_m=r_xyz,
        degenerate=degenerate,
        condition_number=cond,
    )


def scan_baseline_length(
    a_start: float,
    a_stop: float,
    count: int,
    user: Point3,
    sigma_s: float,
) -> FieldGrid:
    """Position error at a fixed user versus the ground-layout half length.

    Rebuilds the axis-aligned constellation for each sampled ``a``.
    """
    if not (math.isfinite(a_start) and a_start > 0.0):
        raise InvalidInputError(f"a_start must be > 0, got {a_start!r}")
    axis = AxisSpec("a_m", a_start, a_stop, count)
    a_values = axis.values()
    r_xyz, degenerate, cond = _evaluate_points(
        ((build_terrestrial(TerrestrialConfig(float(a))), user) for a in a_values),
        len(a_values),
        sigma_s,
    )
    return FieldGrid(
        axes=(axis,),
        fixed={"x": user.x, "y": user.y, "z": user.z},
        coords={"a_m": a_values},
        r_xyz_m=r_xyz,
        degenerate=degenerate,
        condition_number=cond,
    )


#: Names of the bundled figure datasets, in presentation order.
FIGURE_NAMES = ("fig4", "fig5", "fig6", "fig8", "fig9", "fig10")


def figure_dataset(name: str) -> FieldGrid:
    """Recompute one of the bundled accuracy-map datasets.

    The presets bake in the reference parameters (ground half length 2 m;
    satellite distance 7360 km with 20 km baselines; sigma_s = 1 um):

    - ``fig4``: ground-layout error map in the x-y plane at z = 100/sqrt(3) m.
    - ``fig5``: ground-layout error along x at y = 30 m, z = 100/sqrt(3) m.
    - ``fig6``: ground-layout error at (30, 30, 100/sqrt(3)) m versus half length a.
    - ``fig8``: satellite-layout error map in the x-y plane at z = R_e/sqrt(3).
    - ``fig9``: satellite-layout error along x at y = z = R_e/sqrt(3).
    - ``fig10``: satellite-layout error along the (1,1,1) radial direction.
    """
    sigma = DEFAULT_SIGMA_S_M
    ground = build_terrestrial(TerrestrialConfig(DEFAULT_TERRESTRIAL_HALF_LENGTH_M))
    z_ground = 100.0 / math.sqrt(3.0)
    z_leo = EARTH_RADIUS_M / math.sqrt(3.0)

    if name == "fig4":
        half = 2.0 * z_ground
        return scan_plane(
            ground,
            AxisSpec("x", -half, half, 201),
            AxisSpec("y", -half, half, 201),
            "z",
            z_ground,
            sigma,
        )
    if name == "fig5":
        return scan_line(
            ground, Point3(-100.0, 30.0, z_ground), Point3(100.0, 30.0, z_ground), 500, sigma
        )
    if name == "fig6":
        return scan_baseline_length(0.5, 5.0, 601, Point3(30.0, 30.0, z_ground), sigma)

    leo = build_leo(LeoConfig(DEFAULT_LEO_SEMI_MAJOR_M, DEFAULT_LEO_BASELINE_M))
    if name == "fig8":
        half = 2.0 * z_leo
        return scan_plane(
            leo,
            AxisSpec("x", -half, half, 201),
            AxisSpec("y", -half, half, 201),
            "z",
            z_leo,
            sigma,
        )
    if name == "fig9":
        return scan_line(
            leo, Point3(-8e6, z_leo, z_leo), Point3(8e6, z_leo, z_leo), 500, sigma
        )
    if name == "fig10":
        lo = EARTH_RADIUS_M / math.sqrt(3.0)
        hi = 12_000_000.0 / math.sqrt(3.0)
        return scan_line(leo, Point3(lo, lo, lo), Point3(hi, hi, hi), 500, sigma)
    raise InvalidInputError(f"unknown figure dataset {name!r}; choose from {FIGURE_NAMES}")
