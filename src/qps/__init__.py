"""Simulation and analysis toolkit for biphoton interferometric positioning.

The package models round-trip photon delays over three reflector
baselines, simulates the two-photon coincidence dip used to measure those
delays, inverts the resulting range-difference equations for user
position, and propagates delay error into position error.
"""

from .errors import (
    DegenerateDelayError,
    FitDivergedError,
    InvalidInputError,
    NoDipFoundError,
    NotConvergedError,
    QpsError,
    SingularJacobianError,
)
from .geometry import (
    SPEED_OF_LIGHT,
    Baseline,
    Constellation,
    Point3,
    forward_delays,
    forward_jacobian,
    load_constellation,
)
from .photonics import (
    BalanceEstimate,
    DipScan,
    HomConfig,
    coincidence_rate,
    estimate_balance,
    simulate_dip_scan,
)
from .solver import (
    DelayTriple,
    Region,
    SolveResult,
    multi_start_solve,
    solve_all,
    solve_position,
)
from .gdop import (
    SEP_COEFFICIENT,
    ErrorEstimate,
    point_error,
)
from .scenarios import (
    EARTH_RADIUS_M,
    AxisSpec,
    FieldGrid,
    LeoConfig,
    TerrestrialConfig,
    build_leo,
    build_terrestrial,
    figure_dataset,
    scan_baseline_length,
    scan_line,
    scan_plane,
)

__version__ = "0.1.0"

__all__ = [
    "QpsError",
    "InvalidInputError",
    "DegenerateDelayError",
    "SingularJacobianError",
    "NotConvergedError",
    "NoDipFoundError",
    "FitDivergedError",
    "SPEED_OF_LIGHT",
    "Point3",
    "Baseline",
    "Constellation",
    "forward_delays",
    "forward_jacobian",
    "load_constellation",
    "HomConfig",
    "DipScan",
    "BalanceEstimate",
    "coincidence_rate",
    "simulate_dip_scan",
    "estimate_balance",
    "DelayTriple",
    "SolveResult",
    "Region",
    "solve_position",
    "solve_all",
    "multi_start_solve",
    "SEP_COEFFICIENT",
    "ErrorEstimate",
    "point_error",
    "EARTH_RADIUS_M",
    "TerrestrialConfig",
    "LeoConfig",
    "AxisSpec",
    "FieldGrid",
    "build_terrestrial",
    "build_leo",
    "scan_plane",
    "scan_line",
    "scan_baseline_length",
    "figure_dataset",
]
