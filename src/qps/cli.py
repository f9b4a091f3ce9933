"""Command-line front end.

Subcommands cover single-shot solving, dip-scan simulation and fitting,
point error estimates, field scans, and recomputation of the bundled
figure datasets. All lengths on the command line are meters. Output is
deterministic for fixed flags and seeds, and files are written atomically
(temp file + rename).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

from .errors import QpsError
from .geometry import Constellation, Point3, load_constellation
from .photonics import HomConfig, estimate_balance, simulate_dip_scan
from .gdop import point_error
from .scenarios import (
    DEFAULT_LEO_BASELINE_M,
    DEFAULT_LEO_SEMI_MAJOR_M,
    DEFAULT_TERRESTRIAL_HALF_LENGTH_M,
    FIGURE_NAMES,
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
from .solver import DelayTriple, Region, solve_all, solve_position


def _parse_floats(text: str, n: int, what: str) -> list[float]:
    parts = text.split(",")
    if len(parts) != n:
        raise argparse.ArgumentTypeError(f"{what}: expected {n} comma-separated values, got {text!r}")
    try:
        return [float(p) for p in parts]
    except ValueError:
        raise argparse.ArgumentTypeError(f"{what}: could not parse {text!r} as numbers")


def _point(text: str) -> Point3:
    return Point3(*_parse_floats(text, 3, "point"))


def _triple(text: str) -> DelayTriple:
    return DelayTriple(*_parse_floats(text, 3, "delays"))


def _range_spec(text: str) -> tuple[float, float, int]:
    lo, hi, count = _parse_floats(text, 3, "range")
    if not count.is_integer():
        raise argparse.ArgumentTypeError(f"range: COUNT must be an integer, got {text!r}")
    return lo, hi, int(count)


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"seed must be a non-negative integer, got {text!r}")
    return value


def _sweep_spec(text: str) -> AxisSpec:
    parts = text.split(",")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError(f"sweep: expected NAME,MIN,MAX,COUNT, got {text!r}")
    return AxisSpec(parts[0], float(parts[1]), float(parts[2]), int(parts[3]))


def _fixed_spec(text: str) -> tuple[str, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"fixed: expected NAME,VALUE, got {text!r}")
    return parts[0], float(parts[1])


def _add_constellation_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--preset", choices=("terrestrial", "leo"), help="built-in layout")
    group.add_argument("--constellation", type=Path, help="constellation JSON file")
    parser.add_argument("--a", type=float, default=None, help="terrestrial half length / LEO distance, m")
    parser.add_argument("--b", type=float, default=None, help="LEO baseline length, m")


def _resolve_constellation(args: argparse.Namespace) -> Constellation:
    if args.constellation is not None:
        return load_constellation(args.constellation)
    if args.preset == "terrestrial":
        a = DEFAULT_TERRESTRIAL_HALF_LENGTH_M if args.a is None else args.a
        return build_terrestrial(TerrestrialConfig(a))
    a = DEFAULT_LEO_SEMI_MAJOR_M if args.a is None else args.a
    b = DEFAULT_LEO_BASELINE_M if args.b is None else args.b
    return build_leo(LeoConfig(a, b))


def _dump_json(data) -> str:
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def _atomic_write(path: Path, text: str) -> None:
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent or Path("."), prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(text: str, output: Path | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        _atomic_write(output, text)


def _emit_grid(grid: FieldGrid, output: Path | None, fmt: str) -> None:
    text = grid.to_csv() if fmt == "csv" else _dump_json(grid.to_json_dict())
    _emit(text, output)


def _cmd_solve(args: argparse.Namespace) -> int:
    constellation = _resolve_constellation(args)
    if args.guess is not None:
        result = solve_position(constellation, args.s, args.guess)
        _emit(_dump_json(result.to_json_dict()), args.output)
        return 0
    results = solve_all(constellation, args.s)
    if args.region is not None:
        region = Region(Point3(*args.region[0::2]), Point3(*args.region[1::2]))
        lo, hi = region.lower.as_array(), region.upper.as_array()
        results = [
            r for r in results
            if (lo <= r.position.as_array()).all() and (r.position.as_array() <= hi).all()
        ]
    _emit(_dump_json([r.to_json_dict() for r in results]), args.output)
    return 0


def _cmd_dip_scan(args: argparse.Namespace) -> int:
    config = HomConfig(
        alpha1=args.alpha1,
        alpha2=args.alpha2,
        eta_v_sq=args.eta_v_sq,
        delta_omega=args.delta_omega,
    )
    lo, hi, count = args.grid
    grid = AxisSpec("offset_m", lo, hi, count).values()
    scan = simulate_dip_scan(
        config,
        args.true_offset,
        grid,
        args.integration_time,
        args.seed,
        noise=not args.no_noise,
    )
    if args.output is not None:
        base = Path(args.output)
        _atomic_write(base.with_suffix(".csv"), scan.to_csv())
        _atomic_write(base.with_suffix(".json"), _dump_json(scan.to_json_dict()))
    fit = estimate_balance(scan, config, fit_bandwidth=not args.fix_bandwidth)
    fit_dict = {
        "offset_m": fit.offset_m,
        "sigma_s_m": fit.sigma_m,
        "plateau_hz": fit.plateau_hz,
        "delta_omega_rad_s": fit.delta_omega,
        "iterations": fit.iterations,
    }
    if args.output is None:
        sys.stdout.write(_dump_json({"scan": scan.to_json_dict(), "fit": fit_dict}))
    else:
        sys.stdout.write(_dump_json(fit_dict))
    return 0


def _cmd_gdop(args: argparse.Namespace) -> int:
    constellation = _resolve_constellation(args)
    estimate = point_error(constellation, args.user, args.sigma_s)
    _emit(_dump_json(estimate.to_json_dict()), args.output)
    return 0


def _cmd_field(args: argparse.Namespace) -> int:
    constellation = _resolve_constellation(args)
    if len(args.sweep) != 2:
        raise QpsError("field needs exactly two --sweep specs")
    name, value = args.fixed
    grid = scan_plane(constellation, args.sweep[0], args.sweep[1], name, value, args.sigma_s)
    _emit_grid(grid, args.output, args.format)
    return 0


def _cmd_line(args: argparse.Namespace) -> int:
    constellation = _resolve_constellation(args)
    grid = scan_line(constellation, args.start, args.end, args.count, args.sigma_s)
    _emit_grid(grid, args.output, args.format)
    return 0


def _cmd_sweep_a(args: argparse.Namespace) -> int:
    lo, hi, count = args.a_range
    grid = scan_baseline_length(lo, hi, count, args.user, args.sigma_s)
    _emit_grid(grid, args.output, args.format)
    return 0


def _cmd_reproduce(args: argparse.Namespace) -> int:
    grid = figure_dataset(args.name)
    _emit_grid(grid, args.output, args.format)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qps",
        description="Biphoton interferometric positioning: solve, simulate, and map errors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="invert measured delays for position candidates")
    _add_constellation_flags(p)
    p.add_argument("--s", type=_triple, required=True, help="delays s1,s2,s3 in meters")
    p.add_argument(
        "--guess", type=_point, default=None,
        help="initial guess x,y,z; without it every intersection is reported",
    )
    p.add_argument(
        "--region",
        type=lambda t: _parse_floats(t, 6, "region"),
        default=None,
        help="without --guess, keep only the intersections in the box xmin,xmax,ymin,ymax,zmin,zmax",
    )
    p.add_argument("--output", type=Path, default=None)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("dip-scan", help="simulate a coincidence dip scan and fit the balance point")
    p.add_argument("--alpha1", type=float, default=0.8, help="detector 1 quantum efficiency")
    p.add_argument("--alpha2", type=float, default=0.8, help="detector 2 quantum efficiency")
    p.add_argument("--eta-v-sq", type=float, default=15625.0, help="source amplitude, counts/s")
    p.add_argument("--delta-omega", type=float, default=1e12, help="filter bandwidth, rad/s")
    p.add_argument("--true-offset", type=float, default=0.0, help="true balance offset, m")
    p.add_argument("--grid", type=_range_spec, required=True, help="offset grid min,max,count (m)")
    p.add_argument("--integration-time", type=float, default=1.0, help="seconds per grid point")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--no-noise", action="store_true", help="record exact expected rates")
    p.add_argument("--fix-bandwidth", action="store_true", help="hold delta-omega at its configured value")
    p.add_argument("--output", type=Path, default=None, help="base path; writes .csv and .json")
    p.set_defaults(func=_cmd_dip_scan)

    p = sub.add_parser("gdop", help="propagated position error at one user position")
    _add_constellation_flags(p)
    p.add_argument("--sigma-s", type=float, required=True, help="delay standard deviation, m")
    p.add_argument("--user", type=_point, required=True, help="user position x,y,z")
    p.add_argument("--output", type=Path, default=None)
    p.set_defaults(func=_cmd_gdop)

    p = sub.add_parser("field", help="error map over a coordinate plane")
    _add_constellation_flags(p)
    p.add_argument("--sweep", type=_sweep_spec, action="append", required=True,
                   help="swept axis NAME,MIN,MAX,COUNT (give twice)")
    p.add_argument("--fixed", type=_fixed_spec, required=True, help="fixed axis NAME,VALUE")
    p.add_argument("--sigma-s", type=float, required=True)
    p.add_argument("--output", type=Path, default=None)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=_cmd_field)

    p = sub.add_parser("line", help="error profile along a segment")
    _add_constellation_flags(p)
    p.add_argument("--start", type=_point, required=True)
    p.add_argument("--end", type=_point, required=True)
    p.add_argument("--count", type=int, default=500)
    p.add_argument("--sigma-s", type=float, required=True)
    p.add_argument("--output", type=Path, default=None)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=_cmd_line)

    p = sub.add_parser("sweep-a", help="error at a fixed user vs ground-layout half length")
    p.add_argument("--a-range", type=_range_spec, required=True, help="half-length range min,max,count (m)")
    p.add_argument("--user", type=_point, required=True)
    p.add_argument("--sigma-s", type=float, required=True)
    p.add_argument("--output", type=Path, default=None)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=_cmd_sweep_a)

    p = sub.add_parser("reproduce", help="recompute a bundled figure dataset")
    p.add_argument("name", choices=FIGURE_NAMES)
    p.add_argument("--output", type=Path, default=None)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=_cmd_reproduce)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except QpsError as exc:
        sys.stderr.write(_dump_json({"error": type(exc).__name__, "message": str(exc)}))
        return 1
    except OSError as exc:
        sys.stderr.write(_dump_json({"error": "OSError", "message": str(exc)}))
        return 1


if __name__ == "__main__":
    sys.exit(main())
