"""Spans and counters recorded around the package's public functions.

The tracer replaces a function with a wrapper in every ``qps`` module
namespace that holds it, so calls between modules (``scenarios`` calling
``gdop.point_error``, ``solver`` calling ``geometry.delays_at``) are
recorded too. Each call becomes a span (id, parent, name, start, end,
failed) kept in memory; a span's self time is its duration minus the
time covered by its child spans. Counters are taken from return values at
the same boundaries. Nothing is written until :meth:`Tracer.dump`.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from pathlib import Path

#: Layers in the order they are reported; ``bench`` is the benchmark's own
#: root span around each operation.
LAYERS = ("bench", "cli", "scenarios", "gdop", "geometry", "solver", "photonics")


def _grid_counts(tracer, result, args):
    grid = args[0]
    tracer.count("scenarios.points", len(grid.r_xyz_m))
    tracer.count("scenarios.degenerate_points", int(sum(bool(v) for v in grid.degenerate)))


def _solve_counts(tracer, result, args):
    tracer.count("solver.iterations", result.iterations)


def _multi_start_counts(tracer, result, args):
    region = args[2]
    lo, hi = region.lower.as_array(), region.upper.as_array()
    outside = sum(
        1
        for r in result
        if not all(l <= v <= h for l, v, h in zip(lo, r.position.as_array(), hi))
    )
    tracer.count("solver.candidates", len(result))
    tracer.count("solver.candidates_outside_region", outside)


def _fit_counts(tracer, result, args):
    tracer.count("photonics.fit_iterations", result.iterations)


#: (module, attribute path, span name, counter callback). Only public
#: functions: a name a refactor removes is skipped and its metrics read 0.
TARGETS = (
    ("qps.cli", "main", "cli.main", None),
    ("qps.scenarios", "figure_dataset", "scenarios.figure_dataset", None),
    ("qps.scenarios", "scan_plane", "scenarios.scan_plane", None),
    ("qps.scenarios", "scan_line", "scenarios.scan_line", None),
    ("qps.scenarios", "scan_baseline_length", "scenarios.scan_baseline_length", None),
    ("qps.scenarios", "build_terrestrial", "scenarios.build_terrestrial", None),
    ("qps.scenarios", "build_leo", "scenarios.build_leo", None),
    ("qps.scenarios", "FieldGrid.to_csv", "scenarios.to_csv", _grid_counts),
    ("qps.scenarios", "FieldGrid.to_json_dict", "scenarios.to_json_dict", _grid_counts),
    ("qps.gdop", "point_error", "gdop.point_error", None),
    ("qps.geometry", "forward_delays", "geometry.forward_delays", None),
    ("qps.geometry", "delays_at", "geometry.delays_at", None),
    ("qps.solver", "solve_position", "solver.solve_position", _solve_counts),
    ("qps.solver", "multi_start_solve", "solver.multi_start_solve", _multi_start_counts),
    ("qps.photonics", "simulate_dip_scan", "photonics.simulate_dip_scan", None),
    ("qps.photonics", "estimate_balance", "photonics.estimate_balance", _fit_counts),
)

SCAN_SPANS = (
    "scenarios.figure_dataset",
    "scenarios.scan_plane",
    "scenarios.scan_line",
    "scenarios.scan_baseline_length",
)


class Tracer:
    """In-memory span and counter recorder for one process."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, float, float, bool]] = []
        self.counters: dict[str, float] = {}
        self._stack: list[tuple[int, str, float]] = []  # (id, name, start)
        self._next_id = 0
        self._undo: list[tuple[object, str, object]] = []

    def begin(self, name: str) -> None:
        self._stack.append((self._next_id, name, time.perf_counter()))
        self._next_id += 1

    def end(self, failed: bool = False) -> None:
        stop = time.perf_counter()
        span_id, name, start = self._stack.pop()
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append((span_id, parent, name, start, stop, failed))

    def count(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def wrap(self, name, fn, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.end(failed=True)
                raise
            self.end()
            if counter is not None:
                counter(self, result, args)
            return result

        return traced

    def install(self, targets=TARGETS) -> None:
        """Wrap each target wherever a ``qps`` module namespace binds it."""
        for module_name, path, name, counter in targets:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            try:
                for part in outer:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except AttributeError:
                continue
            traced = self.wrap(name, original, counter)
            holders = [owner] + [
                m for key, m in sys.modules.items() if key == "qps" or key.startswith("qps.")
            ]
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._undo.append((holder, key, value))
                        setattr(holder, key, traced)

    def uninstall(self) -> None:
        for holder, key, value in reversed(self._undo):
            setattr(holder, key, value)
        self._undo.clear()

    def metrics(self, ops: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as ``{name: (value, unit)}`` over ``ops`` operations."""
        by_id = {s[0]: s for s in self.spans}
        child_time: dict[int, float] = {}
        for span_id, parent, _, start, stop, _ in self.spans:
            if parent >= 0:
                child_time[parent] = child_time.get(parent, 0.0) + (stop - start)
        calls: dict[str, int] = {}
        total: dict[str, float] = {}
        self_time: dict[str, float] = {}
        layer_self = {layer: 0.0 for layer in LAYERS}
        starts = converged = failed_solves = 0
        failed_start_s = 0.0
        for span_id, parent, name, start, stop, failed in self.spans:
            duration = stop - start
            own = duration - child_time.get(span_id, 0.0)
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0.0) + duration
            self_time[name] = self_time.get(name, 0.0) + own
            layer_self[name.split(".", 1)[0]] += own
            if name == "solver.solve_position" and failed:
                failed_solves += 1
            if name == "solver.solve_position" and parent >= 0:
                if by_id[parent][2] == "solver.multi_start_solve":
                    starts += 1
                    if failed:
                        failed_start_s += duration
                    else:
                        converged += 1

        n = max(ops, 1)

        def per_call(name: str, scale: float) -> float:
            return scale * total.get(name, 0.0) / calls[name] if calls.get(name) else 0.0

        def counter(name: str) -> float:
            return self.counters.get(name, 0)

        solves_ok = calls.get("solver.solve_position", 0) - failed_solves
        fits = calls.get("photonics.estimate_balance", 0)
        out = {
            "cli.main_self_ms": (1e3 * self_time.get("cli.main", 0.0) / n, "ms"),
            "scenarios.scan_self_ms": (1e3 * sum(self_time.get(k, 0.0) for k in SCAN_SPANS) / n, "ms"),
            "gdop.point_error_us": (per_call("gdop.point_error", 1e6), "us"),
            "gdop.point_error_calls_per_op": (calls.get("gdop.point_error", 0) / n, "count"),
            "scenarios.to_csv_ms": (per_call("scenarios.to_csv", 1e3), "ms"),
            "scenarios.to_json_ms": (per_call("scenarios.to_json_dict", 1e3), "ms"),
            "scenarios.output_bytes_per_op": (counter("scenarios.output_bytes") / n, "bytes"),
            "scenarios.points_per_op": (counter("scenarios.points") / n, "count"),
            "scenarios.degenerate_points_per_op": (counter("scenarios.degenerate_points") / n, "count"),
            "geometry.delays_at_us": (per_call("geometry.delays_at", 1e6), "us"),
            "geometry.delays_at_calls_per_op": (calls.get("geometry.delays_at", 0) / n, "count"),
            "solver.solve_position_us": (per_call("solver.solve_position", 1e6), "us"),
            "solver.iterations_per_solve": (
                counter("solver.iterations") / solves_ok if solves_ok else 0.0,
                "count",
            ),
            "solver.multi_start_ms": (per_call("solver.multi_start_solve", 1e3), "ms"),
            "solver.starts_per_op": (starts / n, "count"),
            "solver.converged_start_ratio": (converged / starts if starts else 0.0, "ratio"),
            "solver.failed_start_ms_per_op": (1e3 * failed_start_s / n, "ms"),
            "solver.candidates_per_op": (counter("solver.candidates") / n, "count"),
            "solver.candidates_outside_region_per_op": (
                counter("solver.candidates_outside_region") / n,
                "count",
            ),
            "photonics.simulate_dip_scan_us": (per_call("photonics.simulate_dip_scan", 1e6), "us"),
            "photonics.estimate_balance_us": (per_call("photonics.estimate_balance", 1e6), "us"),
            "photonics.fit_iterations": (
                counter("photonics.fit_iterations") / fits if fits else 0.0,
                "count",
            ),
        }
        for layer in LAYERS:
            if layer != "cli":  # the layer is cli.main alone: cli.main_self_ms
                out[f"{layer}.self_ms_per_op"] = (1e3 * layer_self[layer] / n, "ms")
        return out

    def dump(self, path: Path, summary: dict) -> None:
        """Write every span (times in microseconds from the first span)."""
        names = sorted({s[2] for s in self.spans})
        index = {name: i for i, name in enumerate(names)}
        origin = min((s[3] for s in self.spans), default=0.0)
        spans = [
            [sid, parent, index[name], round(1e6 * (a - origin), 3), round(1e6 * (b - origin), 3), int(f)]
            for sid, parent, name, a, b, f in self.spans
        ]
        record = {
            "summary": summary,
            "counters": self.counters,
            "names": names,
            "span_columns": ["id", "parent", "name", "start_us", "end_us", "failed"],
            "spans": spans,
        }
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(record, separators=(",", ":")))
        tmp.replace(path)
