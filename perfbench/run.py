"""Benchmark of the ``qps`` package: one workload per call.

    python3 perfbench/run.py --workload maps --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; nothing is installed, the package is
imported from ``src``. The last line of output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end ones (set-up time, throughput, median and
tail latency, peak memory); with ``--trace 1`` a separate traced run
reports the per-layer metrics and writes its spans to
``perfbench/out/trace-<workload>.json``. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("maps", "montecarlo", "tracking", "acquisition")
#: Fresh interpreters timed per run for ``setup_s``; the median is reported.
SETUP_SAMPLES = 5
IMPORTTIME_SAMPLES = 3
SETUP_CODE = (
    "import qps, qps.cli; "
    "qps.build_terrestrial(qps.TerrestrialConfig(2.0)); "
    "qps.build_leo(qps.LeoConfig(7.36e6, 2.0e4))"
)
#: Whole run, set-up included, ends well inside three minutes.
DEADLINE_S = 170.0


def child_env() -> dict[str, str]:
    """Environment of every process the benchmark starts: the package from
    ``src``, BLAS on one thread, ``QPS_THREADS`` unset."""
    env = dict(os.environ)
    env.pop("QPS_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)
    return env


def measure_setup(env) -> float:
    times = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT, check=True, timeout=60,
            stdout=subprocess.DEVNULL,
        )
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def measure_imports(env) -> tuple[float, float]:
    """Median ``-X importtime`` totals of ``qps`` + ``qps.cli`` and of
    ``scipy.stats``, in seconds."""
    total, stats = [], []
    for _ in range(IMPORTTIME_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import qps, qps.cli"],
            env=env, cwd=ROOT, check=True, timeout=60, capture_output=True, text=True,
        )
        top = scipy_stats = 0
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            _, cumulative, name = line[len("import time:"):].split("|")
            if not cumulative.strip().isdigit():
                continue
            if name.rstrip() in (" qps", " qps.cli"):
                top += int(cumulative)
            if name.strip() == "scipy.stats":
                scipy_stats = max(scipy_stats, int(cumulative))
        total.append(top * 1e-6)
        stats.append(scipy_stats * 1e-6)
    return statistics.median(total), statistics.median(stats)


def run_worker(args, env, deadline: float, trace_path: Path | None) -> dict:
    workdir = OUT / f"work-{args.workload}"
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--workdir", str(workdir),
    ]
    if trace_path is not None:
        cmd += ["--trace", str(trace_path)]
    proc = subprocess.run(
        cmd, env=env, cwd=ROOT, capture_output=True, text=True,
        timeout=max(10.0, deadline - time.monotonic()),
    )
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"workload process exited {proc.returncode}")
    return json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "qps" / "__init__.py").is_file():
        print(f"run.py: no package at {ROOT / 'src' / 'qps'}; run from a checkout", file=sys.stderr)
        return 2
    env = child_env()
    try:
        if args.trace:
            import_s, scipy_stats_s = measure_imports(env)
            result = run_worker(args, env, deadline, OUT / f"trace-{args.workload}.json")
            metrics = {name: {"value": v, "unit": u} for name, (v, u) in result["layers"].items()}
            metrics["cli.import_s"] = {"value": import_s, "unit": "s"}
            metrics["cli.scipy_stats_import_s"] = {"value": scipy_stats_s, "unit": "s"}
        else:
            setup_s = measure_setup(env)
            result = run_worker(args, env, deadline, None)
            metrics = {
                "setup_s": {"value": setup_s, "unit": "s"},
                "ops_per_s": {"value": result["ops_per_s"], "unit": "1/s"},
                "op_p50_ms": {"value": result["op_p50_ms"], "unit": "ms"},
                "op_tail_ms": {"value": result["op_tail_ms"], "unit": "ms"},
                "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
            }
    except (subprocess.SubprocessError, RuntimeError, OSError, ValueError) as exc:
        print(f"run.py: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
