"""One workload process: a closed loop with a single client.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src`` and BLAS pinned to one thread. It runs whole rounds of the
workload until ``--seconds`` have passed and the workload's minimum
operation count is reached, then checks every recorded output and prints
one JSON object on its last line of output.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

import numpy as np

from spans import Tracer
from workloads import WORKLOADS


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=Path, default=None, help="write spans here and report per-layer metrics")
    parser.add_argument("--workdir", type=Path, required=True)
    args = parser.parse_args()

    tracer = Tracer() if args.trace else None
    workload = WORKLOADS[args.workload](args.seed, args.workdir, tracer)
    for run, keep in workload.warmup():
        keep(run())
    if tracer is not None:
        tracer.install()

    latencies: list[float] = []
    round_rates: list[float] = []  # operations per second of busy time, per round
    failures: list[str] = []
    attempted = 0
    start = time.perf_counter()
    k = 0
    while True:
        first = len(latencies)
        for run, keep in workload.round(k):
            attempted += 1
            if tracer is not None:
                tracer.begin("bench.op")
            t0 = time.perf_counter()
            error = None
            try:
                result = run()
            except Exception as exc:  # a failed operation is counted, not fatal
                error = exc
            latencies.append(time.perf_counter() - t0)
            if tracer is not None:
                tracer.end(failed=error is not None)
            if error is None:
                try:
                    keep(result)
                except Exception as exc:
                    error = exc
            if error is not None:
                failures.append(f"{type(error).__name__}: {error}")
        round_rates.append((len(latencies) - first) / sum(latencies[first:]))
        k += 1
        if time.perf_counter() - start >= args.seconds and attempted >= workload.min_ops:
            break
    wall = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()

    errors = workload.check()
    workload.close()
    for message in (failures + errors)[:10]:
        print(f"{args.workload}: {message}", file=sys.stderr)

    lat = np.array(latencies)
    result = {
        "attempted": attempted,
        "failed": len(failures),
        "correct": not errors,
        "rounds": k,
        "wall_s": wall,
        # Rounds have the same make-up, so the median round is robust to a
        # round that met a slow spell of the host or one costly input.
        "ops_per_s": float(np.median(round_rates)),
        "op_p50_ms": 1e3 * float(np.percentile(lat, 50.0)),
        "op_tail_ms": 1e3 * float(np.percentile(lat, workload.tail_percentile)),
        "tail_percentile": workload.tail_percentile,
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics(attempted)
        tracer.dump(args.trace, dict(result, workload=args.workload, seed=args.seed))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
