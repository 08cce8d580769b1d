"""Record the benchmark's baseline for the checked-out library.

    python3 bench/baseline.py

Runs ``run.py --trace 0`` once per seed and workload, for the
``run_seconds`` of ``BENCHMARK.json``, the workloads
alternating within each seed so that a slow stretch of the shared
machine does not fall on one workload only, then one ``--trace 1`` run
per workload on the first seed.  For every printed figure it keeps the
ten values, their median and quartiles and the spread (q3 - q1) /
median, and writes them with the machine facts to
``bench/BENCH_baseline.json``.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys

import numpy as np
import scipy

from gen import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = list(range(101, 111))


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    print(proc.stdout, end="", flush=True)
    return json.loads(proc.stdout.splitlines()[-1])


def stats(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "values": values}


def machine():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas['name']} {blas['version']}",
            "blas_threads": "1 (run.py sets OPENBLAS_NUM_THREADS, OMP_NUM_THREADS, "
                            "MKL_NUM_THREADS)"}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        seconds = json.load(handle)["run_seconds"]
    runs = {w: [] for w in WORKLOADS}
    for seed in SEEDS:
        for workload in WORKLOADS:
            result = run(workload, seed, seconds, 0)
            with open(os.path.join(HERE, "out", f"{workload}-seed{seed}", "summary.json"),
                      encoding="utf-8") as handle:
                runs[workload].append((result, json.load(handle)))
    out = {}
    for workload, items in runs.items():
        summaries = [s for _, s in items]
        figures = {name: dict(stats([s[name]["value"] for s in summaries]),
                              unit=summaries[0][name]["unit"])
                   for name in summaries[0]
                   if all(s[name]["value"] is not None for s in summaries)}
        traced = run(workload, SEEDS[0], seconds, 1)
        out[workload] = {
            "correct": [r["correct"] for r, _ in items],
            "attempted": [r["attempted"] for r, _ in items],
            "failed": [r["failed"] for r, _ in items],
            "end_to_end": {k: figures.pop(k) for k in list(items[0][0]["metrics"])},
            "reported_not_bounded": figures,
            "op_tail_note": summaries[0]["op_tail_s"]["note"],
            "per_layer_traced": {k: v["value"] for k, v in traced["metrics"].items()},
            "per_layer_traced_seed": SEEDS[0],
        }
    baseline = {
        "what": "Baseline on the parent library: one --trace 0 run per seed and workload, "
                "workloads alternating within each seed, and one --trace 1 run per workload.",
        "command": f"python3 bench/baseline.py (run.py --seconds {seconds})",
        "machine": machine(),
        "seeds": SEEDS,
        "workloads": out,
    }
    with open(os.path.join(HERE, "BENCH_baseline.json"), "w", encoding="utf-8") as handle:
        json.dump(baseline, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
