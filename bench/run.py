"""Seeded, layered benchmark of the fusionframes library and its ``ff`` CLI.

    python3 bench/run.py --workload {mse_tables,worst_case,cli_files}
                         --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the library is imported from
``src/``.  One process, one caller: each op starts when the previous one
has finished (a closed loop).  The op list of a workload is one cycle of
fixed shapes; whole cycles run until ``--seconds`` have passed, so every
run measures the same mix.

``--trace 0`` prints the end-to-end metrics.  The throughput is
calibrated: every op's seconds are rescaled by speed probes taken right
before and after it (see ``speed.py``), because the shared machine's
speed drifts by up to 1.6x between runs; the raw figure is printed too.
Set-up is sampled by fresh interpreters spread over the run and
calibrated the same way.  The process and its children, the probe's
process among them, are pinned to one CPU.
``--trace 1`` runs every op twice, untraced and with every public
library function wrapped (see ``tracer.py``), and prints the per-layer
metrics plus the tracing overhead.  Human-readable lines come first;
the last line of standard output is one JSON object.  Answer records,
per-op seconds, spans and a summary of every printed figure are
written under ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_SPAWNS = 11
MIN_TAIL_BEYOND = 10
#: op_tail_s is printed only from this percentile up; below it the
#: "tail" of a short run is a middle percentile.
MIN_TAIL_PCT = 90


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("mse_tables", "worst_case", "cli_files"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args()


def spawn_setup():
    """Wall seconds of one fresh interpreter importing fusionframes.cli.

    No timeout: with one, ``wait`` polls in steps of up to 50 ms, which
    rounds every spawn up to the next step."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import fusionframes.cli"], cwd=ROOT,
                   env=dict(os.environ, PYTHONPATH=SRC), check=True)
    return time.perf_counter() - start


def tail(values):
    """Highest whole percentile with at least MIN_TAIL_BEYOND samples above
    its nearest-rank value: (value, percentile)."""
    n = len(values)
    if n <= MIN_TAIL_BEYOND:
        raise ValueError(f"{n} ops: a tail needs more than {MIN_TAIL_BEYOND}")
    pct = (100 * (n - MIN_TAIL_BEYOND)) // n
    rank = -(-pct * n // 100)
    return sorted(values)[rank - 1], pct


def timed(op):
    """Run one op: (seconds, passed, answer record).  A failed op is
    charged its full time; an op fails if its call or its check raises."""
    from workloads import CheckFailed

    start = time.perf_counter()
    try:
        outcome = op.call()
    except Exception as exc:
        took = time.perf_counter() - start
        return took, False, {"label": op.label, "exit": None,
                             "failure": f"{type(exc).__name__}: {exc}"}
    took = time.perf_counter() - start
    try:
        return took, True, op.check(outcome)
    except CheckFailed as exc:
        return took, False, exc.record
    except Exception as exc:  # a check that breaks on the output fails the op
        return took, False, {"label": op.label,
                             "failure": f"check raised {type(exc).__name__}: {exc}"}


def _enough(results, elapsed, seconds):
    return elapsed >= seconds and len(results) > MIN_TAIL_BEYOND


def run_untraced(ops, seconds, probe):
    """Closed loop over whole cycles of ``ops`` until ``seconds`` of op
    time have passed and the tail percentile has enough samples.

    A speed probe runs before the first op and after every op and every
    set-up spawn, so each of them lies between two probes.  After an op,
    a fresh interpreter imports the CLI once the op time has reached the
    next of SETUP_SPAWNS even shares of ``seconds``: the set-up samples
    are spread over the run instead of landing in one stretch of the
    machine's speed.  Returns the op results (seconds, passed, record),
    the set-up seconds, the mean probe seconds around each op and each
    spawn, and the number of cycles."""
    last = probe()

    def between_probes(work):
        nonlocal last
        value = work()
        after = probe()
        around, last = (last + after) / 2, after
        return value, around

    results, op_probes, setup, setup_probes = [], [], [], []

    def spawn():
        took, around = between_probes(spawn_setup)
        setup.append(took)
        setup_probes.append(around)

    cycles, elapsed = 0, 0.0
    while not _enough(results, elapsed, seconds):
        for op in ops:
            result, around = between_probes(lambda: timed(op))
            results.append(result)
            op_probes.append(around)
            elapsed += result[0]
            if len(setup) < SETUP_SPAWNS and elapsed >= len(setup) * seconds / SETUP_SPAWNS:
                spawn()
        cycles += 1
    while len(setup) < SETUP_SPAWNS:
        spawn()
    return results, setup, op_probes, setup_probes, cycles


def run_traced(ops, seconds, tracer):
    """The same loop with each op run twice, once with the tracer
    installed and once without, the order alternating from op to op so
    that neither side is always the colder one.  Returns the untraced and
    the traced results and the number of cycles."""
    plain, traced, cycles, elapsed = [], [], 0, 0.0
    while not _enough(plain, elapsed, seconds):
        for op in ops:
            tracer.op = len(traced)
            for side in (("plain", "traced") if len(plain) % 2 else ("traced", "plain")):
                if side == "traced":
                    tracer.install()
                    try:
                        traced.append(timed(op))
                    finally:
                        tracer.uninstall()
                else:
                    plain.append(timed(op))
            elapsed += plain[-1][0]
        cycles += 1
    return plain, traced, cycles


def write_answers(path, workload, seed, results, per_cycle):
    """The first cycle's answer records: no timings, so two commits'
    files diff cleanly."""
    records = [dict(rec, passed=ok) for _, ok, rec in results[:per_cycle]]
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"workload": workload, "seed": seed, "ops": records},
                  handle, indent=1, sort_keys=True)
        handle.write("\n")


def main():
    args = parse_args()
    # One BLAS thread, set before numpy loads: the matrices are small, and
    # a second thread only adds run-to-run noise on a shared machine.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    # One CPU for this process and the ones it spawns, the speed probe
    # among them: on a shared host the two vCPUs run at different speeds
    # from moment to moment, and a probe only tells the speed of its CPU.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if not os.path.isfile(os.path.join(SRC, "fusionframes", "__init__.py")):
        print(f"error: no fusionframes sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import speed
    import workloads
    from tracer import Tracer

    out_dir = os.path.join(OUT, f"{args.workload}-seed{args.seed}")
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    ops = workloads.build_ops(args.workload, args.seed, ROOT, out_dir)
    tag = f"{args.workload} seed={args.seed} ops/cycle={len(ops)}"

    if args.trace:
        tracer = Tracer()
        plain, traced, cycles = run_traced(ops, args.seconds, tracer)
        results = plain + traced
        tracer.dump(os.path.join(out_dir, "spans.txt"))
        layers, stages = tracer.summary(len(traced))
        plain_s = sum(t for t, _, _ in plain)
        traced_s = sum(t for t, _, _ in traced)
        layers["minimax.excess_max"] = (
            max((rec["excess"] for _, _, rec in traced if "excess" in rec), default=0.0),
            "ratio")
        layers["trace.overhead_frac"] = (traced_s / plain_s - 1.0, "ratio")
        print(f"{tag} cycles={cycles} ops={len(traced)} traced={traced_s:.3f}s "
              f"untraced={plain_s:.3f}s")
        for name, (value, unit) in layers.items():
            print(f"  {name:32s} {value:14.6g} {unit}")
        print("  self time per op by stage: " + ", ".join(
            f"{s}={v:.4g}s" for s, v in stages.items()))
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in layers.items()}
    else:
        with speed.SpeedProbe() as probe:
            results, setup, probes, setup_probes, cycles = run_untraced(ops, args.seconds, probe)
        write_answers(os.path.join(OUT, f"answers-{args.workload}-seed{args.seed}.json"),
                      args.workload, args.seed, results, len(ops))
        times = [t for t, _, _ in results]
        scaled = [speed.calibrated(t, p) for t, p in zip(times, probes)]
        with open(os.path.join(out_dir, "op_seconds.json"), "w", encoding="utf-8") as handle:
            json.dump({"labels": [op.label for op in ops], "seconds": times,
                       "probe_seconds": probes, "setup_seconds": setup,
                       "setup_probe_seconds": setup_probes}, handle)
        passed = sum(ok for _, ok, _ in results)
        n = len(times)
        tail_s, pct = tail(times)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        rows = [
            ("setup_s", statistics.median(map(speed.calibrated, setup, setup_probes)), "s",
             f"n={len(setup)} fresh interpreters, median, calibrated"),
            ("attempted_ops_per_s", n / sum(scaled), "1/s",
             f"n={n}, failed ones included, calibrated"),
            ("peak_rss_mb", rss_mb, "MB", "n=1 process"),
        ]
        report_only = [
            ("raw_setup_s", statistics.median(setup), "s", f"n={len(setup)}"),
            ("raw_attempted_ops_per_s", n / sum(times), "1/s", f"n={n}"),
            ("machine_slowdown", statistics.median(probes) / speed.REFERENCE_S, "",
             f"n={n} ops, median probe seconds around an op over the reference"),
            ("ops_per_s", passed / sum(times), "1/s", f"n={n}, {passed} passed"),
            ("op_p50_s", statistics.median(times), "s", f"n={n}"),
            ("op_tail_s", tail_s if pct >= MIN_TAIL_PCT else None, "s",
             f"p{pct}, n={n}" + ("" if pct >= MIN_TAIL_PCT else
                                 f": below p{MIN_TAIL_PCT}, not a tail at this run length")),
            ("failed_frac", (n - passed) / n, "", f"n={n}, {n - passed} failed"),
        ]
        print(f"{tag} cycles={cycles}")
        print("  first cycle, seconds per op: " + ", ".join(
            f"{op.label}={t:.3g}{'' if ok else '(FAILED)'}"
            for op, (t, ok, _) in zip(ops, results)))
        for name, value, unit, note in rows + report_only:
            shown = "n/a" if value is None else f"{value:.6g}"
            print(f"  {name:23s} {shown:>12s} {unit:4s} {note}")
        metrics = {name: {"value": value, "unit": unit} for name, value, unit, _ in rows}
        with open(os.path.join(out_dir, "summary.json"), "w", encoding="utf-8") as handle:
            json.dump({name: {"value": value, "unit": unit, "note": note}
                       for name, value, unit, note in rows + report_only}, handle, indent=1)

    failures = [rec for _, ok, rec in results if not ok]
    for rec in failures[: len(ops)]:
        print(f"  FAILED {rec['label']}: {rec.get('failure', 'wrong exit code')}")
    print(json.dumps({"correct": not failures, "attempted": len(results),
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
