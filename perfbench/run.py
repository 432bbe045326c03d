"""hemifol benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload {expansions,foliation,analysis} \\
        --seed N [--seconds S] --trace {0,1}

Run from the root of a source checkout; the program is imported from
``src/``.  Every task is a call of ``hemifol.cli.main(argv)`` on inputs
generated from the seed, in a closed loop with one client, in a fresh
single-threaded Python process (see ``worker.py``).

A run always executes the workload's fixed number of blocks, so it measures
the same mix of tasks on any machine.  ``--seconds`` is accepted for the
benchmark runner's interface and does not change the run; ``run_seconds``
in ``BENCHMARK.json`` records how long a run takes.

``--trace 0`` measures the end-to-end metrics: set-up runs three times
(two set-up-only processes and the measured one) and ``setup_s`` is their
median.  Every time is scaled to the reference speed: divided by the
slowness of the process, the time of a calibration kernel
(``worker.calibrate``) run beside it over ``CAL_REF_S``.  The kernel runs
right after set-up for ``setup_s``, and every 0.5 s of the timed loop for the
rest.  The shared machine's speed drifts by up to 40 % in phases that can
outlast a run; the kernel slows down with the tasks, so the scaled times
keep the program's cost and drop most of the drift.  The summary also
prints the unscaled wall times.

``--trace 1`` runs the first half of the blocks twice, untraced and traced,
and reports the per-layer metrics of the traced process plus the tracing
overhead on ``task_s_p50``.  Neither process calibrates: per-layer times and
the overhead are wall times.

A summary goes to standard output, failures to standard error, and the
last line of standard output is the JSON result.  Full results (latencies,
failure reasons) and the traced spans are written under ``perfbench/out``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUDGET_S = 170.0
SUMMARY_UNITS = {"tasks": "count", "tasks_per_s": "1/s", "failed_frac": "fraction",
                 "peak_rss_mb": "MB", "wall_tasks_per_s": "1/s", "slowness": "ratio"}
SETUP_REPEATS = 3
CAL_REF_S = 0.005          # calibration kernel time at the reference speed
SINGLE_THREAD = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}


def _spawn(mode, args, deadline):
    result = HERE / "out" / f"worker-{os.getpid()}-{mode}.json"
    env = dict(os.environ, PYTHONHASHSEED="0", **SINGLE_THREAD)
    t0 = time.monotonic()
    subprocess.run(
        [sys.executable, str(HERE / "worker.py"), mode, args.workload,
         str(args.seed), repr(t0), str(result)],
        env=env, stdout=sys.stderr, check=True, timeout=deadline - time.monotonic())
    try:
        return json.loads(result.read_text())
    finally:
        result.unlink()


def _slowness(cal_s) -> float:
    """Mean calibration kernel time, without the lowest and highest tenth,
    over its time at the reference speed."""
    cal_s = sorted(cal_s)
    cut = len(cal_s) // 10
    return statistics.fmean(cal_s[cut:len(cal_s) - cut]) / CAL_REF_S


def measure(args, spec, deadline):
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    setups = [_spawn("setup", args, deadline) for _ in range(SETUP_REPEATS - 1)]
    run = _spawn("fixed", args, deadline)
    lat, k = run["latencies"], 1.0 / _slowness(run["cal_s"])
    values = {
        "task_s_p50": statistics.median(lat) * k,
        "tasks_per_s": len(lat) / (sum(lat) * k),
        "setup_s": statistics.median(s["setup_s"] / _slowness(s["setup_cal_s"])
                                     for s in setups + [run]),
        "peak_rss_mb": run["peak_rss_mb"],
    }
    summary = dict(values, tasks=len(lat), failed_frac=run["failed"] / run["attempted"])
    if len(lat) >= 100:        # at least ten samples beyond the 90th percentile
        summary["task_s_p90"] = statistics.quantiles(lat, n=10)[-1] * k
    summary.update(wall_task_s_p50=statistics.median(lat),
                   wall_tasks_per_s=len(lat) / sum(lat),
                   wall_setup_s=statistics.median(s["setup_s"] for s in setups + [run]),
                   slowness=1.0 / k)
    return run, {name: (values[name], units[name]) for name in units}, summary


def trace(args, spec, deadline):
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    base = _spawn("untraced", args, deadline)
    run = _spawn("traced", args, deadline)
    layers = run["layers"]
    pairs = sum(layers[f"foliation.pairs.{m}"] for m in ("distance", "interior", "disjoint"))
    inside = layers["foliation.point_inside_leaf.calls"]
    layers["foliation.pairs.per_inside_call"] = pairs / inside if inside else 0.0
    untraced, traced = statistics.median(base["latencies"]), statistics.median(run["latencies"])
    layers["trace.overhead_s"] = traced - untraced
    run["attempted"] += base["attempted"]
    run["failed"] += base["failed"]
    run["unexplained"] += base["unexplained"]
    run["failures"] += base["failures"]
    summary = {"tasks": len(run["latencies"]), "untraced_task_s_p50": untraced,
               "traced_task_s_p50": traced}
    return run, {name: (layers[name], units[name]) for name in units}, summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, help="accepted and ignored: the blocks set a run's length")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # turn SIGTERM into SystemExit, so that subprocess.run kills and waits
    # for the running worker before this process ends
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    deadline = time.monotonic() + BUDGET_S

    if not (ROOT / "src" / "hemifol" / "__init__.py").is_file():
        print(f"no hemifol sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    (HERE / "out").mkdir(exist_ok=True)

    run, metrics, summary = (trace if args.trace else measure)(args, spec, deadline)
    for line in run["failures"][:20]:
        print(f"FAILED {line}", file=sys.stderr)
    with open(HERE / "out" / f"{args.workload}-s{args.seed}-trace{args.trace}.json",
              "w", encoding="utf-8") as fh:
        json.dump(dict(run, metrics=metrics, summary=summary), fh, indent=1)

    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"attempted={run['attempted']} failed={run['failed']} "
          f"(known defects {run['failed'] - run['unexplained']})")
    for name, value in summary.items():
        print(f"  {name:40s} {value:.6g} {SUMMARY_UNITS.get(name, 's')}")
    for name, (value, unit) in metrics.items():
        if name not in summary:
            print(f"  {name:40s} {value:.6g} {unit}")
    print(json.dumps({
        # failures that match a documented program defect count in "failed"
        # only; any other wrong output makes the run incorrect
        "correct": run["unexplained"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
