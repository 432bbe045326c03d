"""One benchmark process: set up, then drive ``hemifol.cli.main`` in a
closed loop with one client, and write a JSON result file.

Usage (normally started by ``run.py``, which sets single-threaded BLAS):

    python3 perfbench/worker.py MODE WORKLOAD SEED T0 RESULT

MODE is one of
  ``setup``   import, generate block 0 and run its warm-up tasks, then stop;
  ``fixed``     set up, then run exactly the workload's fixed number of blocks,
                with the calibration sampler;
  ``untraced``  set up, then run the first half of those blocks (at least one),
                without calibration;
  ``traced``    as ``untraced``, with every layer wrapped in spans.
T0 is ``time.monotonic()`` in the parent just before it started this
process, so set-up time includes interpreter start and ``import hemifol``.

After set-up, and every ``CAL_INTERVAL_S`` during the timed loop, the
process times a fixed calibration kernel (``calibrate``); ``run.py`` scales
its times by these to the machine's reference speed.
"""

from __future__ import annotations

import contextlib
import json
import mmap
import os
import resource
import shutil
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


CAL_INTERVAL_S = 0.5     # wall time between two calibration points in the loop
CAL_REPS = 3             # kernel runs per calibration point
SETUP_CAL_POINTS = 5     # calibration points right after set-up


def calibrate(samples: list) -> None:
    """Time a fixed kernel ``CAL_REPS`` times and append the times to
    ``samples``.  The kernel does the three kinds of work the tasks do:
    interpreter arithmetic, numpy arithmetic on a grid-sized array, and
    writing freshly mapped memory (page faults), so its time follows the
    shared machine's speed as the tasks' times do.  The memory comes from
    ``mmap``, not ``malloc``, so that the program's own heap use cannot change
    how many page faults the kernel takes.  Linux only (``MADV_NOHUGEPAGE``)."""
    import numpy as np
    a = np.linspace(0.0, 1.0, 8192)
    b = a + 1.0
    x = np.empty_like(a)
    for _ in range(CAL_REPS):
        start = time.perf_counter()
        s = 0
        for i in range(20000):
            s += i * i % 7
        np.multiply(a, b, out=x)
        for _ in range(20):
            np.multiply(x, b, out=x)
            np.add(x, a, out=x)
            np.sin(x, out=x)
        with mmap.mmap(-1, 1 << 21) as m:
            # 4 KiB pages only: whether a huge page backs the mapping would
            # depend on its address, and would change the time threefold
            m.madvise(mmap.MADV_NOHUGEPAGE)
            pages = np.frombuffer(m, dtype=np.float64)
            pages.fill(1.0)
            del pages
        samples.append(time.perf_counter() - start)


class Sampler:
    """Runs ``calibrate`` every ``CAL_INTERVAL_S`` of wall time from a SIGALRM
    handler, so that calibration points fall inside long tasks too and sample
    the machine's speed evenly over the loop.  ``spent`` is the handler's
    total time, which the caller takes out of the task it interrupted."""

    def __init__(self):
        self.cal_s: list[float] = []
        self.spent = 0.0

    def _tick(self, signum, frame):
        start = time.perf_counter()
        calibrate(self.cal_s)
        self.spent += time.perf_counter() - start

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, CAL_INTERVAL_S, CAL_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def main(argv) -> int:
    mode, workload, seed, t0, result_path = argv
    seed, t0 = int(seed), float(t0)

    sys.path.insert(0, str(SRC))
    import hemifol
    from hemifol import cli
    if Path(hemifol.__file__).resolve().parent != SRC / "hemifol":
        raise SystemExit(f"imported hemifol from {hemifol.__file__}, not from {SRC}")
    import workloads
    wl = workloads.WORKLOADS[workload]

    tracer = None
    if mode == "traced":
        import tracing
        tracer = tracing.Tracer()
        tracer.install(hemifol)

    workdir = HERE / "_work" / f"{workload}-s{seed}-{mode}-{os.getpid()}"
    workdir.mkdir(parents=True)
    os.chdir(workdir)

    def write(name, text):
        with open(name, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)

    attempted = failed = unexplained = 0
    setup_cal_s: list[float] = []    # calibration kernel times after set-up
    # the timed loop's sampler; calibration points taken during a task do
    # not count in its time
    sampler = Sampler() if mode == "fixed" else None
    failures: list[str] = []
    pairs = {"distance": 0, "interior": 0, "disjoint": 0}

    def run(task, label, probe=None):
        """Run one task through cli.main and check it; ``probe`` is the output
        of an earlier run of the same argv.  Returns (seconds, output bytes)."""
        nonlocal attempted, failed, unexplained
        if os.path.exists(task.out):
            os.remove(task.out)
        if tracer is not None:
            tracer.task_id = label
        spent = sampler.spent if sampler else 0.0
        start = time.perf_counter()
        try:
            rc, error = cli.main(task.argv), None
        except SystemExit as exc:          # argparse rejects the argv
            rc, error = exc.code, None
        except Exception as exc:           # escaped cli.main: a failed task
            rc, error = None, workloads.escaped(task, exc)
        elapsed = time.perf_counter() - start - ((sampler.spent - spent) if sampler else 0.0)
        out = b""
        if os.path.exists(task.out):
            with open(task.out, "rb") as fh:
                out = fh.read()
        attempted += 1
        reason = error
        if reason is None:
            try:
                reason = wl.check(task, rc, out)
                if task.kind == "foliate":
                    for method, n in workloads.foliation_pairs(out).items():
                        pairs[method] += n
            except (ValueError, KeyError, IndexError) as exc:
                reason = f"unreadable output: {type(exc).__name__}: {exc}"
        if reason is None and probe is not None and out != probe:
            reason = "output bytes differ between two runs of the same argv"
        if reason is not None:
            failed += 1
            known = isinstance(reason, workloads.KnownDefect)
            unexplained += not known
            failures.append(f"{' '.join(task.argv)}: {'known defect: ' if known else ''}{reason}")
        return elapsed, out

    try:
        block0 = wl.block(seed, 0, write)
        warm = {}
        for i, task in enumerate(block0):
            if task.warmup:
                warm[i] = run(task, -1 - i)[1]
        setup_s = time.monotonic() - t0
        for _ in range(SETUP_CAL_POINTS):
            calibrate(setup_cal_s)
        result = {"setup_s": setup_s, "setup_cal_s": setup_cal_s}

        if mode != "setup":
            # the trace runs take half the blocks, to keep a traced run as
            # short as an untraced one
            n_blocks = wl.fixed_blocks if mode == "fixed" else max(1, wl.fixed_blocks // 2)
            # inputs of the later blocks are written before the timed loop
            blocks = [block0] + [wl.block(seed, b, write) for b in range(1, n_blocks)]
            latencies = []
            with sampler or contextlib.nullcontext():
                for b, tasks in enumerate(blocks):
                    for i, task in enumerate(tasks):
                        probe = warm.get(i) if b == 0 else None
                        latencies.append(run(task, len(latencies), probe)[0])
            result.update(latencies=latencies, blocks=len(blocks), peak_rss_mb=_peak_rss_mb())
            if sampler:
                result["cal_s"] = sampler.cal_s
        if tracer is not None:
            metrics = {}
            for name, (calls, total, own) in tracer.totals().items():
                metrics.update({f"{name}.calls": calls, f"{name}.s": total,
                                f"{name}.self_s": own})
            metrics.update(tracer.counters)
            metrics["expr.live_nodes"] = tracing.live_nodes(hemifol.expr)
            metrics.update({f"foliation.pairs.{m}": n for m, n in pairs.items()})
            result["layers"] = metrics
            out_dir = HERE / "out"
            out_dir.mkdir(exist_ok=True)
            tracer.save(out_dir / f"spans-{workload}-s{seed}.npz")
        result.update(attempted=attempted, failed=failed, unexplained=unexplained,
                      failures=failures)
    finally:
        os.chdir(HERE)
        shutil.rmtree(workdir, ignore_errors=True)

    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
