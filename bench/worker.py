"""One workload in one single-threaded process.

    python3 bench/worker.py --workload NAME --seed N --seconds S [--trace 0|1]
    python3 bench/worker.py --workload NAME --seed N --setup-only

Set-up (importing contactkit, building the manifolds and the first
inputs, one untimed warm-up task) is timed from the top of this file;
``--setup-only`` stops there.  The timed phase then runs whole rounds
for about ``--seconds``, and at least the workload's minimum number of
rounds.  Round r draws its inputs from ``default_rng([seed, r])``.
Every task's wall time is also given scaled by the yardstick run around
it (``yardstick.py``).  The result, with every task's time and every
round's summed scaled task time, is one JSON object on the last line of
standard output.
"""

import os
import time

SETUP_START = time.perf_counter()
# one thread everywhere, fixed before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "CONTACTKIT_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import sys
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")     # traces and temporary files
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import numpy as np

import spans
import workloads
from yardstick import YARDSTICK_S, yardstick

YARDSTICK_CALLS = 2      # yardstick runs just before and just after each task


def environment() -> dict:
    import scipy

    def blas(config):
        try:
            return config.CONFIG["Build Dependencies"]["blas"]["version"]
        except (AttributeError, KeyError, TypeError):
            return "unknown"

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": blas(np.__config__),
        "openblas_scipy": blas(scipy.__config__),
        "cpu": cpu,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def round_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, index])


class Run:
    """Counters of one timed phase."""

    def __init__(self):
        self.times = []          # task times scaled by the yardstick
        self.raw_times = []      # task times as measured
        self.kinds = {}
        self.work = 0.0
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.steps = 0
        self.rejected = 0
        self.yardstick = []      # median yardstick time around each task

    def task(self, task) -> None:
        """Run, time and check one task; a task that raises counts as failed."""
        self.attempted += 1
        around = [yardstick() for _ in range(YARDSTICK_CALLS)]
        start = time.perf_counter()
        try:
            out = task.run()
        except Exception:
            self.failed += 1
            print(f"{task.kind}: failed\n{traceback.format_exc()}", file=sys.stderr)
            return
        elapsed = time.perf_counter() - start
        around += [yardstick() for _ in range(YARDSTICK_CALLS)]
        self.yardstick.append(statistics.median(around))
        self.raw_times.append(elapsed)
        self.times.append(elapsed * YARDSTICK_S / self.yardstick[-1])
        self.kinds.setdefault(task.kind, []).append(self.times[-1])
        self.work += task.work
        self.problems += [f"{task.kind}: {p}" for p in task.check(out)]
        stats = task.stats(out)
        self.steps += stats.get("steps", 0)
        self.rejected += stats.get("rejected", 0)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.makedirs(OUT_DIR, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](OUT_DIR)
    try:
        return measure(wl, args)
    finally:
        wl.close()


def measure(wl, args) -> int:
    warm = Run()
    warm.task(wl.make_round(round_rng(args.seed, 0))[0])
    setup_s = time.perf_counter() - SETUP_START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "correct": not (warm.problems or warm.failed),
                          "peak_rss_mb": peak_rss_mb()}))
        return 0

    tracer = spans.Tracer(wl.manifolds) if args.trace else None
    # in a traced run, odd rounds are traced and even rounds are not
    runs = {False: Run(), True: Run()}
    rounds = 0
    round_s = []             # summed scaled task time of each untraced round
    start = last = time.perf_counter()
    wall_s = 0.0
    # a round that would end more than half a round past --seconds is not
    # started, so the phase lasts about --seconds however long a round is
    while (rounds < wl.min_rounds or last - start + wall_s / 2 < args.seconds
           or (tracer is not None and rounds % 2)):
        traced = tracer is not None and rounds % 2 == 1
        if traced:
            tracer.install()
        tasks = wl.make_round(round_rng(args.seed, rounds + 1))
        done = len(runs[traced].times)
        for task in tasks:
            runs[traced].task(task)
        if traced:
            tracer.uninstall()
        else:
            round_s.append(sum(runs[False].times[done:]))
        rounds += 1
        wall_s, last = time.perf_counter() - last, time.perf_counter()

    problems = warm.problems + runs[False].problems + runs[True].problems
    for p in problems[:20]:
        print(p, file=sys.stderr)
    result = {
        "workload": wl.name,
        "seed": args.seed,
        "rounds": rounds,
        "round_tasks": len(tasks),
        "min_rounds": wl.min_rounds,
        "work_unit": wl.work_unit,
        "correct": not problems and not warm.failed,
        "attempted": runs[False].attempted + runs[True].attempted,
        "failed": runs[False].failed + runs[True].failed,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
        "env": environment(),
    }
    if tracer is None:
        run = runs[False]
        result.update(times=run.times, raw_times=run.raw_times, yardstick_s=run.yardstick,
                      round_s=round_s, round_work=run.work / len(round_s), kinds=run.kinds)
    else:
        result["metrics"] = layer_metrics(tracer, runs[True], runs[False])
        path = os.path.join(OUT_DIR, f"trace-{wl.name}-seed{args.seed}.json")
        with open(path, "w") as handle:
            json.dump(tracer.dump(), handle)
        result["trace_file"] = os.path.relpath(path, ROOT)
    print(json.dumps(result))
    return 0


def layer_metrics(tracer, traced, untraced) -> dict:
    traced_s = sum(traced.raw_times)
    metrics = {}
    for name in spans.NAMES:
        metrics[f"{name}.calls"] = tracer.calls[name]
        metrics[f"{name}.self_pct"] = 100.0 * tracer.self_s[name] / traced_s
    for name in spans.WITH_POINTS:
        metrics[f"{name}.points"] = tracer.points[name]
    metrics["flows.integrate_flow.steps"] = traced.steps
    metrics["flows.integrate_flow.rejected"] = traced.rejected
    metrics["trace.task_s"] = traced_s
    # scaled times, so that a change in the machine's speed between
    # rounds does not read as tracing overhead
    metrics["trace.overhead_ratio"] = sum(traced.times) / sum(untraced.times)
    return metrics


if __name__ == "__main__":
    sys.exit(main())
