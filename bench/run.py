"""Benchmark entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a contactkit source tree.  With ``--trace 0`` one
fresh single-threaded worker process (``bench/worker.py``) measures for
``--seconds``, and two more only set up, so that ``setup_s`` is the
median of three set-up times.  With ``--trace 1`` a single worker
alternates traced and untraced rounds.  The last line of standard
output is the result object; the line before it records the machine and
the run's details.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("reeb_orbit", "dense_orbit", "contact_quadrature", "strict_transport")
SETUP_SAMPLES = 3         # set-up times per untraced run, one per process
DEADLINE_S = 170.0
TAIL_BEYOND = 10          # tasks beyond the tail percentile, at the least
UNITS = {"setup_s": "s", "task_p50_s": "s", "task_tail_s": "s", "work_per_s": "work/s",
         "peak_rss_mb": "MB", "trace.task_s": "s", "trace.overhead_ratio": "ratio"}


def tail_percentile(min_tasks: int) -> int:
    """The highest whole percentile with TAIL_BEYOND tasks beyond it."""
    return int(100 * (1 - TAIL_BEYOND / min_tasks))


def quantile(values, q: float) -> float:
    """Linear interpolation between order statistics, as numpy's default."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def worker(args: list, deadline: float) -> dict:
    """Run one worker process to completion and parse its last line."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               CONTACTKIT_THREADS="1", PYTHONHASHSEED="0")
    cmd = [sys.executable, os.path.join(HERE, "worker.py")] + args
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          timeout=max(1.0, deadline - time.monotonic()))
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker {' '.join(args)} exited {proc.returncode}")
    return json.loads(lines[-1])


def end_to_end(run: dict, setups: list) -> tuple:
    """End-to-end metrics of the measuring worker and the set-up samples."""
    times = run["times"]
    pct = tail_percentile(run["min_rounds"] * run["round_tasks"])
    setup_samples = [run["setup_s"]] + [s["setup_s"] for s in setups]
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "task_p50_s": quantile(times, 0.5),
        "task_tail_s": quantile(times, pct / 100),
        # every round does the same work, so the median round is the
        # throughput of the run with its slowest and fastest stretches set aside
        "work_per_s": run["round_work"] / statistics.median(run["round_s"]),
        "peak_rss_mb": max(p["peak_rss_mb"] for p in [run] + setups),
    }
    details = {
        "workload": run["workload"], "seed": run["seed"], "env": run["env"],
        "work_unit": run["work_unit"], "tasks": len(times), "tail_percentile": pct,
        "rounds": run["rounds"], "setup_samples_s": setup_samples,
        "kind_p50_s": {k: statistics.median(v) for k, v in run["kinds"].items()},
        "raw_task_p50_s": quantile(run["raw_times"], 0.5),
        "yardstick_p50_s": statistics.median(run["yardstick_s"]),
    }
    return metrics, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="contactkit benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "contactkit", "__init__.py")):
        print(f"error: no contactkit sources under {ROOT}/src", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        run = worker(common + ["--seconds", str(args.seconds),
                               "--trace", str(args.trace)], deadline)
        setups = [] if args.trace else [worker(common + ["--setup-only"], deadline)
                                        for _ in range(SETUP_SAMPLES - 1)]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        metrics = run.pop("metrics")
        details = {k: run[k] for k in ("workload", "seed", "env", "rounds", "trace_file")}
    else:
        metrics, details = end_to_end(run, setups)
    result = {
        "correct": all(p["correct"] for p in [run] + setups),
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": value,
                           "unit": UNITS.get(name, "%" if name.endswith("_pct") else "count")}
                    for name, value in metrics.items()},
    }
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
