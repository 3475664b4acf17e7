"""Reference per-call costs of the two hot layers, for the benchmark README.

    python3 bench/reference.py

Times ``reeb_field`` at one point on S^3, S^5 and S^7 (the single-point
Reeb solve) and ``contact_defect`` at 2^16 points on the same spheres
(the batched path, dominated by the Pfaffian), each traced so that the
self time of the callee layers shows where the time goes.  Single
thread; prints one JSON line per measurement.
"""

import os
import time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "CONTACTKIT_THREADS"):
    os.environ[_var] = "1"

import json
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import numpy as np

import spans
import workloads

SINGLE_CALLS = 400
BATCH = 1 << 16
BATCH_CALLS = 3


def per_call(fn, arg, calls: int) -> float:
    fn(arg)
    times = []
    for _ in range(calls):
        start = time.perf_counter()
        fn(arg)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def traced_self(method: str, arg, manifold) -> dict:
    """Self-time shares of the traced layers in one call of manifold.method."""
    tracer = spans.Tracer([manifold])
    tracer.install()
    try:
        start = time.perf_counter()
        getattr(manifold, method)(arg)
        total = time.perf_counter() - start
    finally:
        tracer.uninstall()
    return {name: round(s / total, 3) for name, s in tracer.self_s.items() if s > 0}


def main() -> int:
    rng = np.random.default_rng(0)
    for n in (1, 2, 3):
        m = workloads.zoo.standard_sphere(n)
        point = workloads.sphere_points(rng, 1, 2 * n + 2)[0]
        batch = workloads.sphere_points(rng, BATCH, 2 * n + 2)
        rows = [("reeb_field", point, SINGLE_CALLS, 1e6, "us"),
                ("contact_defect", batch, BATCH_CALLS, 1e3, "ms")]
        for method, arg, calls, scale, unit in rows:
            cost = per_call(getattr(m, method), arg, calls)
            print(json.dumps({"function": "manifold." + method, "sphere": f"S^{2 * n + 1}",
                              "points": len(np.atleast_2d(arg)), "unit": unit,
                              "median": round(cost * scale, 1),
                              "self_share": traced_self(method, arg, m)}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
