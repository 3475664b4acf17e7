"""A fixed computation that times the machine, not contactkit.

On a virtual machine that shares its host with other guests, the speed
of one process can move by a factor of two within minutes, CPU time
moving with wall time.  The yardstick runs twice just before and twice
just after every task; the task's time is divided by the median of
those four yardstick times and multiplied by ``YARDSTICK_S``, so that it
reads as seconds on a machine whose yardstick takes ``YARDSTICK_S``.  It
never calls contactkit, so a change to the package cannot move it.  Its
mix follows the workloads: small arrays driven from the interpreter, as
in the single-point solves, and one pass over a megabyte of batched
points, as in the quadrature.
"""

import time

import numpy as np

# near the yardstick's time on a 2-core 2.1 GHz Xeon virtual machine while
# its host is quiet (0.9-1.2 ms); scaled times read as seconds on such a machine
YARDSTICK_S = 1.0e-3

_rng = np.random.default_rng(20140906)
_SMALL = _rng.normal(size=(7, 7))
_VECTOR = _rng.normal(size=7)
_BATCH = _rng.normal(size=(1 << 14, 8))
_MIX = _rng.normal(size=(8, 8)) / 3.0


def yardstick() -> float:
    """Run the fixed computation once and return its wall time."""
    start = time.perf_counter()
    x = _VECTOR
    for i in range(12):
        _, s, vt = np.linalg.svd(_SMALL + 0.01 * i)
        x = vt @ x / s[0]
    y = np.tanh(_BATCH @ _MIX)
    float(np.sum(y * y) + x @ x)
    return time.perf_counter() - start
