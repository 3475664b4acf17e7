"""Integration of scalar fields against the contact volume form.

One engine serves every manifold.  The manifold's ``reference_sampler``
(the rules live in ``zoo``) is its whole quadrature rule:
``reference_sampler(m, budget, seed)`` turns the evaluation budget into
``(points, weights or None, scale, sampled)``, and the integral is
scale * sum(f * defect * weight).  A deterministic rule, such as the
product trapezoid grid on the flat torus (exact to roundoff once the
per-axis node count exceeds the trigonometric bandwidth of the
integrand), reports a zero error.  A sampled rule, scrambled Sobol
points on a reference measure with explicit density weights, reports
the sample standard deviation over sqrt(N) times the measure, a
conservative figure for quasi-random points.

Evaluation is chunked, optionally across a thread pool
(``CONTACTKIT_THREADS``); partial sums are combined in index order with
compensated summation, so results are bit-identical for any thread
count.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .fields import ScalarField, constant_field
from .manifold import ContactManifold, GeometryError

_CHUNK = 1 << 16


@dataclass(frozen=True)
class IntegralResult:
    value: float
    std_error: float
    method: str
    samples: int
    seed: Optional[int]

    def record(self, operation: str, inputs: dict) -> dict:
        """Flat dictionary for JSON export."""
        return {
            "operation": operation,
            "inputs": inputs,
            "value": self.value,
            "std_error": self.std_error,
            "method": self.method,
            "samples": self.samples,
            "seed": self.seed,
        }


def default_threads() -> int:
    try:
        return max(1, int(os.environ.get("CONTACTKIT_THREADS", "1")))
    except ValueError:
        return 1


def integrate(m: ContactManifold, f: ScalarField, budget: int = 1 << 17,
              seed: int = 0, threads: Optional[int] = None) -> IntegralResult:
    """Integral of f against alpha ^ (d alpha)^n over the manifold.

    budget is the evaluation count that the manifold's rule turns into
    its nodes; seed scrambles a sampled rule.
    """
    if m.reference_sampler is None:
        raise GeometryError(f"{m.name} has no reference sampler for integration")

    def integrand(block):
        return np.asarray(f(block), dtype=float) * m.contact_defect(block)

    return apply_rule(integrand, m.reference_sampler(m, budget, seed), seed, threads)


def apply_rule(integrand: Callable, rule: tuple, seed: int,
               threads: Optional[int] = None) -> IntegralResult:
    """scale * sum(integrand * weight) over the nodes of a rule
    (points, weights or None, scale, sampled); a sampled rule's error is
    the iid standard error, a deterministic rule's is zero."""
    pts, weights, scale, sampled = rule
    total, total_sq, count = _eval_chunks(integrand, pts, weights, threads)
    if not sampled:
        return IntegralResult(value=scale * total, std_error=0.0,
                              method="quadrature", samples=count, seed=None)
    mean = total / count
    var = max(0.0, total_sq / count - mean * mean)
    return IntegralResult(value=scale * total,
                          std_error=scale * count * math.sqrt(var / count),
                          method="monte-carlo", samples=count, seed=seed)


def _eval_chunks(integrand: Callable, pts: np.ndarray, weights,
                 threads: Optional[int]):
    """Ordered per-chunk compensated sums of integrand * weight."""
    nthreads = default_threads() if threads is None else max(1, int(threads))
    chunks = [slice(i, min(i + _CHUNK, pts.shape[0])) for i in range(0, pts.shape[0], _CHUNK)]

    def work(sl):
        vals = integrand(pts[sl])
        if weights is not None:
            vals = vals * weights[sl]
        return math.fsum(vals), math.fsum(vals * vals), vals.size

    if nthreads == 1 or len(chunks) == 1:
        stats = [work(sl) for sl in chunks]
    else:
        with ThreadPoolExecutor(max_workers=nthreads) as pool:
            stats = list(pool.map(work, chunks))
    total = math.fsum(s[0] for s in stats)
    total_sq = math.fsum(s[1] for s in stats)
    count = sum(s[2] for s in stats)
    return total, total_sq, count


def contact_volume(m: ContactManifold, budget: int = 1 << 17, seed: int = 0,
                   threads: Optional[int] = None) -> IntegralResult:
    """Total contact volume: the integral of 1."""
    return integrate(m, constant_field(1.0, m.ambient_dim), budget=budget,
                     seed=seed, threads=threads)
