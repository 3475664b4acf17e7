"""Integration of scalar fields against the contact volume form.

One engine serves every manifold.  The manifold's ``reference_sampler``
(the rules live in ``zoo``) is its whole quadrature rule:
``reference_sampler(m, budget)`` turns the evaluation budget into
``(points, weights or None, scale, companion)``, and the integral is
scale * sum(f * defect * weight).  Every rule is a deterministic product
rule, and its companion (points, weights or None, scale) is the same rule
at halved orders.  ``std_error`` is the gap |Q - Q'| between the two
values plus a rounding floor _ROUNDING * eps * scale * sum |v|.

Evaluation is chunked, optionally across a thread pool
(``CONTACTKIT_THREADS``).  A chunk is a view of the rule's points, never
a copy: a round sphere's rule is shared between calls and read-only
(see zoo._sphere_rule), so an integrand must not write into its block,
and the density reads the coordinate planes of a toric rule's chunk in
place.  Each chunk's sums are kept exact, as an
integer times a power of two, and the total is rounded once, which is
what ``math.fsum`` of all the values returns.  A chunk of the rule also
sums |v|, which takes one more exact sum only where some v is negative.
Values and errors are therefore bit-identical for any chunk size and any
thread count.
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

# 2^14 points keep the density's per-component planes at 128 KB
_CHUNK = 1 << 14
# frexp mantissas split as m * 2**27 = hi + lo * 2**-26 with integers
# |hi| <= 2**27 and 0 <= lo < 2**26; per-exponent sums of fewer than
# 2**26 of them stay below 2**53, so np.bincount adds them exactly.
_HI_BITS, _LO_BITS = 27, 26
_EPS = 2.0 ** -52
# the rounding floor of a rule's error, in eps per unit of
# sum |v|: the Schur density n! Pf(Omega) Pf(S) / |grad g| takes at most
# 2d + 4 = 20 roundings on S^7 (d = 8): S and |grad g|^2 are two d-term
# sums over the squares y_a^2 about the sphere's centre, then a root and
# three scalings; a toric node and weight take about 12 more.  Every
# term is of the size of the sum on the zoo's spheres and ellipsoids; on
# a rotated quadric S's terms can reach kappa(G) times it, as the plane
# products' can, so there the floor holds only for a well-conditioned G
_ROUNDING = 32.0


@dataclass(frozen=True)
class IntegralResult:
    value: float
    std_error: float
    method: str
    samples: int

    def record(self, operation: str, inputs: dict) -> dict:
        """Flat dictionary for JSON export."""
        return {
            "operation": operation,
            "inputs": inputs,
            "value": self.value,
            "std_error": self.std_error,
            "method": self.method,
            "samples": self.samples,
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
    its nodes; seed is ignored, since every rule is deterministic.
    """
    if m.reference_sampler is None:
        raise GeometryError(f"{m.name} has no reference sampler for integration")

    def integrand(block):
        return np.asarray(f(block), dtype=float) * m.contact_defect(block)

    return apply_rule(integrand, m.reference_sampler(m, budget), threads)


def apply_rule(integrand: Callable, rule: tuple,
               threads: Optional[int] = None) -> IntegralResult:
    """scale * sum(integrand * weight) over the nodes of a rule
    (points, weights or None, scale, companion), with its error: the gap
    |Q - Q'| to the value of the companion (points, weights or None,
    scale), a coarser rule of the same family, plus the rounding floor
    _ROUNDING * eps * scale * sum |v|.
    """
    pts, weights, scale, (coarse_pts, coarse_weights, coarse_scale) = rule
    (sums, magnitudes, count), (coarse, _, _) = _eval_chunks(
        integrand, [(pts, weights), (coarse_pts, coarse_weights)], threads)
    value = scale * _round_sums(sums)
    std_error = (abs(value - coarse_scale * _round_sums(coarse))
                 + _ROUNDING * _EPS * scale * _round_sums(magnitudes))
    return IntegralResult(value=value, std_error=std_error, method="quadrature",
                          samples=count)


def _eval_chunks(integrand: Callable, segments: list, threads: Optional[int]) -> list:
    """For each (points, weights or None) segment: the exact sums (see
    _exact_sum) of v = integrand * weight over each _CHUNK-point chunk, the
    exact sums of |v| over each chunk of the first segment (none for the
    others; see _magnitude_sum), and the node count.  All segments' chunks
    share one pass and one thread pool."""
    nthreads = default_threads() if threads is None else max(1, int(threads))
    jobs = [(i, slice(a, min(a + _CHUNK, pts.shape[0])))
            for i, (pts, _) in enumerate(segments) for a in range(0, pts.shape[0], _CHUNK)]

    def work(job):
        i, sl = job
        pts, weights = segments[i]
        vals = integrand(pts[sl])
        if weights is not None:
            vals = vals * weights[sl]
        total = _exact_sum(vals)
        return i, total, [] if i else [_magnitude_sum(vals, total)], vals.size

    if nthreads == 1 or len(jobs) == 1:
        stats = [work(job) for job in jobs]
    else:
        with ThreadPoolExecutor(max_workers=nthreads) as pool:
            stats = list(pool.map(work, jobs))
    return [([s[1] for s in stats if s[0] == i], [p for s in stats if s[0] == i for p in s[2]],
             sum(s[3] for s in stats if s[0] == i)) for i in range(len(segments))]


def _magnitude_sum(vals: np.ndarray, total):
    """The exact sum of |v| for the rounding floor: the sum of v itself
    unless some v is negative."""
    return _exact_sum(np.abs(vals)) if (vals < 0.0).any() else total


def _exact_sum(vals: np.ndarray):
    """The exact sum of a float array as (n, s), meaning n * 2**s.

    Each value is m * 2**e by frexp; the integer part of m * 2**27 and
    its 26 fraction bits are summed per exponent by np.bincount, and the
    bins are gathered into one Python integer.  An array holding nan or
    inf gives instead its non-finite values, for _round_sums to combine
    (see _nonfinite_sum).
    """
    finite = np.isfinite(vals)
    if not finite.all():
        return vals[~finite]
    m, e = np.frexp(vals)
    m = m * float(1 << _HI_BITS)
    hi = np.floor(m)
    lo = (m - hi) * float(1 << _LO_BITS)
    e_min = int(e.min())
    # np.bincount takes intp bins; frexp's exponents are int32
    k = np.subtract(e, e_min, dtype=np.intp)
    his = np.bincount(k, weights=hi).astype(np.int64).tolist()
    los = np.bincount(k, weights=lo).astype(np.int64).tolist()
    n = 0
    for i, (hi_sum, lo_sum) in enumerate(zip(his, los)):
        if hi_sum or lo_sum:
            n += ((hi_sum << _LO_BITS) + lo_sum) << i
    return n, e_min - _HI_BITS - _LO_BITS


def _round_sums(parts) -> float:
    """The exact total of _exact_sum parts, correctly rounded once.

    As with math.fsum, an exact zero is +0.0, a total beyond the double
    range raises OverflowError, and any non-finite values decide the
    total by _nonfinite_sum.  Unlike math.fsum, which raises when some
    prefix of the values overflows, only the total decides.
    """
    special = [p for p in parts if isinstance(p, np.ndarray)]
    if special:
        return _nonfinite_sum(np.concatenate(special))
    s = min(p[1] for p in parts)
    n = sum(p[0] << (p[1] - s) for p in parts)
    # n * 2**s correctly rounded: int -> float and int / int are, in CPython
    return float(n << s) if s >= 0 else n / (1 << -s)


def _nonfinite_sum(vals: np.ndarray) -> float:
    """math.fsum's rule for an array holding nan or inf: +inf with -inf
    is a ValueError, otherwise any nan gives nan, otherwise the infinity.
    A chunk whose density failed to evaluate (contact_defect maps such
    points to nan) thus makes the integral nan, as it did under fsum."""
    pos = bool(np.any(vals == np.inf))
    neg = bool(np.any(vals == -np.inf))
    if pos and neg:
        raise ValueError("-inf + inf in exact sum")
    if np.isnan(vals).any():
        return math.nan
    return math.inf if pos else -math.inf


def contact_volume(m: ContactManifold, budget: int = 1 << 17, seed: int = 0,
                   threads: Optional[int] = None) -> IntegralResult:
    """Total contact volume: the integral of 1; seed is ignored."""
    return integrate(m, constant_field(1.0, m.ambient_dim), budget=budget,
                     seed=seed, threads=threads)
