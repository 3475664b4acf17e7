"""Integration of scalar fields against the contact volume form.

One engine serves every manifold.  The manifold's ``reference_sampler``
(the rules live in ``zoo``) is its whole quadrature rule:
``reference_sampler(m, budget, seed)`` turns the evaluation budget into
``(points, weights or None, scale, sampled[, companion])``, and the
integral is scale * sum(f * defect * weight).  What ``std_error`` means
depends on the rule:

- the toric product rule on spheres and ellipsoids, exact on moment
  polynomials, carries a companion, the same rule at halved orders; its
  error is the gap |Q - Q'| between the two values plus a rounding floor
  _ROUNDING * eps * scale * sum |v|;
- the product trapezoid grid on the flat torus, exact to roundoff once
  the per-axis node count exceeds the trigonometric bandwidth of the
  integrand, reports a zero error;
- a sampled rule, scrambled Sobol points on a reference measure with
  explicit density weights (the cotangent bundle), reports the sample
  standard deviation over sqrt(N) times the measure, a conservative
  figure for quasi-random points.

Evaluation is chunked, optionally across a thread pool
(``CONTACTKIT_THREADS``).  Each chunk's sums are kept exact, as an
integer times a power of two, and the total is rounded once, which is
what ``math.fsum`` of all the values returns.  A chunk sums the squares
only for a sampled rule, and |v| only for a rule with a companion and
only where some v is negative.  Values and errors are therefore
bit-identical for any chunk size and any thread count.
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
# the rounding floor of a deterministic rule's error, in eps per unit of
# sum |v|: the Schur density n! Pf(Omega) Pf(S) / |grad g| takes at most
# 2d + 4 = 20 roundings on S^7 (d = 8), two d-term dot products and three
# scalings, and a toric node and weight about 12 more
_ROUNDING = 32.0


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
    (points, weights or None, scale, sampled[, companion]), with its error.

    A sampled rule's error is the iid standard error.  The sum of the
    values is exact and rounded once; so is the sum of their squared
    deviations from the mean that the standard error takes (see
    _deviation_sum); a standard error below half an ulp of the value is
    reported as zero.  A deterministic rule with a companion
    (points, weights or None, scale), a coarser rule of the same family,
    reports |Q - Q'| between the two values plus the rounding floor
    _ROUNDING * eps * scale * sum |v|; one without reports zero.
    """
    pts, weights, scale, sampled, *companion = rule
    extra = _square_parts if sampled else _magnitude_parts if companion else None
    (sums, parts, count), *coarse = _eval_chunks(
        integrand, [(pts, weights)] + [c[:2] for c in companion], extra, threads)
    value = scale * _round_sums(sums)
    if sampled:
        # count * sqrt(variance / count) with variance = deviations / count
        std_error = scale * math.sqrt(_deviation_sum(sums, parts, count))
        if std_error < 0.5 * math.ulp(value):
            # a spread that cannot move the value's last bit is the integrand's
            # rounding noise, which a deterministic rule's floor covers
            std_error = 0.0
        return IntegralResult(value=value, std_error=std_error, method="monte-carlo",
                              samples=count, seed=seed)
    std_error = 0.0
    if companion:
        coarse_value = companion[0][2] * _round_sums(coarse[0][0])
        std_error = (abs(value - coarse_value)
                     + _ROUNDING * _EPS * scale * _round_sums(parts))
    return IntegralResult(value=value, std_error=std_error, method="quadrature",
                          samples=count, seed=None)


def _eval_chunks(integrand: Callable, segments: list, extra: Optional[Callable],
                 threads: Optional[int]) -> list:
    """For each (points, weights or None) segment: the exact sums (see
    _exact_sum) of v = integrand * weight over each _CHUNK-point chunk, the
    exact-sum parts extra(v, sum) forms from each chunk of the first segment
    (none for the others), and the node count.  All segments' chunks share
    one pass and one thread pool."""
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
        return i, total, [] if extra is None or i else extra(vals, total), vals.size

    if nthreads == 1 or len(jobs) == 1:
        stats = [work(job) for job in jobs]
    else:
        with ThreadPoolExecutor(max_workers=nthreads) as pool:
            stats = list(pool.map(work, jobs))
    return [([s[1] for s in stats if s[0] == i], [p for s in stats if s[0] == i for p in s[2]],
             sum(s[3] for s in stats if s[0] == i)) for i in range(len(segments))]


def _square_parts(vals: np.ndarray, total) -> list:
    """The exact sum of v^2 as two parts, fl(v^2) and its rounding error
    (see _square_error), for the standard error of a sampled rule."""
    squares = vals * vals
    return [_exact_sum(squares), _exact_sum(_square_error(vals, squares))]


def _magnitude_parts(vals: np.ndarray, total) -> list:
    """The exact sum of |v| for the rounding floor: the sum of v itself
    unless some v is negative."""
    return [_exact_sum(np.abs(vals)) if (vals < 0.0).any() else total]


def _square_error(vals: np.ndarray, squares: np.ndarray) -> np.ndarray:
    """v^2 - fl(v^2) for the values v and their rounded squares, exactly, by
    Dekker's product on Veltkamp's split of v into halves of 26 bits, where
    v^2 neither overflows nor falls below the normal range."""
    scaled = vals * 134217729.0  # 2^27 + 1
    hi = scaled - (scaled - vals)
    lo = vals - hi
    return ((hi * hi - squares) + 2.0 * hi * lo) + lo * lo


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
    return _quotient(*_total(parts), 1)


def _deviation_sum(sums: list, squares: list, count: int) -> float:
    """sum (v - mean)^2 over count values, (count sum v^2 - (sum v)^2) / count,
    from the _exact_sum parts of the sum of the values and of the sum of
    their squares: the numerator is formed exactly and the quotient rounded
    once, so no cancellation between the two sums is left.  Values with nan
    or inf give the rounded sum of the squares' parts, nan or inf."""
    if any(isinstance(p, np.ndarray) for p in sums + squares):
        return _round_sums(squares)
    (n1, s1), (n2, s2) = _total(sums), _total(squares)
    # count n2 2^s2 - n1^2 2^(2 s1) = numer 2^s
    s = min(s2, 2 * s1)
    return _quotient(((count * n2) << (s2 - s)) - ((n1 * n1) << (2 * s1 - s)), s, count)


def _total(parts) -> tuple:
    """The exact total n * 2**s of finite _exact_sum parts, as (n, s)."""
    s = min(p[1] for p in parts)
    return sum(p[0] << (p[1] - s) for p in parts), s


def _quotient(n: int, s: int, d: int) -> float:
    """n * 2**s / d correctly rounded: int -> float and int / int are, in CPython."""
    return (n << s) / d if s >= 0 else n / (d << -s)


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
    """Total contact volume: the integral of 1."""
    return integrate(m, constant_field(1.0, m.ambient_dim), budget=budget,
                     seed=seed, threads=threads)
