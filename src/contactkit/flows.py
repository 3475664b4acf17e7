"""Flow integration on embedded contact manifolds and ergodicity diagnostics.

Trajectories are integrated with an embedded Runge-Kutta 4(5) pair
(Dormand-Prince coefficients) followed by an orthogonal projection back
onto the constraint set after every accepted step.  Tangent transport
runs the variational equation alongside the point flow, with the field
Jacobian applied through dual-number seeding of the ambient solvers.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field as dataclass_field
from typing import Callable, Optional

import numpy as np
from scipy.optimize import minimize_scalar

from .fields import ScalarField, VectorField
from .integrate import IntegralResult, contact_volume, integrate
from .manifold import (
    ContactManifold,
    GeometryError,
    hamiltonian_field_with_derivative,
    reeb_with_derivative,
)


class IntegrationError(RuntimeError):
    """Adaptive stepping failed: step underflow or constraint blow-up."""


# Dormand-Prince 5(4) tableau
_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_ERR = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920,
                    -17253 / 339200, 22 / 525, -1 / 40])
# Shampine's quartic continuous extension of the pair (scipy's RK45 ``P``):
# y(t0 + theta h) = y0 + h K^T P [theta, theta^2, theta^3, theta^4]
_DP_P = np.array([
    [1.0, -8048581381 / 2820520608, 8663915743 / 2820520608,
     -12715105075 / 11282082432],
    [0.0, 0.0, 0.0, 0.0],
    [0.0, 131558114200 / 32700410799, -68118460800 / 10900136933,
     87487479700 / 32700410799],
    [0.0, -1754552775 / 470086768, 14199869525 / 1410260304,
     -10690763975 / 1880347072],
    [0.0, 127303824393 / 49829197408, -318862633887 / 49829197408,
     701980252875 / 199316789632],
    [0.0, -282668133 / 205662961, 2019193451 / 616988883,
     -1453857185 / 822651844],
    [0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
])

_MAX_PRE_PROJECTION_DRIFT = 1e-6


@dataclass
class FlowTrajectory:
    """Accepted integrator output: strictly increasing times, on-manifold points."""

    times: np.ndarray
    points: np.ndarray
    manifold: ContactManifold
    steps: int
    rejected: int
    max_drift: float
    rhs: Optional[Callable] = dataclass_field(default=None, repr=False)

    def __len__(self) -> int:
        return len(self.times)

    @property
    def start(self) -> np.ndarray:
        return self.points[0]

    @property
    def end(self) -> np.ndarray:
        return self.points[-1]

    @property
    def total_time(self) -> float:
        return float(self.times[-1])

    def stats(self) -> dict:
        return {
            "steps": self.steps,
            "rejected": self.rejected,
            "max_drift": self.max_drift,
            "samples": len(self.times),
            "total_time": self.total_time,
        }

    def to_csv(self, path) -> None:
        """Write rows (t, x0, x1, ...) with a header line."""
        d = self.points.shape[1]
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["t"] + [f"x{i}" for i in range(d)])
            for t, p in zip(self.times, self.points):
                writer.writerow([repr(float(t))] + [repr(float(c)) for c in p])


def _field_function(m: ContactManifold, field) -> Callable:
    """Normalize a field designation to a batched callable pts -> velocities.

    Accepts None or "reeb" for the Reeb field, a Hamiltonian, a
    VectorField, or any callable of point arrays.
    """
    if field is None or (isinstance(field, str) and field.lower() == "reeb"):
        return m.reeb_field
    if isinstance(field, VectorField):
        return field
    if hasattr(field, "field") and hasattr(field, "manifold"):
        from .hamiltonian import hamiltonian_to_field

        return lambda pts: hamiltonian_to_field(field, pts)
    if callable(field):
        return field
    raise TypeError(f"cannot interpret {field!r} as a flow field")


def _project_step(m: ContactManifold, y: np.ndarray, drift: float) -> tuple:
    """Project an accepted step back onto the constraint set."""
    if not m.constraints:
        return y, drift
    res = float(np.max(m.constraint_residual(y)))
    if res > _MAX_PRE_PROJECTION_DRIFT:
        raise IntegrationError(
            f"constraint drift {res:.3e} before projection exceeds "
            f"{_MAX_PRE_PROJECTION_DRIFT:.0e}")
    return m.project(y), max(drift, res)


def integrate_flow(m: ContactManifold, field, start, T: float,
                   tol: float = 1e-9, max_step: Optional[float] = None,
                   max_steps: int = 2_000_000) -> FlowTrajectory:
    """Integrate a flow on m from start for time T >= 0.

    Embedded 4(5) adaptive stepping with local error controlled by tol
    (used as both absolute and relative weight) and orthogonal
    projection onto the constraints after each accepted step.
    """
    if T < 0:
        raise ValueError("T must be nonnegative; flow a negated field to go backward")
    if tol <= 0:
        raise ValueError("tol must be positive")
    rhs = _field_function(m, field)
    y = m.project(np.asarray(start, dtype=float)) if m.constraints \
        else np.asarray(start, dtype=float).copy()
    times = [0.0]
    points = [y.copy()]
    if T == 0:
        return FlowTrajectory(np.array(times), np.array(points), m, 0, 0, 0.0, rhs)

    t = 0.0
    h = min(0.1, T)
    if max_step is not None:
        h = min(h, max_step)
    steps = 0
    rejected = 0
    drift = 0.0
    k = [None] * 7
    while t < T:
        h = min(h, T - t)
        if h < 1e-14 * max(1.0, t):
            raise IntegrationError(f"step size underflow at t={t:.6g}")
        k[0] = rhs(y)
        for i in range(1, 7):
            yi = y + h * sum(a * k[j] for j, a in enumerate(_DP_A[i]))
            k[i] = rhs(yi)
        y5 = y + h * sum(b * k[j] for j, b in enumerate(_DP_B5) if b != 0.0)
        err = h * sum(e * k[j] for j, e in enumerate(_DP_ERR) if e != 0.0)
        scale = tol * (1.0 + np.abs(y5))
        err_norm = float(np.sqrt(np.mean((err / scale) ** 2)))
        if err_norm <= 1.0:
            y, drift = _project_step(m, y5, drift)
            t += h
            times.append(t)
            points.append(y.copy())
            steps += 1
            if steps >= max_steps:
                raise IntegrationError(f"exceeded {max_steps} accepted steps")
        else:
            rejected += 1
        factor = 0.9 * err_norm ** -0.2 if err_norm > 0 else 5.0
        h *= min(5.0, max(0.2, factor))
        if max_step is not None:
            h = min(h, max_step)
    return FlowTrajectory(np.array(times), np.array(points), m, steps, rejected,
                          drift, rhs)


def flow_points(m: ContactManifold, field, starts, T: float,
                steps: Optional[int] = None) -> np.ndarray:
    """Fixed-step RK4 point flow for batches: starts (N, d) -> endpoints (N, d).

    Projection onto the constraints after every step; step count chosen
    from |T| when not given.
    """
    rhs = _field_function(m, field)
    pts = np.atleast_2d(np.asarray(starts, dtype=float)).copy()
    scalar = np.asarray(starts).ndim == 1
    if steps is None:
        steps = max(64, int(math.ceil(abs(T) * 128)))
    if T == 0 or steps == 0:
        return pts[0] if scalar else pts
    h = T / steps
    for _ in range(steps):
        k1 = rhs(pts)
        k2 = rhs(pts + 0.5 * h * k1)
        k3 = rhs(pts + 0.5 * h * k2)
        k4 = rhs(pts + h * k3)
        pts = pts + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        if m.constraints:
            pts = m.project(pts)
    return pts[0] if scalar else pts


def _transport_supplier(m: ContactManifold, generator) -> Callable:
    """Velocity-and-linearization supplier (x, v) -> (F(x), DF(x) v)."""
    if generator is None or (isinstance(generator, str) and generator.lower() == "reeb"):
        return lambda x, v: reeb_with_derivative(m, x, v)
    if hasattr(generator, "field") and hasattr(generator, "manifold"):
        h = generator.field
        return lambda x, v: hamiltonian_field_with_derivative(m, h, x, v)
    if isinstance(generator, ScalarField):
        return lambda x, v: hamiltonian_field_with_derivative(m, generator, x, v)
    raise TypeError(f"cannot transport along {generator!r}")


def _tangent_project(m: ContactManifold, pts: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Orthogonal projection of v onto the tangent spaces at pts."""
    if not m.constraints:
        return v
    g = m.constraint_gradients(pts)
    gram = np.einsum("nka,nla->nkl", g, g)
    gv = np.einsum("nka,na->nk", g, v)
    lam = np.linalg.solve(gram, gv[..., None])[..., 0]
    return v - np.einsum("nk,nka->na", lam, g)


def transported_flow(m: ContactManifold, generator, starts, vectors, T: float,
                     steps: Optional[int] = None) -> tuple:
    """Flow points and transported tangent vectors: the variational equation.

    Integrates x' = F(x), v' = DF(x) v with fixed-step RK4 on the
    augmented state, projecting x to the manifold and v to the tangent
    space after every step.  Returns (endpoints, transported vectors).
    """
    supplier = _transport_supplier(m, generator)
    x = np.atleast_2d(np.asarray(starts, dtype=float)).copy()
    v = np.atleast_2d(np.asarray(vectors, dtype=float)).copy()
    scalar = np.asarray(starts).ndim == 1
    if steps is None:
        steps = max(64, int(math.ceil(abs(T) * 256)))
    if T == 0 or steps == 0:
        return (x[0], v[0]) if scalar else (x, v)
    h = T / steps
    for _ in range(steps):
        fx1, fv1 = supplier(x, v)
        fx2, fv2 = supplier(x + 0.5 * h * fx1, v + 0.5 * h * fv1)
        fx3, fv3 = supplier(x + 0.5 * h * fx2, v + 0.5 * h * fv2)
        fx4, fv4 = supplier(x + h * fx3, v + h * fv3)
        x = x + (h / 6.0) * (fx1 + 2 * fx2 + 2 * fx3 + fx4)
        v = v + (h / 6.0) * (fv1 + 2 * fv2 + 2 * fv3 + fv4)
        if m.constraints:
            x = m.project(x)
            v = _tangent_project(m, x, v)
    return (x[0], v[0]) if scalar else (x, v)


def conformal_factor(m: ContactManifold, generator, t: float, pts,
                     steps: Optional[int] = None) -> np.ndarray:
    """Rescaling of the contact form along a contact flow, per point.

    Transports the Reeb vector (which pairs to 1 with the form) for time
    t and evaluates the form on the result; for a flow with pullback
    factor lambda this returns lambda at each point.
    """
    q = np.atleast_2d(np.asarray(pts, dtype=float))
    scalar = np.asarray(pts).ndim == 1
    v0 = m.reeb_field(q)
    xt, vt = transported_flow(m, generator, q, v0, t, steps)
    lam = m.form(xt, vt)
    return lam[0] if scalar else lam


def strictness_check(m: ContactManifold, generator, t: float, samples: int = 20,
                     seed: int = 0, steps: Optional[int] = None) -> float:
    """Max |(flow pullback of the form - form)(v)| over sampled (p, v).

    Zero (to integration error) exactly when the generator's flow
    preserves the contact form.
    """
    rng = np.random.default_rng(seed)
    pts = m.random_points(samples, rng)
    vecs = m.random_tangents(pts, rng)
    before = m.form(pts, vecs)
    xt, vt = transported_flow(m, generator, pts, vecs, t, steps)
    after = m.form(xt, vt)
    return float(np.max(np.abs(after - before)))


def birkhoff_average(traj: FlowTrajectory, f) -> np.ndarray:
    """Partial time averages (1/t_k) int_0^{t_k} f along the trajectory.

    Trapezoid rule on the stored samples; the t=0 entry is f(start).
    """
    vals = np.asarray(f(traj.points), dtype=float)
    t = traj.times
    if len(t) == 1:
        return vals.copy()
    segments = 0.5 * (vals[1:] + vals[:-1]) * np.diff(t)
    cumulative = np.concatenate([[0.0], np.cumsum(segments)])
    out = np.empty_like(cumulative)
    out[0] = vals[0]
    out[1:] = cumulative[1:] / t[1:]
    return out


def space_average(m: ContactManifold, f, budget: int = 1 << 17,
                  seed: int = 0, threads: Optional[int] = None) -> IntegralResult:
    """Volume-normalized integral of f against the contact volume form."""
    top = integrate(m, f, budget=budget, seed=seed, threads=threads)
    vol = contact_volume(m, budget=budget, seed=seed, threads=threads)
    value = top.value / vol.value
    if top.std_error == 0.0 and vol.std_error == 0.0:
        err = 0.0
    else:
        rel = math.hypot(top.std_error / max(abs(top.value), 1e-300),
                         vol.std_error / vol.value)
        err = abs(value) * rel if value != 0 else top.std_error / vol.value
    return IntegralResult(value, err, top.method, top.samples, seed)


_COVERAGE_CACHE: dict = {}

_REFERENCE_COUNT = 1 << 20     # ~1e6 quasi-random points for the cell census


def _cell_box(m: ContactManifold, reference: np.ndarray) -> tuple:
    """Bounding box used for the occupancy grid."""
    if m.periodic:
        d = reference.shape[1]
        return np.zeros(d), np.full(d, m.period)
    lo = reference.min(axis=0)
    hi = reference.max(axis=0)
    pad = 1e-9 + 1e-3 * (hi - lo)
    return lo - pad, hi + pad


def _cells(pts: np.ndarray, lo: np.ndarray, hi: np.ndarray, resolution: int) -> set:
    idx = np.floor((pts - lo) / (hi - lo) * resolution).astype(np.int64)
    np.clip(idx, 0, resolution - 1, out=idx)
    flat = np.ravel_multi_index(idx.T, (resolution,) * pts.shape[1])
    return set(flat.tolist())


def _reference_census(m: ContactManifold, resolution: int, seed: int) -> tuple:
    key = (m.key(), resolution, seed)
    if key not in _COVERAGE_CACHE:
        rng = np.random.default_rng(seed)
        pts = m.wrap(m.random_points(_REFERENCE_COUNT, rng))
        lo, hi = _cell_box(m, pts)
        _COVERAGE_CACHE[key] = (lo, hi, _cells(pts, lo, hi, resolution))
    return _COVERAGE_CACHE[key]


def orbit_coverage(traj: FlowTrajectory, resolution: int,
                   reference: Optional[np.ndarray] = None, seed: int = 0) -> float:
    """Fraction of manifold-meeting grid cells visited by the trajectory.

    The ambient box is split resolution-fold per axis; the denominator
    counts only cells hit by a large reference sampling of the manifold
    itself (cached per manifold and resolution), or of an explicitly
    supplied reference cloud such as an invariant torus.
    """
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    m = traj.manifold
    if reference is not None:
        ref = m.wrap(np.asarray(reference, dtype=float))
        lo, hi = _cell_box(m, ref)
        ref_cells = _cells(ref, lo, hi, resolution)
    else:
        lo, hi, ref_cells = _reference_census(m, resolution, seed)
    visited = _cells(m.wrap(traj.points), lo, hi, resolution)
    return len(visited & ref_cells) / len(ref_cells)


def _dense_steps(traj: FlowTrajectory, first: int, last: int) -> np.ndarray:
    """Continuous-extension coefficients of stored steps first..last-1.

    Rebuilds the seven stages of each accepted step from its stored start
    point and length (7 batched field calls in all) and returns Q with
    y(t_i + theta h_i) = y_i + h_i Q_i [theta, theta^2, theta^3, theta^4].
    """
    y0 = traj.points[first:last]
    h = np.diff(traj.times[first:last + 1])[:, None]
    k = [traj.rhs(y0)]
    for i in range(1, 7):
        k.append(traj.rhs(y0 + h * sum(a * k[j] for j, a in enumerate(_DP_A[i]))))
    return np.einsum("snd,nc->sdc", np.stack(k, axis=1), _DP_P)


def _refine_return(traj: FlowTrajectory, k: int, t_min: float, start) -> tuple:
    """Continuous distance minimum around stored sample k.

    The minimum over [max(t_{k-1}, t_min), t_{k+1}] is located on the
    DP5(4) continuous extension of the stored steps, whose probes cost
    no field evaluations; the distance at the minimizer then comes from
    one 64-step RK4 re-integration from the preceding stored sample.
    Falls back to the stored sample when the trajectory has no field or
    the refinement is no closer.
    """
    lo_i = max(k - 1, 0)
    hi_i = min(k + 1, len(traj.times) - 1)
    t_lo = max(float(traj.times[lo_i]), t_min)
    t_hi = float(traj.times[hi_i])
    coarse = float(np.linalg.norm(traj.points[k] - start))
    if traj.rhs is None or t_hi <= t_lo:
        return float(traj.times[k]), coarse
    # skip the window's first step when t_min already lies past it
    first = lo_i + 1 if lo_i + 1 < hi_i and traj.times[lo_i + 1] <= t_lo else lo_i
    knots = traj.times[first:hi_i + 1]
    q = _dense_steps(traj, first, hi_i)

    def sq_dist(t: float) -> float:
        s = min(int(np.searchsorted(knots, t, side="right")) - 1, len(q) - 1)
        h = knots[s + 1] - knots[s]
        theta = (t - knots[s]) / h
        p = traj.points[first + s] + h * (q[s] @ (theta ** np.arange(1, 5)))
        return float(np.sum((p - start) ** 2))

    res = minimize_scalar(sq_dist, bounds=(t_lo, t_hi), method="bounded",
                          options={"xatol": 1e-12})
    t_star = float(res.x)
    anchor_t = float(traj.times[lo_i])
    p = flow_points(traj.manifold, traj.rhs, traj.points[lo_i], t_star - anchor_t,
                    steps=64)
    d_star = float(np.linalg.norm(p - start))
    if d_star <= coarse:
        return t_star, d_star
    return float(traj.times[k]), coarse


def min_return_distance(traj: FlowTrajectory, t_min: float) -> tuple:
    """Closest return (time, distance) to the start for times >= t_min.

    The sampled distance can miss a narrow dip by up to speed x step/2,
    so every local minimum within that margin of the coarse best is
    refined and the best refinement wins.  A refinement locates the
    minimum by bounded scalar minimization on the DP5(4) continuous
    extension of the neighbouring stored steps (7 field evaluations to
    rebuild their stages) and measures the distance there by one RK4
    re-integration from the preceding stored sample (256 evaluations).
    """
    if t_min >= traj.total_time:
        raise ValueError("t_min must be below the trajectory's total time")
    start = traj.start
    idx_all = np.nonzero(traj.times >= t_min)[0]
    dists = np.linalg.norm(traj.points[idx_all] - start, axis=1)
    coarse_min = float(np.min(dists))

    gaps = np.diff(traj.times)
    if len(gaps):
        seg_speed = np.linalg.norm(np.diff(traj.points, axis=0), axis=1) / gaps
        margin = float(np.max(seg_speed)) * float(np.max(gaps))
    else:
        margin = 0.0

    interior = (dists <= np.roll(dists, 1)) & (dists <= np.roll(dists, -1))
    interior[0] = dists[0] <= dists[1] if len(dists) > 1 else True
    interior[-1] = dists[-1] <= dists[-2] if len(dists) > 1 else True
    candidates = idx_all[interior & (dists <= coarse_min + margin)]

    best_t, best_d = None, math.inf
    for k in candidates:
        t_k, d_k = _refine_return(traj, int(k), t_min, start)
        if d_k < best_d:
            best_t, best_d = t_k, d_k
    return best_t, best_d
