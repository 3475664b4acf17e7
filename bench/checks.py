"""Closed forms and output checks, computed with numpy and scipy only.

Nothing here imports contactkit: every oracle is derived from the
geometry of the workload inputs.  Each ``check_*`` function returns a
list of problems; an empty list means the output is correct.
Coordinates are interleaved as in contactkit: (x0, y0, x1, y1, ...).
"""

from __future__ import annotations

import json
import math

import numpy as np
from scipy.linalg import expm

# absolute agreement of integrated orbits with their closed forms; the
# integrators run at tol 1e-9 and land near 1e-9, a shift of 1e-6 fails
ORBIT_TOL = 1e-7
# agreement of a reported return distance with the closed-form distance
RETURN_TOL = 1e-7
# Birkhoff average against the trapezoid rule of the exact orbit on the
# same sample times
BIRKHOFF_SAMPLED_TOL = 1e-8
# relative error of contact volumes of round spheres and ellipsoids,
# whose sampled density is constant to rounding
VOLUME_RTOL = 1e-9
# relative error of moment-polynomial integrals at 2^15-2^16 scrambled
# Sobol points; fixed, never taken from the reported std_error
POLYNOMIAL_RTOL = 2e-3
STRICTNESS_TOL = 1e-7
JACOBI_TOL = 1e-6


def complex_coords(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    return x[..., 0::2] + 1j * x[..., 1::2]


def real_coords(z: np.ndarray) -> np.ndarray:
    out = np.empty(z.shape[:-1] + (2 * z.shape[-1],))
    out[..., 0::2] = z.real
    out[..., 1::2] = z.imag
    return out


def weighted_orbit(weights, start, t) -> np.ndarray:
    """z_j(t) = exp(2 pi i w_j t) z_j(0); t scalar or (T,)."""
    z0 = complex_coords(start)
    phase = 2.0 * math.pi * np.multiply.outer(np.asarray(t, dtype=float),
                                              np.asarray(weights, dtype=float))
    return real_coords(z0 * np.exp(1j * phase))


def geodesic_orbit(start, t) -> np.ndarray:
    """(q cos t + p sin t, p cos t - q sin t) on the round unit cotangent bundle."""
    start = np.asarray(start, dtype=float)
    t = np.asarray(t, dtype=float)[..., None]
    q, p = start[:3], start[3:]
    return np.concatenate([q * np.cos(t) + p * np.sin(t),
                           p * np.cos(t) - q * np.sin(t)], axis=-1)


def _max_gap(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a, dtype=float) - np.asarray(b, dtype=float))))


def check_orbit(times, points, exact, T: float) -> list:
    """An integrated orbit against its closed form at every stored time."""
    times = np.asarray(times, dtype=float)
    problems = []
    if times[0] != 0.0 or np.any(np.diff(times) <= 0.0):
        problems.append("orbit times do not start at 0 and increase")
    if abs(times[-1] - T) > 1e-12 * max(1.0, T):
        problems.append(f"orbit ends at t={times[-1]!r}, expected {T!r}")
    gap = _max_gap(points, exact(times))
    if not gap <= ORBIT_TOL:
        problems.append(f"orbit is {gap:.3e} from its closed form")
    return problems


def check_return(t_ret, d_ret, exact, start, t_min: float, T: float) -> list:
    """A closest return against the closed-form distance and a fine scan."""
    problems = []
    if t_ret is None or not t_min <= t_ret <= T:
        return [f"return time {t_ret!r} outside [{t_min}, {T}]"]
    closed = float(np.linalg.norm(exact(t_ret) - start))
    if not abs(d_ret - closed) <= RETURN_TOL:
        problems.append(f"return distance {d_ret!r} is not the closed-form "
                        f"distance {closed!r} at t={t_ret!r}")
    scan = np.linspace(t_min, T, 20001)
    best = float(np.min(np.linalg.norm(exact(scan) - start, axis=1)))
    if not d_ret <= best + RETURN_TOL:
        problems.append(f"return distance {d_ret!r} exceeds the scanned minimum {best!r}")
    return problems


def _trapezoid_mean(values, times) -> float:
    segments = 0.5 * (values[1:] + values[:-1]) * np.diff(times)
    return float(np.sum(segments) / times[-1])


def check_dense_report(report_bytes: bytes, csv_bytes: bytes, weights, start,
                       T: float, code: int) -> list:
    """The flow command's report and trajectory on the weighted ellipsoid."""
    problems = []
    if code != 0:
        problems.append(f"flow command exited {code}")
    report = json.loads(report_bytes)
    if report.get("pass") is not True:
        problems.append("report does not pass")
    if report.get("T") != T or _max_gap(report.get("start"), start) != 0.0:
        problems.append("report does not echo the start and T")
    rows = csv_bytes.decode().splitlines()
    table = np.array([[float(v) for v in row.split(",")] for row in rows[1:]])
    times, points = table[:, 0], table[:, 1:]
    problems += check_orbit(times[[0, -1]], points[[0, -1]],
                            lambda t: weighted_orbit(weights, start, t), T)

    coverage = report.get("coverage")
    if not (isinstance(coverage, float) and 0.0 < coverage <= 1.0):
        problems.append(f"coverage {coverage!r} outside (0, 1]")

    avg = report.get("birkhoff_average")
    if not isinstance(avg, float):
        return problems + ["report has no Birkhoff average"]
    z = complex_coords(start)
    omega = 2.0 * math.pi * (weights[0] - weights[1])
    c0 = z[0] * np.conj(z[1])
    exact = float((c0 * (np.exp(1j * omega * T) - 1.0) / (1j * omega * T)).real)
    # trapezoid error on the stored samples: h^2 max|f''| / 12
    h = float(np.max(np.diff(times)))
    bound = h * h * omega * omega * abs(c0) / 12.0 + BIRKHOFF_SAMPLED_TOL
    if not abs(avg - exact) <= bound:
        problems.append(f"Birkhoff average {avg!r} is {abs(avg - exact):.3e} from "
                        f"the time average {exact!r} (bound {bound:.3e})")
    orbit = complex_coords(weighted_orbit(weights, start, times))
    sampled = _trapezoid_mean((orbit[:, 0] * np.conj(orbit[:, 1])).real, times)
    if not abs(avg - sampled) <= BIRKHOFF_SAMPLED_TOL:
        problems.append(f"Birkhoff average {avg!r} is {abs(avg - sampled):.3e} from "
                        f"the exact orbit's trapezoid mean on the same samples")
    return problems


def check_rerun(first: dict, again: dict) -> list:
    """A rerun must reproduce the report and CSV byte for byte, bar the timestamp."""

    def body(text: bytes) -> list:
        return [line for line in text.splitlines() if b'"timestamp"' not in line]

    problems = []
    if body(first["json"]) != body(again["json"]):
        problems.append("rerun report differs beyond the timestamp")
    if first["csv"] != again["csv"]:
        problems.append("rerun CSV differs")
    return problems


def check_relative(value: float, expected: float, rtol: float, what: str) -> list:
    err = abs(value - expected) / abs(expected)
    if not err <= rtol:
        return [f"{what} = {value!r}, expected {expected!r} (relative error {err:.3e})"]
    return []


def sphere_volume(n: int) -> float:
    """Contact volume of the round S^(2n+1): pi^(n+1)."""
    return math.pi ** (n + 1)


def ellipsoid_volume(weights) -> float:
    """Contact volume of pi sum w_j |z_j|^2 = 1: 1 / prod w_j."""
    return 1.0 / float(np.prod(weights))


def unitary_polynomial(n: int, h: np.ndarray, k: np.ndarray) -> float:
    """I(iH, iK) = pi^(n+1) (tr H tr K + tr HK) / (4 (n+1)(n+2))."""
    total = (np.trace(h) * np.trace(k) + np.trace(h @ k)).real
    return math.pi ** (n + 1) * float(total) / (4.0 * (n + 1) * (n + 2))


def check_transport(x, v, starts, vectors, linear: np.ndarray) -> list:
    """Points and vectors both carried by the complex linear map z -> L z."""
    problems = []
    for label, got, init in (("point", x, starts), ("vector", v, vectors)):
        want = real_coords(complex_coords(init) @ linear.T)
        gap = _max_gap(got, want)
        if not gap <= ORBIT_TOL:
            problems.append(f"transported {label} is {gap:.3e} from its closed form")
    return problems


def reeb_rotation(n: int, t: float) -> np.ndarray:
    """Reeb flow of the standard sphere: z -> exp(2it) z."""
    return np.exp(2j * t) * np.eye(n + 1)


def unitary_flow(a: np.ndarray, t: float) -> np.ndarray:
    return expm(t * a)


def check_bound(value: float, bound: float, what: str) -> list:
    if not abs(value) <= bound:
        return [f"{what} {value!r} exceeds {bound:.0e}"]
    return []
