"""The four workloads: seeded inputs, tasks that call contactkit, checks.

A workload is a round of task slots in interleaved order.  Every round
runs the same operations on fresh inputs drawn from its own generator
(see ``worker.round_rng``), so the work and the number of operations per
round never depend on the seed.  ``min_rounds`` is the least number of
rounds a timed phase runs.  Each task times only its call into
contactkit; its check runs afterwards against the closed forms in
``checks``.
"""

from __future__ import annotations

import importlib
import json
import math
import os
import tempfile
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import checks

zoo = importlib.import_module("contactkit.zoo")
flows = importlib.import_module("contactkit.flows")
integrate = importlib.import_module("contactkit.integrate")
chernweil = importlib.import_module("contactkit.chernweil")
hamiltonian = importlib.import_module("contactkit.hamiltonian")
cli = importlib.import_module("contactkit.cli")

PHI = (1.0 + math.sqrt(5.0)) / 2.0
GOLDEN = (1.0, PHI)
S5_WEIGHTS = (1.0, math.sqrt(2.0), math.sqrt(3.0))
# shares pi w_j |z_j|^2 of the seeded starts: the phases are random, the
# radii fixed, so step counts barely move with the seed
GOLDEN_SHARES = ((0.5, 0.5), (0.25, 0.75), (0.75, 0.25))
S5_SHARES = ((1 / 3, 1 / 3, 1 / 3), (0.2, 0.3, 0.5), (0.5, 0.3, 0.2))


@dataclass
class Task:
    kind: str
    work: float
    run: Callable[[], object]
    check: Callable[[object], list]
    # integrator counters (steps, rejected) of an output, for the trace
    stats: Callable[[object], dict] = lambda out: {}


@dataclass
class Workload:
    name: str
    work_unit: str
    min_rounds: int
    make_round: Callable[[np.random.Generator], list]
    manifolds: list = field(default_factory=list)
    close: Callable[[], None] = lambda: None


def weighted_start(rng, weights, shares) -> np.ndarray:
    radii = np.sqrt(np.asarray(shares) / (math.pi * np.asarray(weights)))
    z = radii * np.exp(2j * math.pi * rng.random(len(weights)))
    return checks.real_coords(z)


def sphere_points(rng, count: int, dim: int) -> np.ndarray:
    x = rng.normal(size=(count, dim))
    return x / np.linalg.norm(x, axis=1)[:, None]


def tangent_vectors(rng, pts: np.ndarray) -> np.ndarray:
    """Unit vectors orthogonal to the radial direction of sphere points."""
    v = rng.normal(size=pts.shape)
    v -= np.sum(v * pts, axis=1)[:, None] * pts
    return v / np.linalg.norm(v, axis=1)[:, None]


def cotangent_start(rng) -> np.ndarray:
    q, p = sphere_points(rng, 1, 3)[0], rng.normal(size=3)
    p -= (p @ q) * q
    return np.concatenate([q, p / np.linalg.norm(p)])


def anti_hermitian(rng, size: int) -> np.ndarray:
    a = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
    return (a - a.conj().T) / 2.0


def positive_hermitian(rng, size: int) -> np.ndarray:
    g = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
    return g @ g.conj().T / size + np.eye(size)


def flow_output(traj) -> dict:
    return {"times": traj.times, "points": traj.points, "stats": traj.stats()}


def flow_stats(out) -> dict:
    return out["stats"]


def report_stats(out) -> dict:
    return json.loads(out["json"])


# ---- reeb_orbit --------------------------------------------------------

REEB_T = 0.2            # flow time of an ellipsoid task
GEODESIC_T = 0.75       # flow time of a cotangent-bundle task
RETURN_T, RETURN_T_MIN = 0.5, 0.4


def reeb_orbit(out_dir: str) -> Workload:
    golden = zoo.weighted_sphere(GOLDEN)
    s5 = zoo.weighted_sphere(S5_WEIGHTS)
    cot = zoo.unit_cotangent_sphere()

    def flow_task(kind, m, start, T, exact):
        def run():
            return flow_output(flows.integrate_flow(m, None, start, T))

        def check(out):
            return checks.check_orbit(out["times"], out["points"], exact, T)

        return Task(kind, T, run, check, flow_stats)

    def ellipsoid_task(kind, m, weights, start):
        return flow_task(kind, m, start, REEB_T,
                         lambda t: checks.weighted_orbit(weights, start, t))

    def return_task(start):
        exact = lambda t: checks.weighted_orbit(GOLDEN, start, t)

        def run():
            traj = flows.integrate_flow(golden, None, start, RETURN_T)
            out = flow_output(traj)
            out["return"] = flows.min_return_distance(traj, RETURN_T_MIN)
            return out

        def check(out):
            t_ret, d_ret = out["return"]
            return (checks.check_orbit(out["times"], out["points"], exact, RETURN_T)
                    + checks.check_return(t_ret, d_ret, exact, start,
                                          RETURN_T_MIN, RETURN_T))

        return Task("return", RETURN_T, run, check, flow_stats)

    def make_round(rng):
        tasks = []
        for g_shares, s_shares in zip(GOLDEN_SHARES, S5_SHARES):
            tasks.append(ellipsoid_task("golden", golden, GOLDEN,
                                        weighted_start(rng, GOLDEN, g_shares)))
            tasks.append(ellipsoid_task("s5", s5, S5_WEIGHTS,
                                        weighted_start(rng, S5_WEIGHTS, s_shares)))
            start = cotangent_start(rng)
            tasks.append(flow_task("cotangent", cot, start, GEODESIC_T,
                                   lambda t, s=start: checks.geodesic_orbit(s, t)))
        tasks.append(return_task(weighted_start(rng, GOLDEN, GOLDEN_SHARES[0])))
        return tasks

    return Workload("reeb_orbit", "flow time", 4, make_round, [golden, s5, cot])


# ---- dense_orbit -------------------------------------------------------

DENSE_T = 2.0
DENSE_RESOLUTION = 6


def dense_orbit(out_dir: str) -> Workload:
    tmp = tempfile.mkdtemp(prefix="dense-", dir=out_dir)
    first = {}

    def flow_argv(start, stem):
        return ["flow", "--manifold", "weighted", "--weights", f"1,{PHI!r}",
                "--start=" + ",".join(repr(float(x)) for x in start),
                "--T", repr(DENSE_T), "--field", "weighted-closed-form",
                "--coverage-resolution", str(DENSE_RESOLUTION),
                "--observable", "re-z0zb1", "--output", stem + ".json"]

    def invoke(argv, stem):
        code = cli.main(argv)
        with open(stem + ".json", "rb") as handle:
            report = handle.read()
        with open(stem + ".csv", "rb") as handle:
            csv = handle.read()
        return {"code": code, "json": report, "csv": csv}

    def flow_task(slot, start):
        stem = os.path.join(tmp, f"orbit{slot}")
        argv = flow_argv(start, stem)

        def run():
            out = invoke(argv, stem)
            if slot == 0:
                first.clear()
                first.update(out)
            return out

        def check(out):
            return checks.check_dense_report(out["json"], out["csv"], GOLDEN, start,
                                             DENSE_T, out["code"])

        return Task("flow", DENSE_T, run, check, report_stats)

    def rerun_task(start):
        stem = os.path.join(tmp, "orbit0")
        argv = flow_argv(start, stem)
        return Task("rerun", DENSE_T, lambda: invoke(argv, stem),
                    lambda out: checks.check_rerun(first, out), report_stats)

    def make_round(rng):
        starts = [weighted_start(rng, GOLDEN, shares)
                  for shares in GOLDEN_SHARES + ((0.4, 0.6),)]
        return ([flow_task(slot, start) for slot, start in enumerate(starts)]
                + [rerun_task(starts[0])])

    def close():
        for name in os.listdir(tmp):
            os.remove(os.path.join(tmp, name))
        os.rmdir(tmp)

    return Workload("dense_orbit", "flow time", 16, make_round, [], close)


# ---- contact_quadrature ------------------------------------------------


def contact_quadrature(out_dir: str) -> Workload:
    spheres = {n: zoo.standard_sphere(n) for n in (1, 2, 3)}
    actions = {n: chernweil.unitary_action(spheres[n]) for n in (1, 2)}

    def volume_task(kind, m, budget, seed, expected):
        def run():
            return integrate.contact_volume(m, budget=budget, seed=seed)

        def check(res):
            return checks.check_relative(res.value, expected, checks.VOLUME_RTOL,
                                         f"{kind} volume")

        return Task(kind, budget, run, check)

    def polynomial_task(kind, n, budget, seed, h, k):
        expected = checks.unitary_polynomial(n, h, k)

        def run():
            return chernweil.pullback_polynomial(actions[n], [1j * h, 1j * k],
                                                 budget=budget, seed=seed)

        def check(res):
            return checks.check_relative(res.value, expected, checks.POLYNOMIAL_RTOL,
                                         f"{kind} I(iH, iK)")

        return Task(kind, budget, run, check)

    def make_round(rng):
        seed = lambda: int(rng.integers(1 << 31))
        w3 = np.exp(rng.uniform(-0.5, 0.5, size=2))
        w5 = np.exp(rng.uniform(-0.5, 0.5, size=3))
        return [
            volume_task("s3_volume", spheres[1], 1 << 16, seed(), checks.sphere_volume(1)),
            volume_task("ellipsoid3_volume", zoo.weighted_sphere(w3), 1 << 16, seed(),
                        checks.ellipsoid_volume(w3)),
            polynomial_task("s3_polynomial", 1, 1 << 16, seed(),
                            positive_hermitian(rng, 2), positive_hermitian(rng, 2)),
            volume_task("s7_volume", spheres[3], 1 << 13, seed(), checks.sphere_volume(3)),
            volume_task("s5_volume", spheres[2], 1 << 15, seed(), checks.sphere_volume(2)),
            volume_task("ellipsoid5_volume", zoo.weighted_sphere(w5), 1 << 15, seed(),
                        checks.ellipsoid_volume(w5)),
            polynomial_task("s5_polynomial", 2, 1 << 15, seed(),
                            positive_hermitian(rng, 3), positive_hermitian(rng, 3)),
            volume_task("s7_volume", spheres[3], 1 << 13, seed(), checks.sphere_volume(3)),
        ]

    return Workload("contact_quadrature", "sample points", 6, make_round,
                    list(spheres.values()))


# ---- strict_transport --------------------------------------------------

TRANSPORT_T = 0.25
TRANSPORT_STEPS = 32
BATCH = 24
JACOBI_POINTS = 16


def _sphere_polynomial(c: np.ndarray):
    """Linear plus one quadratic term, on the ambient coordinates."""
    return lambda x: sum(c[a] * x[a] for a in range(len(c))) + c[0] * x[0] * x[1]


def _torus_trigonometric(c: np.ndarray):
    return lambda x: (c[0] * np.sin(x[0]) + c[1] * np.cos(x[1] + x[2])
                      + c[2] * np.sin(x[2]) * np.cos(x[0]))


def strict_transport(out_dir: str) -> Workload:
    spheres = {n: zoo.standard_sphere(n) for n in (1, 2)}
    actions = {n: chernweil.unitary_action(spheres[n]) for n in (1, 2)}
    torus = zoo.torus3(1)

    def transport_task(kind, n, generator, linear, pts, vecs):
        m = spheres[n]

        def run():
            return flows.transported_flow(m, generator, pts, vecs, TRANSPORT_T,
                                          steps=TRANSPORT_STEPS)

        def check(out):
            return checks.check_transport(out[0], out[1], pts, vecs, linear)

        return Task(kind, BATCH * TRANSPORT_T, run, check)

    def strictness_task(kind, n, h, seed):
        def run():
            return flows.strictness_check(spheres[n], h, TRANSPORT_T, samples=BATCH,
                                          seed=seed, steps=TRANSPORT_STEPS)

        return Task(kind, BATCH * TRANSPORT_T, run,
                    lambda defect: checks.check_bound(defect, checks.STRICTNESS_TOL,
                                                      "strictness defect"))

    def jacobi_task(kind, m, fns, pts):
        def run():
            hs = [hamiltonian.hamiltonian(m, fn) for fn in fns]
            br = hamiltonian.bracket_hamiltonian
            cyclic = [br(hs[i], br(hs[(i + 1) % 3], hs[(i + 2) % 3])) for i in range(3)]
            return sum(h.values(pts) for h in cyclic)

        return Task(kind, 0.0, run,
                    lambda res: checks.check_bound(float(np.max(np.abs(res))),
                                                   checks.JACOBI_TOL, "Jacobi residual"))

    def reeb(rng, n):
        pts = sphere_points(rng, BATCH, 2 * n + 2)
        return transport_task(f"s{2 * n + 1}_reeb", n, None,
                              checks.reeb_rotation(n, TRANSPORT_T),
                              pts, tangent_vectors(rng, pts))

    def moment(rng, n, a, h):
        pts = sphere_points(rng, BATCH, 2 * n + 2)
        return transport_task(f"s{2 * n + 1}_moment", n, h,
                              checks.unitary_flow(a, TRANSPORT_T),
                              pts, tangent_vectors(rng, pts))

    def jacobi(rng, n):
        d = 2 * n + 2
        return jacobi_task(f"s{2 * n + 1}_jacobi", spheres[n],
                           [_sphere_polynomial(rng.normal(size=d)) for _ in range(3)],
                           sphere_points(rng, JACOBI_POINTS, d))

    def make_round(rng):
        gens = {n: anti_hermitian(rng, n + 1) for n in (1, 2)}
        hams = {n: chernweil.moment_field(actions[n], gens[n]) for n in (1, 2)}
        torus_jacobi = jacobi_task("t3_jacobi", torus,
                                   [_torus_trigonometric(rng.normal(size=3))
                                    for _ in range(3)],
                                   rng.uniform(0.0, 2.0 * math.pi, size=(JACOBI_POINTS, 3)))
        # three S^3 Reeb transports so that the median falls inside one kind
        return [
            reeb(rng, 1), jacobi(rng, 1), moment(rng, 1, gens[1], hams[1]),
            reeb(rng, 1), jacobi(rng, 2),
            strictness_task("s3_strictness", 1, hams[1], int(rng.integers(1 << 31))),
            reeb(rng, 1), torus_jacobi, reeb(rng, 2),
            moment(rng, 2, gens[2], hams[2]), jacobi(rng, 1),
            strictness_task("s5_strictness", 2, hams[2], int(rng.integers(1 << 31))),
        ]

    return Workload("strict_transport", "point-time", 4, make_round,
                    list(spheres.values()) + [torus])


WORKLOADS = {
    "reeb_orbit": reeb_orbit,
    "dense_orbit": dense_orbit,
    "contact_quadrature": contact_quadrature,
    "strict_transport": strict_transport,
}
