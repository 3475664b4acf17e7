"""Reeb-flow integration, transport, and ergodicity diagnostics."""

import math
import os

import numpy as np
import pytest

from contactkit import flows, zoo
from contactkit.flows import (FlowTrajectory, IntegrationError, birkhoff_average,
                              conformal_factor, flow_points, integrate_flow,
                              min_return_distance, orbit_coverage, space_average,
                              strictness_check, transported_flow)
from contactkit.hamiltonian import constant_hamiltonian, hamiltonian
from conftest import sample

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


def golden_field(m):
    return lambda pts: zoo.weighted_reeb_closed_form(m, pts)


def test_hopf_orbit_returns_at_pi(sphere):
    start = np.array([1.0, 0.0, 0.0, 0.0])
    traj = integrate_flow(sphere, None, start, math.pi, tol=1e-10)
    assert np.max(np.abs(traj.end - start)) < 1e-7
    assert traj.max_drift < 1e-9


def test_flow_conserves_alpha_of_velocity(sphere):
    traj = integrate_flow(sphere, None, sample(sphere, 1)[0], 3.0, tol=1e-9)
    vel = sphere.reeb_field(traj.points)
    energy = sphere.form(traj.points, vel)
    assert np.max(np.abs(energy - 1.0)) < 1e-9


def test_flow_matches_weighted_closed_form(golden):
    start = sample(golden, 1)[0]
    T = 5.0
    traj = integrate_flow(golden, None, start, T, tol=1e-10)
    exact = zoo.weighted_flow_closed_form(golden, start, traj.times)
    assert np.max(np.abs(traj.points - exact)) < 1e-7


def test_flow_reversal_returns_to_start(torus):
    start = sample(torus, 1)[0]
    forward = integrate_flow(torus, None, start, 2.0, tol=1e-11)
    negated = lambda pts: -torus.reeb_field(pts)
    back = integrate_flow(torus, negated, forward.end, 2.0, tol=1e-11)
    assert np.max(np.abs(torus.wrap(back.end) - torus.wrap(start))) < 1e-8


def test_zero_time_gives_single_sample(sphere):
    traj = integrate_flow(sphere, None, sample(sphere, 1)[0], 0.0)
    assert len(traj.times) == 1 and traj.total_time == 0.0


def test_negative_time_and_bad_tolerance_rejected(sphere):
    start = sample(sphere, 1)[0]
    with pytest.raises(ValueError):
        integrate_flow(sphere, None, start, -1.0)
    with pytest.raises(ValueError):
        integrate_flow(sphere, None, start, 1.0, tol=0.0)


def test_step_budget_exhaustion_raises(sphere):
    with pytest.raises(IntegrationError):
        integrate_flow(sphere, None, sample(sphere, 1)[0], 50.0, max_steps=10)


def test_flow_points_agree_with_adaptive_integrator(golden):
    starts = sample(golden, 5)
    T = 1.5
    batched = flow_points(golden, None, starts, T, steps=2048)
    for i in range(5):
        traj = integrate_flow(golden, None, starts[i], T, tol=1e-11)
        assert np.max(np.abs(batched[i] - traj.end)) < 1e-8


def test_trajectory_csv_roundtrip(tmp_path, sphere):
    traj = integrate_flow(sphere, None, sample(sphere, 1)[0], 1.0)
    path = tmp_path / "orbit.csv"
    traj.to_csv(path)
    data = np.genfromtxt(path, delimiter=",", names=True)
    assert len(data) == len(traj.times)
    assert np.array_equal(np.array(data["t"]), traj.times)
    assert np.array_equal(np.array(data["x0"]), traj.points[:, 0])


def test_reeb_transport_is_strict(sphere, torus, golden):
    for m in (sphere, torus, golden):
        defect = strictness_check(m, None, 1.0, samples=10, seed=1)
        assert defect < 1e-7, m.name


def test_invariant_hamiltonian_generates_strict_flow(sphere):
    # H = |z0|^2 is Reeb-invariant, so its contact flow preserves alpha
    h = hamiltonian(sphere, lambda c: c[0] * c[0] + c[1] * c[1], name="z0sq")
    assert strictness_check(sphere, h, 1.0, samples=10, seed=1) < 1e-9


def test_non_invariant_generator_is_not_strict(sphere):
    # the coordinate function x0 moves under the Reeb flow
    h = hamiltonian(sphere, lambda c: c[0], name="x0")
    defect = strictness_check(sphere, h, 1.0, samples=10, seed=1)
    assert defect > 0.1


def test_conformal_factor_one_for_reeb(golden):
    pts = sample(golden, 8)
    lam = conformal_factor(golden, None, 0.8, pts)
    assert np.max(np.abs(lam - 1.0)) < 1e-8


def test_conformal_factor_detects_nonstrict_generator(sphere):
    h = hamiltonian(sphere, lambda c: c[0], name="x0")
    pts = sample(sphere, 8)
    lam = conformal_factor(sphere, h, 1.0, pts)
    assert np.max(np.abs(lam - 1.0)) > 0.1


def test_transported_vectors_stay_tangent(golden):
    starts = sample(golden, 6)
    rng = np.random.default_rng(4)
    vecs = golden.random_tangents(starts, rng)
    ends, moved = transported_flow(golden, None, starts, vecs, 1.2)
    grads = golden.constraint_gradients(ends)
    assert np.max(np.abs(np.einsum("nka,na->nk", grads, moved))) < 1e-9


def test_birkhoff_average_of_invariant_quantity_is_flat(sphere):
    traj = integrate_flow(sphere, None, sample(sphere, 1)[0], 4.0)
    avg = birkhoff_average(traj, lambda pts: pts[:, 0] ** 2 + pts[:, 1] ** 2)
    assert np.max(np.abs(avg - avg[0])) < 1e-8


def test_birkhoff_converges_to_space_average_on_ergodic_flow(golden):
    obs = lambda pts: pts[:, 0] * pts[:, 2] + pts[:, 1] * pts[:, 3]
    start = sample(golden, 1)[0]
    traj = integrate_flow(golden, golden_field(golden), start, 120.0,
                          tol=1e-8, max_step=0.05)
    avg = birkhoff_average(traj, obs)
    # Re(z0 conj(z1)) integrates to zero by the relative phase symmetry
    assert abs(avg[-1]) < 1e-2
    space = space_average(golden, hamiltonian(golden, lambda c: c[0] * c[2] + c[1] * c[3]).field,
                          budget=1 << 15)
    assert abs(space.value) <= 4.0 * space.std_error + 1e-12
    assert abs(avg[-1] - space.value) < 1e-2


def test_orbit_coverage_separates_circle_from_dense_flow(sphere, torus):
    circle = integrate_flow(sphere, None, np.array([1.0, 0.0, 0.0, 0.0]), 20.0,
                            tol=1e-8, max_step=0.05)
    assert orbit_coverage(circle, 12) < 0.02
    # a torus Reeb orbit fixes t, so it fills exactly one t-slab of cells
    dense = integrate_flow(torus, None, sample(torus, 1)[0], 100.0,
                           tol=1e-8, max_step=0.02)
    assert orbit_coverage(dense, 8) == pytest.approx(1.0 / 8.0)
    # against its own invariant slice the orbit covers everything
    t0 = dense.start[2]
    grid = np.linspace(0.0, 2.0 * math.pi, 48, endpoint=False)
    u, v = np.meshgrid(grid, grid, indexing="ij")
    slab = np.column_stack([u.ravel(), v.ravel(), np.full(u.size, t0)])
    assert orbit_coverage(dense, 8, reference=slab) == pytest.approx(1.0)


def test_orbit_coverage_against_invariant_torus_reference(golden):
    start = sample(golden, 1)[0]
    traj = integrate_flow(golden, golden_field(golden), start, 150.0,
                          tol=1e-8, max_step=0.05)
    # the orbit closure is the 2-torus with the start's moduli
    grid = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
    t1, t2 = np.meshgrid(grid, grid, indexing="ij")
    r = np.hypot(start[0], start[1]), np.hypot(start[2], start[3])
    ref = np.column_stack([r[0] * np.cos(t1).ravel(), r[0] * np.sin(t1).ravel(),
                           r[1] * np.cos(t2).ravel(), r[1] * np.sin(t2).ravel()])
    cov = orbit_coverage(traj, 6, reference=ref)
    assert cov > 0.9


def test_min_return_distance_on_golden_flow(golden):
    start = sample(golden, 1)[0]
    traj = integrate_flow(golden, golden_field(golden), start, 200.0,
                          tol=1e-8, max_step=0.05)
    t_star, d_star = min_return_distance(traj, 1.0)
    # frozen from the closed-form orbit: best return near t = 144.0
    assert abs(t_star - 144.0) < 0.5
    exact = zoo.weighted_flow_closed_form(golden, start, t_star)
    assert d_star == pytest.approx(float(np.linalg.norm(exact - start)), abs=1e-6)
    assert 1e-3 < d_star < 2.5e-3


def golden_return_orbit(golden, field):
    """Golden-ellipsoid orbit of time 0.5 whose closest return after 0.4 is searched."""
    start = sample(golden, 1)[0]
    return start, integrate_flow(golden, field, start, 0.5)


def test_min_return_search_costs_one_reintegration_per_candidate(golden, monkeypatch):
    calls = []

    def counted(pts):
        calls.append(1)
        return golden.reeb_field(pts)

    _, traj = golden_return_orbit(golden, counted)
    candidates = []
    refine = flows._refine_return

    def counted_refine(*args):
        candidates.append(args[1])
        return refine(*args)

    monkeypatch.setattr(flows, "_refine_return", counted_refine)
    calls.clear()
    min_return_distance(traj, 0.4)
    # at most two rebuilt DP5(4) steps and one 64-step RK4 re-integration each
    assert candidates
    assert len(calls) <= len(candidates) * (2 * 7 + 4 * 64)


def test_min_return_at_the_window_edge_matches_closed_form(golden):
    start, traj = golden_return_orbit(golden, None)
    t_star, d_star = min_return_distance(traj, 0.4)
    assert min(abs(t_star - 0.4), abs(t_star - 0.5)) < 1e-6
    exact = zoo.weighted_flow_closed_form(golden, start, t_star)
    assert abs(d_star - float(np.linalg.norm(exact - start))) <= 1e-7
    scan = zoo.weighted_flow_closed_form(golden, start, np.linspace(0.4, 0.5, 20001))
    assert d_star <= float(np.min(np.linalg.norm(scan - start, axis=1))) + 1e-7


def test_min_return_interior_minimum_on_hopf_orbit(sphere):
    traj = integrate_flow(sphere, None, np.array([1.0, 0.0, 0.0, 0.0]), 3.2)
    t_star, d_star = min_return_distance(traj, 3.0)
    assert abs(t_star - math.pi) <= 1e-6
    assert d_star <= 1e-7


def test_min_return_requires_room(sphere):
    traj = integrate_flow(sphere, None, sample(sphere, 1)[0], 1.0)
    with pytest.raises(ValueError):
        min_return_distance(traj, 2.0)


def test_hamiltonian_generator_flow(sphere):
    # H = 1 generates the Reeb flow itself
    start = sample(sphere, 1)[0]
    a = integrate_flow(sphere, constant_hamiltonian(sphere, 1.0), start, 1.0, tol=1e-10)
    b = integrate_flow(sphere, None, start, 1.0, tol=1e-10)
    assert np.max(np.abs(a.end - b.end)) < 1e-8
