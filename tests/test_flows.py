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
from conftest import counting_constraints, sample

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


def test_trajectory_length_is_its_sample_count(golden):
    traj = integrate_flow(golden, golden_field(golden), sample(golden, 1)[0], 0.5,
                          max_step=0.05)
    # one sample per accepted step and one for the start
    assert len(traj) == traj.steps + 1 == len(traj.points) == traj.stats()["samples"]
    assert traj.steps >= 10


def test_negative_time_and_bad_tolerance_rejected(sphere):
    start = sample(sphere, 1)[0]
    with pytest.raises(ValueError):
        integrate_flow(sphere, None, start, -1.0)
    with pytest.raises(ValueError):
        integrate_flow(sphere, None, start, 1.0, tol=0.0)


def test_step_budget_exhaustion_raises(sphere):
    with pytest.raises(IntegrationError):
        integrate_flow(sphere, None, sample(sphere, 1)[0], 50.0, max_steps=10)


def test_blown_up_step_is_an_integration_error(sphere):
    # the field pushes off the sphere; the guard reads the drift before
    # any Newton update, so the error names the pre-projection drift
    def leaving(pts):
        return zoo.sphere_reeb_closed_form(sphere, pts) + 0.5 * np.asarray(pts)

    with pytest.raises(IntegrationError,
                       match=r"constraint drift 3\.846e-02 before projection exceeds 1e-06"):
        integrate_flow(sphere, leaving, np.array([1.0, 0.0, 0.0, 0.0]), 1.0)


def test_flows_and_projections_call_no_mapped_constraint(golden):
    counted, calls = counting_constraints(golden)
    # the value at the origin, taken once when the manifold is built
    assert calls == ["H_w-1"]
    calls.clear()
    start = sample(golden, 1)[0]
    traj = integrate_flow(counted, golden_field(counted), start, 2.0)
    # every constraint pass and Newton update reads the gradient map
    assert traj.steps > 100
    assert calls == []
    counted.project(np.random.default_rng(5).normal(size=(40, 4)))
    assert calls == []


def test_an_unmapped_constraint_is_evaluated_on_every_step():
    bump = zoo.catalog()["cotangent-bump"](0.3)
    counted, calls = counting_constraints(bump)
    calls.clear()
    start = sample(bump, 1)[0]
    # the field of the uncounted manifold, so only the projection is counted
    traj = integrate_flow(counted, bump.reeb_field, start, 1.0)
    # each step's constraint pass evaluates the momentum plainly and seeded;
    # the two mapped constraints are never called
    assert traj.steps > 10
    assert set(calls) == {"|p|_g-1"}
    assert len(calls) >= 2 * traj.steps


def counting_field(m):
    """m's solved Reeb field wrapped to count its calls; returns (field, calls)."""
    calls = []

    def counted(pts):
        calls.append(1)
        return m.reeb_field(pts)

    return counted, calls


def test_flow_costs_one_field_call_plus_six_per_attempted_step(golden, sphere,
                                                                 cotangent, torus):
    # the first stage is evaluated once: an accepted step hands on its
    # seventh stage and a rejected one keeps the stage it started from
    rejected = 0
    for m in (golden, sphere, cotangent, torus):
        field, calls = counting_field(m)
        start = sample(m, 1)[0]
        traj = integrate_flow(m, field, start, 2.0)
        assert len(calls) == 1 + 6 * (traj.steps + traj.rejected), m.name
        rejected += traj.rejected
        calls.clear()
        integrate_flow(m, field, start, 0.0)
        assert calls == [], m.name
    assert rejected > 0


def test_long_flows_keep_closed_form_accuracy(golden, cotangent):
    # errors accumulated over T = 10 by the stage taken before projection;
    # the bounds are about 4x the errors measured with the stage taken
    # after projection (golden 3.25e-8, cotangent 2.73e-9)
    start = sample(golden, 1)[0]
    traj = integrate_flow(golden, None, start, 10.0)
    exact = zoo.weighted_flow_closed_form(golden, start, traj.times)
    assert np.max(np.abs(traj.points - exact)) < 1.3e-7
    start = sample(cotangent, 1)[0]
    traj = integrate_flow(cotangent, None, start, 10.0)
    q, p, t = start[:3], start[3:], traj.times[:, None]
    exact = np.hstack([q * np.cos(t) + p * np.sin(t), p * np.cos(t) - q * np.sin(t)])
    assert np.max(np.abs(traj.points - exact)) < 1.1e-8


def test_dormand_prince_tableau():
    a = flows._DP_A
    assert a.shape == (7, 7)
    assert np.array_equal(a, np.tril(a, -1))
    assert np.allclose(a.sum(axis=1), flows._DP_C, rtol=0.0, atol=1e-15)
    assert flows._DP_B5.sum() == pytest.approx(1.0, abs=1e-15)
    assert flows._DP_ERR.sum() == pytest.approx(0.0, abs=1e-15)
    assert np.array_equal(a[-1], flows._DP_B5)
    # the continuous extension at theta = 1 is the 5th-order step
    assert np.allclose(flows._DP_P.sum(axis=1), flows._DP_B5, rtol=0.0, atol=1e-15)


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
    # The golden Reeb flow is not ergodic: it is integrable, |z0|^2 is a
    # first integral and each orbit fills an invariant torus (see demo 03).
    # The time and space averages of Re(z0 conj(z1)) still agree: the
    # relative phase of z0 and z1 turns at the constant rate 2 pi (1 - phi),
    # so the observable averages to zero on every invariant torus, as it
    # does on the whole ellipsoid.
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


def test_coverage_cache_is_bounded_and_keeps_hitting(sphere, monkeypatch):
    monkeypatch.setattr(flows, "_COVERAGE_CACHE", {})
    monkeypatch.setattr(flows, "_REFERENCE_COUNT", 256)
    cap = flows._COVERAGE_CACHE_SIZE
    for seed in range(cap + 2):
        census = flows._reference_census(sphere, 4, seed)
    assert len(flows._COVERAGE_CACHE) == cap
    assert (sphere.key(), 4, 0) not in flows._COVERAGE_CACHE
    sampled = []
    monkeypatch.setattr(type(sphere), "random_points",
                        lambda self, count, rng: sampled.append(count))
    assert flows._reference_census(sphere, 4, cap + 1) is census
    assert sampled == [] and len(flows._COVERAGE_CACHE) == cap


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


def test_min_return_search_costs_seven_field_calls_per_candidate(golden, monkeypatch):
    field, calls = counting_field(golden)
    _, traj = golden_return_orbit(golden, field)
    candidates = []
    refine = flows._refine_return

    def counted_refine(*args):
        candidates.append(args[1])
        return refine(*args)

    def no_flow_points(*args, **kwargs):
        raise AssertionError("a closest return re-integrated the flow")

    monkeypatch.setattr(flows, "_refine_return", counted_refine)
    monkeypatch.setattr(flows, "flow_points", no_flow_points)
    calls.clear()
    min_return_distance(traj, 0.4)
    # one batched rebuild of at most two DP5(4) steps each, and the
    # distance read from the same continuous extension
    assert candidates
    assert len(calls) <= 7 * len(candidates)


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
