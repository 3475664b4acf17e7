"""Hopf circle bundle: sections, lifts, fiber integration, Euler number."""

import math

import numpy as np
import pytest

from contactkit.chernweil import diagonal_torus_action, moment_field
from contactkit.hamiltonian import hamiltonian
from contactkit.prequant import (FiberError, base_integral, descend, euler_number,
                                 fiber_integration_check, hopf_prequantization,
                                 lift, normalize_hamiltonian,
                                 prequantization_relation_check,
                                 random_base_function, section)


@pytest.fixture(scope="module")
def preq():
    return hopf_prequantization()


@pytest.fixture(scope="module")
def preq2():
    return hopf_prequantization(scale=2.0)


def base_points(count, seed=0):
    rng = np.random.default_rng(seed)
    b = rng.normal(size=(count, 3))
    return b / np.linalg.norm(b, axis=1, keepdims=True)


def test_curvature_fit(preq, preq2):
    assert preq.curvature_dispersion <= 1e-8
    assert preq.omega_total == pytest.approx(math.pi, rel=1e-9)
    assert preq2.omega_total == pytest.approx(2.0 * math.pi, rel=1e-9)
    # d(form) pairs against the inward orientation of the base
    assert preq.orientation_sign == -1


def test_fiber_period_normalization_flag(preq, preq2):
    assert preq.fiber_period == pytest.approx(math.pi) and not preq.normalized
    assert preq2.fiber_period == pytest.approx(2.0 * math.pi) and preq2.normalized


def test_section_is_right_inverse(preq):
    b = base_points(200, seed=3)
    pts = section(preq, b)
    assert np.max(np.abs(np.linalg.norm(pts, axis=1) - 1.0)) < 1e-12
    assert np.max(np.abs(preq.projection(pts) - b)) < 1e-12


def test_section_covers_both_branches(preq):
    poles = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [1.0, 0.0, 0.0]])
    pts = section(preq, poles)
    assert np.max(np.abs(preq.projection(pts) - poles)) < 1e-12
    one = section(preq, poles[1])
    assert one.shape == (4,)


def test_lift_descend_roundtrip(preq):
    h = random_base_function(5)
    back = descend(preq, lift(preq, h))
    b = base_points(100, seed=7)
    assert np.max(np.abs(back(b) - h(b))) < 1e-9


def test_descend_rejects_fiber_dependent_hamiltonian(preq):
    H = hamiltonian(preq.total, lambda c: c[0], name="x0")
    with pytest.raises(FiberError):
        descend(preq, H)


def test_diagonal_moment_descends_to_height(preq):
    H = moment_field(diagonal_torus_action(preq.total), np.array([1.0, -1.0]))
    h = descend(preq, H)
    b = base_points(100, seed=11)
    assert np.max(np.abs(h(b) - 0.5 * b[:, 2])) < 1e-12


def test_base_integral_of_constant_and_odd_function(preq):
    const = base_integral(preq, [lambda b: np.ones(len(b))], budget=1 << 12)
    assert abs(const.value - preq.omega_total) <= const.std_error <= 1e-14 * const.value
    assert const.value == pytest.approx(math.pi, rel=1e-12)
    odd = base_integral(preq, [lambda b: b[:, 2]], budget=1 << 14)
    assert abs(odd.value) <= 3.0 * odd.std_error + 1e-12


@pytest.mark.parametrize("budget", [1 << 12, 1 << 15, 1 << 16])
def test_base_rule_integrates_sphere_moments_exactly(preq, budget):
    # over the unit sphere, the integral of b3^2 dA is 4 pi / 3 and of b1^2 b2^2 dA
    # is 4 pi / 15; base_integral takes them against omega = omega_scale dA
    for fields, area_moment in (([lambda b: b[:, 2] ** 2], 4.0 * math.pi / 3.0),
                                ([lambda b: b[:, 0] ** 2, lambda b: b[:, 1] ** 2],
                                 4.0 * math.pi / 15.0)):
        res = base_integral(preq, fields, budget=budget)
        exact = preq.omega_scale * area_moment
        assert abs(res.value - exact) <= min(res.std_error, 1e-14 * exact)
        assert res.samples == budget


def test_normalized_hamiltonian_has_zero_mean(preq):
    H = lift(preq, random_base_function(9))
    h0 = normalize_hamiltonian(preq, H, budget=1 << 14)
    res = base_integral(preq, [h0], budget=1 << 14)
    assert abs(res.value) <= 3.0 * res.std_error + 1e-9


def test_fiber_integration_constant_is_the_period(preq, preq2):
    for bundle in (preq, preq2):
        c, dispersion = fiber_integration_check(bundle, trials=20, budget=1 << 15)
        assert dispersion <= 1e-3
        sigma = abs(c) * dispersion / math.sqrt(20)
        assert abs(c - bundle.fiber_period) <= 4.0 * sigma + 1e-12


def test_fiber_integration_is_deterministic(preq):
    a = fiber_integration_check(preq, trials=4, budget=1 << 12)
    b = fiber_integration_check(preq, trials=4, budget=1 << 12)
    assert a == b


def test_euler_number_needs_the_normalized_period(preq, preq2):
    raw = euler_number(preq)
    assert raw["value"] == pytest.approx(0.5, rel=1e-9)
    assert not raw["normalized"] and raw["warning"] is not None
    # 1/2 has no nearest integer to report
    assert raw["nearest"] is None and raw["defect"] is None
    fixed = euler_number(preq2)
    assert fixed["nearest"] == 1 and fixed["defect"] <= 1e-9
    assert fixed["normalized"] and fixed["warning"] is None


def test_relation_exact_for_constants(preq):
    hams = [hamiltonian(preq.total, lambda c, v=v: v + 0.0 * np.asarray(c[0]),
                        reeb_invariant=True) for v in (0.7, -1.3)]
    out = prequantization_relation_check(preq, hams, budget=1 << 12,
                                         fiber_constant=math.pi)
    assert out["residual"] <= 1e-12
    assert out["fiber_constant"] == math.pi


def test_relation_holds_for_random_pairs(preq):
    height = moment_field(diagonal_torus_action(preq.total), np.array([1.0, -1.0]))
    poly = lift(preq, random_base_function(21))
    out = prequantization_relation_check(preq, [height, poly], budget=1 << 15,
                                         fiber_constant=math.pi)
    assert out["residual"] <= out["three_sigma"]


def test_relation_holds_at_order_three(preq):
    height = moment_field(diagonal_torus_action(preq.total), np.array([1.0, -1.0]))
    hams = [height, lift(preq, random_base_function(21)),
            lift(preq, random_base_function(22))]
    out = prequantization_relation_check(preq, hams, budget=1 << 15,
                                         fiber_constant=math.pi)
    assert out["residual"] <= out["three_sigma"]


def test_relation_rejects_single_hamiltonian(preq):
    H = lift(preq, random_base_function(1))
    with pytest.raises(ValueError):
        prequantization_relation_check(preq, [H])
