"""Contact volume integrals: grids on tori, quasi-random sampling elsewhere."""

import math

import numpy as np
import pytest

from contactkit import zoo
from contactkit.fields import ScalarField, constant_field
from contactkit.integrate import contact_volume, default_threads, integrate


def within_3sigma(res, oracle, guard=1e-9):
    return abs(res.value - oracle) <= 3.0 * res.std_error + guard


def test_torus_volume_exact_per_winding():
    # alpha ^ d alpha = k dx dy dt, so the volume is k (2 pi)^3
    for k in (1, 2, 3):
        res = contact_volume(zoo.torus3(k), budget=33 ** 3)
        assert res.std_error == 0.0
        assert res.value == pytest.approx(k * (2 * math.pi) ** 3, rel=1e-12)


def test_torus_trig_integral_quadrature_exact():
    m = zoo.torus3(1)
    f = ScalarField(lambda c: np.cos(c[2]) ** 2, 3)
    res = integrate(m, f, budget=33 ** 3)
    assert res.value == pytest.approx(0.5 * (2 * math.pi) ** 3, rel=1e-12)
    g = ScalarField(lambda c: np.sin(c[0]), 3)
    assert abs(integrate(m, g, budget=33 ** 3).value) < 1e-12


def test_sphere_volume_is_constant_density():
    res = contact_volume(zoo.standard_sphere(1), budget=1 << 15)
    assert res.std_error == 0.0
    assert res.value == pytest.approx(math.pi ** 2, rel=1e-14)
    res5 = contact_volume(zoo.standard_sphere(2), budget=1 << 15)
    assert res5.value == pytest.approx(math.pi ** 3, rel=1e-14)


def test_scaled_sphere_volume():
    res = contact_volume(zoo.standard_sphere(1, form_scale=2.0), budget=1 << 14)
    assert res.value == pytest.approx(4.0 * math.pi ** 2, rel=1e-13)


def test_weighted_volume_inverse_weight_product():
    w = (1.0, 1.7)
    res = contact_volume(zoo.weighted_sphere(w), budget=1 << 16)
    assert within_3sigma(res, 1.0 / (w[0] * w[1]))
    assert res.std_error / res.value < 1e-3


def test_cotangent_round_volume():
    res = contact_volume(zoo.unit_cotangent_sphere(), budget=1 << 16)
    assert within_3sigma(res, 8.0 * math.pi ** 2)


def test_cotangent_bump_volume():
    # metric exp(2f) with f = 0.1 q3 multiplies the fiber measure by exp(2f)
    m = zoo.catalog()["cotangent-bump"](strength=0.1)
    oracle = 8.0 * math.pi ** 2 * math.sinh(0.2) / 0.2
    res = contact_volume(m, budget=1 << 16)
    assert within_3sigma(res, oracle)


def test_sphere_moment_against_dirichlet():
    # |z0|^2 has mean 1/2 on S^3
    m = zoo.standard_sphere(1)
    f = ScalarField(lambda c: c[0] * c[0] + c[1] * c[1], 4)
    res = integrate(m, f, budget=1 << 15)
    assert within_3sigma(res, 0.5 * math.pi ** 2)


def test_sampling_deterministic_per_seed():
    m = zoo.weighted_sphere((1.0, 2.0))
    f = ScalarField(lambda c: c[0] * c[0], 4)
    a = integrate(m, f, budget=1 << 13, seed=5)
    b = integrate(m, f, budget=1 << 13, seed=5)
    c = integrate(m, f, budget=1 << 13, seed=6)
    assert a.value == b.value and a.std_error == b.std_error
    assert a.value != c.value


def test_thread_count_does_not_change_sums():
    m = zoo.weighted_sphere((1.0, 1.3))
    f = ScalarField(lambda c: c[0] * c[0] - c[2] * c[3], 4)
    one = integrate(m, f, budget=1 << 14, threads=1)
    four = integrate(m, f, budget=1 << 14, threads=4)
    assert one.value == four.value
    assert one.std_error == four.std_error


def test_budget_rounds_to_power_of_two():
    m = zoo.standard_sphere(1)
    res = integrate(m, constant_field(1.0, 4), budget=1000)
    assert res.samples == 1024


def test_record_carries_seed_and_inputs():
    m = zoo.weighted_sphere((1.0, 2.0))
    res = contact_volume(m, budget=1 << 13, seed=9)
    rec = res.record("volume", {"manifold": m.key()})
    assert rec["seed"] == 9
    assert rec["operation"] == "volume"
    assert rec["inputs"]["manifold"] == m.key()
    assert rec["value"] == res.value


def test_default_threads_reads_environment(monkeypatch):
    monkeypatch.setenv("CONTACTKIT_THREADS", "3")
    assert default_threads() == 3
    monkeypatch.setenv("CONTACTKIT_THREADS", "junk")
    assert default_threads() == 1
    monkeypatch.delenv("CONTACTKIT_THREADS")
    assert default_threads() == 1


def test_submodules_are_reachable_under_their_own_names():
    # the package re-exports no function named like one of its submodules
    import contactkit.hamiltonian as H
    import contactkit.integrate as I

    assert callable(I.integrate) and callable(I.contact_volume)
    assert callable(H.bracket_hamiltonian) and callable(H.hamiltonian)
