"""Contact volume integrals: grids on tori, toric product rules on spheres
and ellipsoids, S^2 times fiber product rules on cotangent bundles."""

import math

import numpy as np
import pytest

from contactkit import zoo
from contactkit.chernweil import invariant_polynomial_I
from contactkit.fields import ScalarField, constant_field
from contactkit.hamiltonian import hamiltonian
import contactkit.integrate as engine
from contactkit.integrate import contact_volume, default_threads, integrate


def within_3sigma(res, oracle, guard=1e-9):
    return abs(res.value - oracle) <= 3.0 * res.std_error + guard


def test_torus_volume_exact_per_winding():
    # alpha ^ d alpha = k dx dy dt, so the volume is k (2 pi)^3
    for k in (1, 2, 3):
        res = contact_volume(zoo.torus3(k), budget=33 ** 3)
        exact = k * (2 * math.pi) ** 3
        assert abs(res.value - exact) <= res.std_error <= 1e-14 * res.value


def test_torus_trig_integral_quadrature_exact():
    m = zoo.torus3(1)
    f = ScalarField(lambda c: np.cos(c[2]) ** 2, 3)
    res = integrate(m, f, budget=33 ** 3)
    assert res.value == pytest.approx(0.5 * (2 * math.pi) ** 3, rel=1e-12)
    g = ScalarField(lambda c: np.sin(c[0]), 3)
    assert abs(integrate(m, g, budget=33 ** 3).value) < 1e-12


def test_sphere_volume_is_constant_density():
    res = contact_volume(zoo.standard_sphere(1), budget=1 << 15)
    assert abs(res.value - math.pi ** 2) <= res.std_error <= 1e-14 * res.value
    assert res.method == "quadrature"
    res5 = contact_volume(zoo.standard_sphere(2), budget=1 << 15)
    assert res5.value == pytest.approx(math.pi ** 3, rel=1e-14)


# contact volumes of the workloads' sphere and ellipsoid shapes, and a moment
# with an odd term: pi^(n+1), 1 / prod w_j, and pi^2 / 24 for x0^2 x1^2 + 0.3 y0
_EXACT_CASES = [
    (zoo.standard_sphere(1), None, 1 << 16, math.pi ** 2),
    (zoo.standard_sphere(2), None, 1 << 15, math.pi ** 3),
    (zoo.standard_sphere(3), None, 1 << 13, math.pi ** 4),
    (zoo.weighted_sphere((0.7, 1.4)), None, 1 << 16, 1.0 / (0.7 * 1.4)),
    (zoo.weighted_sphere((0.8, 1.1, 1.5)), None, 1 << 15, 1.0 / (0.8 * 1.1 * 1.5)),
    (zoo.standard_sphere(1), ScalarField(lambda c: c[0] ** 2 * c[2] ** 2 + 0.3 * c[1], 4),
     1 << 16, math.pi ** 2 / 24.0),
]


@pytest.mark.parametrize("m, f, budget, exact", _EXACT_CASES)
def test_toric_rule_is_exact_and_its_error_bar_covers_the_error(m, f, budget, exact):
    res = (contact_volume(m, budget=budget) if f is None
           else integrate(m, f, budget=budget))
    assert abs(res.value - exact) <= 1e-13 * abs(exact)
    assert abs(res.value - exact) <= res.std_error <= 1e-13 * abs(res.value)
    assert res.method == "quadrature" and res.samples == budget


def test_deterministic_error_is_the_companion_gap_plus_the_rounding_floor():
    nodes = np.arange(8.0)[:, None]
    weights = np.full(8, 0.5)
    floor = engine._ROUNDING * engine._EPS * 2.0

    def rule(companion_scale):
        return (nodes, weights, 2.0, (nodes[::2], weights[::2], companion_scale))

    # v = 0.5 (x - 3.5): sum v = 0 and sum |v| = 8, so the floor reads 2 * 8
    res = engine.apply_rule(lambda b: b[:, 0] - 3.5, rule(4.0))
    assert res.value == 0.0 and res.std_error == 4.0 + floor * 8.0
    # v = 0.5 x: sum v = 14 = sum |v|, which the floor reuses
    res = engine.apply_rule(lambda b: b[:, 0], rule(4.0))
    assert res.value == 28.0 and res.std_error == abs(28.0 - 24.0) + floor * 14.0
    assert res.method == "quadrature" and res.samples == 8


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


# a bump f = s q3 makes the volume 8 pi^2 sinh(2s) / (2s)
@pytest.mark.parametrize("budget", [1 << 13, 1 << 16])
@pytest.mark.parametrize("strength", [None, 0.1, 0.3])
def test_cotangent_volume_is_exact_and_its_error_bar_covers_the_error(strength, budget):
    if strength is None:
        m, exact = zoo.unit_cotangent_sphere(), 8.0 * math.pi ** 2
    else:
        m = zoo.catalog()["cotangent-bump"](strength=strength)
        exact = 8.0 * math.pi ** 2 * math.sinh(2.0 * strength) / (2.0 * strength)
    res = contact_volume(m, budget=budget)
    assert abs(res.value - exact) <= res.std_error <= 1e-13 * exact
    assert res.method == "quadrature" and res.samples == budget


# on the round bundle L = q x p is uniform on the unit sphere under the contact
# measure, so I_k(H_a, ..., H_a) = vol |a|^k / (k + 1) for even k and 0 for odd k,
# with vol = 8 pi^2 and H_a = a . (q x p)
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_cotangent_angular_momentum_moments_are_exact(k):
    m = zoo.unit_cotangent_sphere()
    a = np.array([0.3, -0.7, 0.5])

    def angular_momentum(c):
        q, p = c[:3], c[3:]
        return (a[0] * (q[1] * p[2] - q[2] * p[1]) + a[1] * (q[2] * p[0] - q[0] * p[2])
                + a[2] * (q[0] * p[1] - q[1] * p[0]))

    h = hamiltonian(m, angular_momentum, reeb_invariant=True)
    scale = 8.0 * math.pi ** 2 * float(np.linalg.norm(a)) ** k
    exact = scale / (k + 1) if k % 2 == 0 else 0.0
    res = invariant_polynomial_I(m, [h] * k, budget=1 << 13)
    assert abs(res.value - exact) <= res.std_error <= 1e-13 * scale


def test_sphere_moment_against_dirichlet():
    # |z0|^2 has mean 1/2 on S^3
    m = zoo.standard_sphere(1)
    f = ScalarField(lambda c: c[0] * c[0] + c[1] * c[1], 4)
    res = integrate(m, f, budget=1 << 15)
    assert within_3sigma(res, 0.5 * math.pi ** 2)


def test_sampling_deterministic_per_seed():
    # every rule is deterministic: reruns and other seeds give the same bits
    m = zoo.unit_cotangent_sphere()
    f = ScalarField(lambda c: c[0] * c[0], 6)
    a = integrate(m, f, budget=1 << 13, seed=5)
    b = integrate(m, f, budget=1 << 13, seed=5)
    c = integrate(m, f, budget=1 << 13, seed=6)
    assert a.value.hex() == b.value.hex() == c.value.hex()
    assert a.std_error.hex() == b.std_error.hex() == c.std_error.hex()


def test_thread_count_does_not_change_sums():
    # 2^16 points are several chunks, so threads > 1 runs the pool
    m = zoo.weighted_sphere((1.0, 1.3))
    blocks = []

    def fn(c):
        blocks.append(len(c[0]))
        return c[0] * c[0] - c[2] * c[3]

    f = ScalarField(fn, 4)
    one = integrate(m, f, budget=1 << 16, threads=1)
    blocks.clear()
    four = integrate(m, f, budget=1 << 16, threads=4)
    # the rule's 2^16 nodes and its companion's 2^13
    assert len(blocks) > 1 and sum(blocks) == (1 << 16) + (1 << 13)
    assert one.value == four.value
    assert one.std_error == four.std_error


def test_chunk_size_does_not_change_sums(monkeypatch):
    m = zoo.weighted_sphere((1.0, 1.7))
    f = ScalarField(lambda c: c[0] * c[1] + c[3] ** 3, 4)
    ref = integrate(m, f, budget=1 << 15, seed=2)
    for chunk in (1 << 8, 1 << 11):
        monkeypatch.setattr(engine, "_CHUNK", chunk)
        res = integrate(m, f, budget=1 << 15, seed=2)
        assert res.value == ref.value, chunk
        assert res.std_error == ref.std_error, chunk


def _bits(x):
    return "nan" if math.isnan(x) else x.hex()


def _chunked_sum(x, pieces):
    chunks = np.array_split(x, min(pieces, x.size))
    return engine._round_sums([engine._exact_sum(c) for c in chunks])


def _parity_arrays():
    rng = np.random.default_rng(20)
    tiny = 5e-324
    big = np.finfo(float).max
    arrays = [
        np.array([-0.0]), np.array([-0.0, -0.0]), np.array([0.0, -0.0]),
        np.array([1.0, -1.0]), np.array([-1.0, 1.0, -0.0]), np.array([tiny, -tiny]),
        # halfway between neighbours: ties to even, broken by a far tail
        np.array([1.0, 2.0 ** -53]), np.array([1.0 + 2.0 ** -52, 2.0 ** -53]),
        np.array([1.0, 2.0 ** -53, 2.0 ** -200]), np.array([1.0, 2.0 ** -53, -2.0 ** -200]),
        np.array([big, -big, 1.0]), np.array([-big, 2.0 ** 970, -2.0 ** 969]),
        np.array([tiny] * 7), np.array([2.0 ** -1022, -tiny]),
        np.array([3.0, np.nan]), np.array([np.inf, 1.0]), np.array([-np.inf, 1.0]),
        np.array([np.inf, np.inf, np.nan]), np.array([-np.inf, np.nan, 2.0]),
    ]
    for _ in range(60):
        n = int(rng.integers(1, 400))
        # exponents over the whole double range, subnormals included
        arrays.append(np.ldexp(rng.standard_normal(n), rng.integers(-1074, 1000, n)))
        arrays.append(np.ldexp(rng.standard_normal(n), rng.integers(-1074, -1010, n)))
        # cancellation to an exact zero, or to a last bit
        x = np.ldexp(rng.standard_normal(n), rng.integers(-60, 60, n))
        y = np.concatenate([x, -x])
        rng.shuffle(y)
        arrays.append(y)
        arrays.append(np.append(y, np.ldexp(1.0, int(rng.integers(-1074, 0)))))
        # integers times powers of two: many exact ties
        arrays.append(np.ldexp(rng.integers(-(1 << 20), 1 << 20, n).astype(float),
                               rng.integers(-1100, 980, n)))
    return arrays


def test_exact_chunk_sum_matches_fsum_bitwise():
    for x in _parity_arrays():
        want = _bits(math.fsum(x))
        for pieces in (1, 3):
            assert _bits(_chunked_sum(x, pieces)) == want, (x, pieces)


def test_exact_chunk_sum_raises_like_fsum():
    big = np.finfo(float).max
    for x, err in ((np.array([np.inf, 1.0, -np.inf]), ValueError),
                   (np.array([np.nan, np.inf, -np.inf]), ValueError),
                   (np.array([big, big]), OverflowError),
                   (np.array([-big, -big / 2.0, 1.0]), OverflowError)):
        with pytest.raises(err):
            math.fsum(x)
        for pieces in (1, 2):
            with pytest.raises(err):
                _chunked_sum(x, pieces)
    # math.fsum also raises where only a prefix overflows; the exact
    # total is returned instead
    x = np.array([big, 2.0 ** 970, -2.0 ** 970])
    with pytest.raises(OverflowError):
        math.fsum(x)
    assert _chunked_sum(x, 1) == big


def test_budget_rounds_to_power_of_two():
    m = zoo.standard_sphere(1)
    res = integrate(m, constant_field(1.0, 4), budget=1000)
    assert res.samples == 1024


def test_record_carries_seed_and_inputs():
    # the rules draw nothing, so the record holds no seed, and a rerun with
    # another seed records the same bits
    m = zoo.unit_cotangent_sphere()
    res = contact_volume(m, budget=1 << 13, seed=9)
    rec = res.record("volume", {"manifold": m.key()})
    assert "seed" not in rec and rec["method"] == "quadrature"
    assert rec["operation"] == "volume"
    assert rec["inputs"]["manifold"] == m.key()
    assert rec["value"] == res.value
    again = contact_volume(m, budget=1 << 13, seed=10).record("volume", {"manifold": m.key()})
    assert again["value"].hex() == rec["value"].hex()
    assert again["std_error"].hex() == rec["std_error"].hex()


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
