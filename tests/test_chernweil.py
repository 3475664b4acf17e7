"""Moment maps, invariant polynomials, positivity, circle pullbacks."""

import importlib
import itertools
import math

import numpy as np
import pytest

from contactkit import zoo
from contactkit.chernweil import (PositivityError, action_strictness,
                                  diagonal_torus_action, even_positivity_check,
                                  invariant_polynomial_I, moment, moment_field,
                                  pullback_polynomial, reeb_circle_pullback,
                                  torus_shift_action, unitary_action)
from contactkit.hamiltonian import adjoint, hamiltonian, is_reeb_invariant
from conftest import sample


def wallis(l):
    # circle average of cos^(2l): binom(2l, l) / 4^l, times the 2 pi period
    return 2.0 * math.pi * math.comb(2 * l, l) / 4.0 ** l


def test_torus_moment_closed_form(torus2):
    action = torus_shift_action(torus2)
    pts = sample(torus2, 50)
    a = np.array([0.7, -1.1])
    vals = moment(action, pts, a)
    k = torus2.params["winding"]
    expected = a[0] * np.cos(k * pts[:, 2]) - a[1] * np.sin(k * pts[:, 2])
    assert np.allclose(vals, expected, atol=1e-13)


def test_diagonal_moment_closed_form(sphere):
    action = diagonal_torus_action(sphere)
    pts = sample(sphere, 50)
    a = np.array([1.5, -0.5])
    expected = 0.5 * (a[0] * (pts[:, 0] ** 2 + pts[:, 1] ** 2)
                      + a[1] * (pts[:, 2] ** 2 + pts[:, 3] ** 2))
    assert np.allclose(moment(action, pts, a), expected, atol=1e-13)


def test_unitary_moment_of_identity_is_half(sphere):
    action = unitary_action(sphere)
    pts = sample(sphere, 50)
    vals = moment(action, pts, 1j * np.eye(2))
    assert np.allclose(vals, 0.5, atol=1e-13)


def test_action_matrices_equal_the_kron_form(sphere, sphere5):
    # L for z -> Az is kron(Re A, I) + kron(Im A, J), J: z -> iz, on
    # (x_0, y_0, x_1, ...); the diagonal torus's a is A = i diag(a)
    turn = np.array([[0.0, -1.0], [1.0, 0.0]])
    rng = np.random.default_rng(31)
    for m in (sphere, sphere5, zoo.standard_sphere(3)):
        unitary = unitary_action(m)
        a = unitary.validate_element(unitary.random_element(rng))
        lin = unitary.matrix(a)
        assert np.array_equal(lin, np.kron(a.real, np.eye(2)) + np.kron(a.imag, turn)), m.key()
        # L x is the fundamental field
        pts = sample(m, 20)
        assert np.allclose(pts @ lin.T, unitary.fundamental(a)(pts), rtol=0, atol=1e-14)
        torus = diagonal_torus_action(m)
        b = torus.random_element(rng)
        assert np.array_equal(torus.matrix(b), np.kron(np.diag(b), turn)), m.key()


def test_moment_linear_in_algebra_element(sphere):
    action = unitary_action(sphere)
    rng = np.random.default_rng(8)
    a = action.random_element(rng)
    b = action.random_element(rng)
    pts = sample(sphere, 30)
    combo = moment(action, pts, 2.0 * a - 0.5 * b)
    assert np.allclose(combo, 2.0 * moment(action, pts, a) - 0.5 * moment(action, pts, b),
                       atol=1e-13)


def test_fundamental_fields_are_tangent(sphere, torus):
    for action in (unitary_action(sphere), torus_shift_action(torus)):
        m = action.manifold
        pts = sample(m, 30)
        a = action.random_element(np.random.default_rng(1))
        vecs = action.fundamental(a)(pts)
        if m.constraints:
            grads = m.constraint_gradients(pts)
            assert np.max(np.abs(np.einsum("nka,na->nk", grads, vecs))) < 1e-12


def test_non_anti_hermitian_element_rejected(sphere):
    action = unitary_action(sphere)
    with pytest.raises(ValueError):
        action.validate_element(np.eye(2))


def test_moment_fields_are_reeb_invariant(sphere, torus2):
    for action in (diagonal_torus_action(sphere), torus_shift_action(torus2)):
        a = action.random_element(np.random.default_rng(3))
        h = moment_field(action, a)
        assert h.reeb_invariant is True
        flag, defect = is_reeb_invariant(h, samples=300)
        assert flag and defect < 1e-9


def test_bundled_actions_generate_strict_flows(sphere):
    assert action_strictness(diagonal_torus_action(sphere)) < 1e-7


def test_polynomial_symmetric_in_arguments(sphere):
    action = diagonal_torus_action(sphere)
    rng = np.random.default_rng(10)
    hams = [moment_field(action, action.random_element(rng)) for _ in range(3)]
    a = invariant_polynomial_I(sphere, hams, budget=1 << 12)
    b = invariant_polynomial_I(sphere, [hams[2], hams[0], hams[1]], budget=1 << 12)
    assert a.value == b.value  # products commute exactly


def test_polynomial_warns_on_noninvariant_argument(sphere):
    h = hamiltonian(sphere, lambda c: c[0], name="x0", reeb_invariant=False)
    with pytest.warns(UserWarning):
        invariant_polynomial_I(sphere, [h, h], budget=1 << 10)


def test_toric_table_matches_combinatorial_coefficients():
    """Pullback powers on the torus: 4 n pi^2 c_l (A^2+B^2)^l, odd powers zero."""
    rng = np.random.default_rng(0)
    for winding in (1, 2):
        m = zoo.torus3(winding)
        action = torus_shift_action(m)
        for _ in range(3):
            a = rng.normal(size=2)
            square = a @ a
            for k in range(1, 7):
                res = pullback_polynomial(action, [a] * k, budget=33 ** 3)
                if k % 2:
                    assert abs(res.value) < 1e-12
                else:
                    l = k // 2
                    expected = 4.0 * winding * math.pi ** 2 * wallis(l) * square ** l
                    assert res.value == pytest.approx(expected, rel=1e-10)


def dirichlet_pair_oracle(n, a, b):
    # E[u_i u_j] over the uniform simplex is (1 + delta_ij)/((n+1)(n+2))
    total = float(np.sum(a) * np.sum(b) + np.dot(a, b))
    return math.pi ** (n + 1) / (4.0 * (n + 1) * (n + 2)) * total


def test_diagonal_pairs_match_dirichlet_integrals(sphere):
    action = diagonal_torus_action(sphere)
    rng = np.random.default_rng(17)
    for _ in range(5):
        a = action.random_element(rng)
        b = action.random_element(rng)
        res = pullback_polynomial(action, [a, b], budget=1 << 16)
        oracle = dirichlet_pair_oracle(1, a, b)
        assert abs(res.value - oracle) <= 3.0 * res.std_error + 1e-12


def test_diagonal_pairs_match_dirichlet_on_s5(sphere5):
    action = diagonal_torus_action(sphere5)
    rng = np.random.default_rng(23)
    a = action.random_element(rng)
    b = action.random_element(rng)
    res = pullback_polynomial(action, [a, b], budget=1 << 16)
    assert abs(res.value - dirichlet_pair_oracle(2, a, b)) <= 3.0 * res.std_error + 1e-12


def complete_homogeneous(lam, k):
    # h_k: the sum of all degree-k monomials in lam
    return math.fsum(math.prod(c) for c in itertools.combinations_with_replacement(lam, k))


def every_k_dirichlet_oracle(n, a, k):
    # the moment of A is <z, (A/i) z> / 2 = sum_j lam_j r_j / 2 in A's eigenbasis,
    # r uniform on the simplex, where E[(sum lam_j r_j)^k] = k! n! / (n+k)! h_k(lam),
    # against the contact volume pi^(n+1)
    lam = np.linalg.eigvalsh(a / 1j)
    return (math.pi ** (n + 1) * math.factorial(k) * math.factorial(n)
            / (math.factorial(n + k) * 2 ** k) * complete_homogeneous(lam, k))


# budgets whose angle grids exceed k: S^3 at 2^16 has 64 and 32 angles, S^5
# at 2^15 has 8 per axis, S^7 at 2^18 has 8 per axis
@pytest.mark.parametrize("n, budget, kmax", [(1, 1 << 16, 6), (2, 1 << 15, 6), (3, 1 << 18, 4)])
def test_every_k_dirichlet_oracle(n, budget, kmax):
    action = unitary_action(zoo.standard_sphere(n))
    rng = np.random.default_rng(41 + n)
    for k in range(1, kmax + 1):
        a = action.random_element(rng)
        res = pullback_polynomial(action, [a] * k, budget=budget)
        oracle = every_k_dirichlet_oracle(n, a, k)
        assert abs(res.value - oracle) <= 1e-13 * abs(oracle), (n, k)
        assert abs(res.value - oracle) <= res.std_error, (n, k)


def test_every_k_oracle_aliased_on_a_coarse_grid_is_caught_by_the_error_bar():
    # S^7 at 2^13 has 4 angles per axis: a product of 4 moments carries
    # e^(4 i phi), which the grid aliases onto the mean
    action = unitary_action(zoo.standard_sphere(3))
    a = action.random_element(np.random.default_rng(44))
    res = pullback_polynomial(action, [a] * 4, budget=1 << 13)
    error = abs(res.value - every_k_dirichlet_oracle(3, a, 4))
    assert error > 1e-6 * abs(res.value)
    assert res.std_error >= error


def test_repeated_factor_is_evaluated_once_per_chunk(monkeypatch):
    # S^5 at 2^15 takes two 2^14-point chunks and a 4^5-node companion chunk;
    # every moment fn call is counted
    chernweil = importlib.import_module("contactkit.chernweil")
    calls = []
    original = chernweil._quadratic_fn

    def counting(gradient_map):
        fn = original(gradient_map)

        def counted(coords):
            calls.append(1)
            return fn(coords)

        return counted

    monkeypatch.setattr(chernweil, "_quadratic_fn", counting)
    action = unitary_action(zoo.standard_sphere(2))
    rng = np.random.default_rng(7)
    a, b = action.random_element(rng), action.random_element(rng)
    chunks = 3
    once = pullback_polynomial(action, [a] * 4, budget=1 << 15)
    assert len(calls) == chunks
    calls.clear()
    copies = pullback_polynomial(action, [a.copy() for _ in range(4)], budget=1 << 15)
    assert len(calls) == 4 * chunks
    assert (once.value, once.std_error) == (copies.value, copies.std_error)
    calls.clear()
    mixed = pullback_polynomial(action, [a, b, a], budget=1 << 15)
    assert len(calls) == 2 * chunks
    calls.clear()
    separate = pullback_polynomial(action, [a, b, a.copy()], budget=1 << 15)
    assert (mixed.value, mixed.std_error) == (separate.value, separate.std_error)


@pytest.mark.parametrize("n, budget", [(1, 1 << 16), (2, 1 << 15)])
def test_unitary_pairs_match_their_closed_form(n, budget):
    # I(iH, iK) = pi^(n+1) (tr H tr K + tr HK) / (4 (n+1)(n+2)) for positive
    # Hermitian H, K, at the workloads' budgets
    action = unitary_action(zoo.standard_sphere(n))
    rng = np.random.default_rng(5 + n)
    for _ in range(3):
        h, k = [(lambda x: x @ x.conj().T)(rng.normal(size=(n + 1, n + 1))
                                           + 1j * rng.normal(size=(n + 1, n + 1)))
                for _ in range(2)]
        total = (np.trace(h) * np.trace(k) + np.trace(h @ k)).real
        oracle = math.pi ** (n + 1) * total / (4.0 * (n + 1) * (n + 2))
        res = pullback_polynomial(action, [1j * h, 1j * k], budget=budget)
        assert abs(res.value - oracle) <= 1e-13 * oracle
        assert abs(res.value - oracle) <= res.std_error <= 1e-13 * res.value


def test_constant_hamiltonians_give_powers_times_volume(sphere):
    vol = math.pi ** 2
    for k in (1, 2, 3, 4):
        for t in (0.0, 1.0, 2.0):
            out = reeb_circle_pullback(sphere, k, t, budget=1 << 13)
            assert out["raw"].value == pytest.approx(t ** k * vol, rel=1e-12, abs=1e-12)
            # period-2 pi normalization doubles the form, so the volume scales by 4
            assert out["scale"] == pytest.approx(2.0)
            assert out["normalized"].value == pytest.approx(t ** k * 4.0 * vol,
                                                            rel=1e-12, abs=1e-12)


def test_circle_pullback_integrates_only_what_it_returns(sphere, monkeypatch):
    # one quadrature pass for the raw form and one for the normalised form
    engine = importlib.import_module("contactkit.integrate")
    passes = []
    original = engine._eval_chunks

    def counted(*args, **kwargs):
        passes.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(engine, "_eval_chunks", counted)
    for k in (0, 2):
        passes.clear()
        out = reeb_circle_pullback(sphere, k, 0.7, budget=1 << 8)
        assert len(passes) == 2, k
        assert out["raw"].value == pytest.approx(0.7 ** k * math.pi ** 2, rel=1e-12)


def test_circle_pullback_without_period_skips_normalization(torus):
    out = reeb_circle_pullback(torus, 2, 1.0, budget=33 ** 3)
    assert out["normalized"] is None and out["scale"] is None
    assert out["raw"].value == pytest.approx((2 * math.pi) ** 3, rel=1e-12)


def test_even_powers_certified_positive(sphere, torus):
    rng = np.random.default_rng(4)
    for action, l in ((unitary_action(sphere), 1), (diagonal_torus_action(sphere), 2),
                      (torus_shift_action(torus), 1)):
        for _ in range(5):
            res = even_positivity_check(action, action.random_element(rng), l,
                                        budget=1 << 13)
            assert res.value - 3.0 * res.std_error > 0.0


def test_identity_generator_positivity_value(sphere):
    action = unitary_action(sphere)
    res = even_positivity_check(action, 1j * np.eye(2), 1, budget=1 << 12)
    # moment is 1/2 everywhere, so the integral is vol/4
    assert res.value == pytest.approx(math.pi ** 2 / 4.0, rel=1e-13)


def test_zero_element_rejected(sphere):
    with pytest.raises(ValueError):
        even_positivity_check(diagonal_torus_action(sphere), np.zeros(2), 1)


def test_polynomial_scales_with_form(sphere):
    # moments scale with s and the volume with s^(n+1)
    action1 = diagonal_torus_action(sphere)
    action2 = diagonal_torus_action(sphere.scaled(2.0))
    a = np.array([1.0, 0.3])
    one = pullback_polynomial(action1, [a, a], budget=1 << 13)
    two = pullback_polynomial(action2, [a, a], budget=1 << 13)
    assert two.value == pytest.approx(2.0 ** 4 * one.value, rel=1e-12)


def test_polynomial_invariant_under_strict_adjoint(sphere):
    """I_1 evaluated on Ad-moved Hamiltonians must not change."""
    generator = moment_field(diagonal_torus_action(sphere), np.array([1.0, 2.0]))
    h = moment_field(unitary_action(sphere),
                     unitary_action(sphere).random_element(np.random.default_rng(6)))
    moved = adjoint(generator, 0.4, h, steps=64)
    base = invariant_polynomial_I(sphere, [h], budget=1 << 11)
    pushed = invariant_polynomial_I(sphere, [moved], budget=1 << 11)
    sigma = math.hypot(base.std_error, pushed.std_error)
    assert abs(pushed.value - base.value) <= 3.0 * sigma + 1e-9
