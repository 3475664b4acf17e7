"""Contact Hamiltonians: field correspondence, brackets, Jacobi, adjoint."""

import numpy as np
import pytest

from contactkit import hamiltonian as hamiltonian_module
from contactkit import zoo
from contactkit.fields import VectorField
from contactkit.hamiltonian import (NestedDualError, adjoint, bracket,
                                    bracket_hamiltonian, constant_hamiltonian,
                                    field_to_hamiltonian, hamiltonian,
                                    hamiltonian_to_field, is_reeb_invariant)
from contactkit.manifold import GeometryError, hamiltonian_field_with_derivative
from conftest import sample


def torus_trig(m, a, b, c):
    return hamiltonian(m, lambda q: a * np.cos(q[0]) + b * np.sin(q[1]) + c * np.cos(q[2]),
                       name=f"trig({a},{b},{c})")


def sphere_quadratic(m, mat):
    mat = np.asarray(mat)

    def fn(coords):
        out = 0.0 * coords[0]
        for i in range(len(coords)):
            for j in range(len(coords)):
                if mat[i, j] != 0.0:
                    out = out + mat[i, j] * coords[i] * coords[j]
        return out

    return hamiltonian(m, fn, name="quad")


def test_constant_hamiltonian_field_is_scaled_reeb(sphere, torus):
    for m in (sphere, torus):
        pts = sample(m, 40)
        x1 = hamiltonian_to_field(constant_hamiltonian(m, 1.0), pts)
        assert np.max(np.abs(x1 - m.reeb_field(pts))) < 1e-11
        x3 = hamiltonian_to_field(constant_hamiltonian(m, 3.0), pts)
        assert np.max(np.abs(x3 - 3.0 * m.reeb_field(pts))) < 1e-10


def test_roundtrip_hamiltonian_to_field_to_hamiltonian(sphere):
    h = sphere_quadratic(sphere, np.diag([1.0, 1.0, -2.0, 0.5]))
    pts = sample(sphere, 60)
    x = hamiltonian_to_field(h, pts)
    back = sphere.form(pts, x)
    assert np.max(np.abs(back - h.values(pts))) < 1e-10


def test_roundtrip_field_to_hamiltonian_to_field(torus):
    # a contact field: the Reeb field itself, recovered from its Hamiltonian
    reeb = VectorField(lambda c: [np.cos(c[2]), -np.sin(c[2]), 0.0 * c[0]], 3)
    h = field_to_hamiltonian(torus, reeb)
    pts = sample(torus, 50)
    assert np.max(np.abs(hamiltonian_to_field(h, pts) - reeb(pts))) < 1e-10


def test_bracket_matches_lie_bracket_oracle(torus):
    """[H1, H2] must equal -alpha([X1, X2]) for the associated fields.

    The fields are extended off the manifold through the projection, so
    a central-difference Lie bracket of the extensions is a valid oracle.
    """
    h1 = torus_trig(torus, 1.0, 0.0, 2.0)
    h2 = torus_trig(torus, 0.0, -1.5, 1.0)
    pts = sample(torus, 30)

    def field_at(h, q):
        return hamiltonian_to_field(h, torus.project(q))

    def derivative_along(h, direction, eps=1e-6):
        return (field_at(h, pts + eps * direction)
                - field_at(h, pts - eps * direction)) / (2 * eps)

    x1 = field_at(h1, pts)
    x2 = field_at(h2, pts)
    lie = derivative_along(h2, x1) - derivative_along(h1, x2)
    oracle = -torus.form(pts, lie)
    assert np.max(np.abs(bracket(h1, h2, pts) - oracle)) < 1e-7


def test_bracket_antisymmetric_and_bilinear(sphere):
    h1 = sphere_quadratic(sphere, np.diag([1.0, 1.0, 0.0, 0.0]))
    h2 = sphere_quadratic(sphere, np.diag([0.0, 0.0, 1.0, 1.0]))
    h3 = sphere_quadratic(sphere, np.array([[0.0, 0.0, 1.0, 0.0],
                                            [0.0, 0.0, 0.0, 1.0],
                                            [1.0, 0.0, 0.0, 0.0],
                                            [0.0, 1.0, 0.0, 0.0]]) * 0.5)
    pts = sample(sphere, 40)
    assert np.max(np.abs(bracket(h1, h2, pts) + bracket(h2, h1, pts))) < 1e-12
    combo = hamiltonian(sphere, lambda c: h1.field.raw(c) + 2.0 * h3.field.raw(c))
    left = bracket(combo, h2, pts)
    right = bracket(h1, h2, pts) + 2.0 * bracket(h3, h2, pts)
    assert np.max(np.abs(left - right)) < 1e-11


def test_bracket_with_constant_is_reeb_derivative(torus):
    # [H, c] = c * dH(R) picks out the Reeb derivative
    h = torus_trig(torus, 0.7, -0.4, 1.2)
    c = constant_hamiltonian(torus, 2.0)
    pts = sample(torus, 40)
    reeb_dh = h.field.directional(pts, torus.reeb_field(pts))
    assert np.max(np.abs(bracket(h, c, pts) - 2.0 * reeb_dh)) < 1e-11


def test_jacobi_identity(sphere, torus):
    for m, triple in (
        (torus, (torus_trig(torus, 1.0, 0.3, 0.0), torus_trig(torus, 0.0, 1.0, -0.5),
                 torus_trig(torus, -0.2, 0.0, 1.0))),
        (sphere, (sphere_quadratic(sphere, np.diag([1.0, 1.0, 0.0, 0.0])),
                  sphere_quadratic(sphere, np.diag([0.0, 1.0, 1.0, 0.0])),
                  sphere_quadratic(sphere, np.diag([0.5, 0.0, 0.0, -1.0])))),
    ):
        h1, h2, h3 = triple
        pts = sample(m, 15)
        total = (bracket(bracket_hamiltonian(h1, h2), h3, pts)
                 + bracket(bracket_hamiltonian(h2, h3), h1, pts)
                 + bracket(bracket_hamiltonian(h3, h1), h2, pts))
        assert np.max(np.abs(total)) < 1e-10, m.name


def test_bracket_hamiltonian_gradient_matches_finite_difference(torus):
    h1 = torus_trig(torus, 1.0, -0.8, 0.4)
    h2 = torus_trig(torus, 0.2, 1.0, -1.0)
    hb = bracket_hamiltonian(h1, h2)
    pts = sample(torus, 10)
    vecs = torus.random_tangents(pts, np.random.default_rng(2))
    d = hb.field.directional(pts, vecs)
    eps = 1e-6
    fd = (hb.values(pts + eps * vecs) - hb.values(pts - eps * vecs)) / (2 * eps)
    assert np.max(np.abs(d - fd)) < 1e-6


def test_reeb_invariance_detection(sphere, torus):
    flag, defect = is_reeb_invariant(sphere_quadratic(sphere, np.eye(4)))
    assert flag and defect < 1e-10
    # cos(x) moves under the torus Reeb flow
    flag, defect = is_reeb_invariant(torus_trig(torus, 1.0, 0.0, 0.0))
    assert not flag and defect > 1e-2
    # cos(t) is invariant: the Reeb flow fixes the t coordinate
    flag, _ = is_reeb_invariant(torus_trig(torus, 0.0, 0.0, 1.0))
    assert flag


def test_adjoint_of_invariant_hamiltonian_under_reeb_flow(torus):
    # the Reeb flow fixes t and lambda = 1, so moments in t are preserved
    h = torus_trig(torus, 0.0, 0.0, 1.3)
    moved = adjoint(constant_hamiltonian(torus, 1.0), 0.7, h, steps=64)
    pts = sample(torus, 30)
    assert np.max(np.abs(moved.values(pts) - h.values(pts))) < 1e-9


def test_adjoint_transports_noninvariant_hamiltonian(torus):
    # cos(x) pulled back along the backward Reeb flow: x -> x - s cos(t)
    h = torus_trig(torus, 1.0, 0.0, 0.0)
    s = 0.5
    moved = adjoint(constant_hamiltonian(torus, 1.0), s, h, steps=128)
    pts = sample(torus, 30)
    expected = np.cos(pts[:, 0] - s * np.cos(pts[:, 2]))
    assert np.max(np.abs(moved.values(pts) - expected)) < 1e-8


def test_tagged_resolves_invariance_flag():
    m = zoo.standard_sphere(1)
    h = hamiltonian(m, lambda c: c[0] * c[0] + c[1] * c[1])
    assert h.reeb_invariant is None
    assert h.tagged().reeb_invariant is True
    g = hamiltonian(m, lambda c: c[0])
    assert g.tagged().reeb_invariant is False


def _golden():
    return zoo.weighted_sphere([1.0, (1.0 + np.sqrt(5.0)) / 2.0])


def test_field_solve_residual_above_tol_raises(monkeypatch):
    # no solve in floating point meets a tolerance below its rounding level
    m = _golden()
    h1 = hamiltonian(m, lambda c: c[0] * c[1] + c[3])
    h2 = hamiltonian(m, lambda c: c[2] - c[3] * c[0])
    pts = sample(m, 20)
    hamiltonian_to_field(h1, pts)
    bracket(h1, h2, pts)
    with pytest.raises(GeometryError, match="residual"):
        hamiltonian_to_field(h1, pts, tol=1e-20)
    monkeypatch.setattr(hamiltonian_module, "FIELD_SOLVE_TOL", 1e-20)
    with pytest.raises(GeometryError, match="residual"):
        bracket(h1, h2, pts)


def test_dual_bracket_evaluates_each_hamiltonian_at_most_twice(torus):
    for m, fns in (
        (_golden(), (lambda c: c[0] * c[1] + c[3], lambda c: c[2] - c[3] * c[0])),
        (torus, (lambda c: np.cos(c[0]) + np.sin(c[2]), lambda c: np.sin(c[1]) * np.cos(c[2]))),
    ):
        counts = [0, 0]

        def counted(i):
            def fn(coords):
                counts[i] += 1
                return fns[i](coords)
            return fn

        nested = bracket_hamiltonian(hamiltonian(m, counted(0)), hamiltonian(m, counted(1)))
        pts = sample(m, 5)
        vecs = m.random_tangents(pts, np.random.default_rng(3))
        nested.field.directional(pts, vecs)
        assert counts[0] <= 2 and counts[1] <= 2, (m.name, counts)


def test_nested_brackets_stay_antisymmetric(torus):
    # bracket(nested, h3) seeds the nested bracket with every frame vector
    # at once; bracket(h3, nested) seeds it once along X3
    golden = _golden()
    for m, (h1, h2, h3) in (
        (golden, (hamiltonian(golden, lambda c: c[0] * c[1] + c[3]),
                  hamiltonian(golden, lambda c: c[2] - c[3] * c[0]),
                  hamiltonian(golden, lambda c: c[1] * c[1] - 0.5 * c[2]))),
        (torus, (torus_trig(torus, 1.0, 0.3, 0.0), torus_trig(torus, 0.0, 1.0, -0.5),
                 hamiltonian(torus, lambda c: c[0] * c[1] * c[1] + c[2]))),
    ):
        pts = sample(m, 12)
        nested = bracket_hamiltonian(h1, h2)
        left = bracket(nested, h3, pts)
        right = bracket(h3, nested, pts)
        assert np.max(np.abs(left + right)) <= 1e-12 * np.max(np.abs(left)), m.name


def test_second_dual_layer_through_a_bracket_raises():
    # the contact field derivative of a bracket seeds it twice; so does a
    # dual evaluation of a doubly nested bracket
    m = _golden()
    h1 = hamiltonian(m, lambda c: c[0] * c[1] + c[3])
    h2 = hamiltonian(m, lambda c: c[2] - c[3] * c[0])
    h3 = hamiltonian(m, lambda c: c[1] * c[1] - 0.5 * c[2])
    pts = sample(m, 6)
    vecs = m.random_tangents(pts, np.random.default_rng(17))
    nested = bracket_hamiltonian(h1, h2)
    with pytest.raises(NestedDualError):
        hamiltonian_field_with_derivative(m, nested.field, pts, vecs)
    with pytest.raises(NestedDualError):
        bracket_hamiltonian(h3, nested).field.directional(pts, vecs)
    # one layer stays supported
    assert np.all(np.isfinite(nested.field.directional(pts, vecs)))


def test_calling_a_hamiltonian_evaluates_its_function(sphere):
    h = hamiltonian(sphere, lambda c: c[0] * c[1] - 2.0 * c[3] + 0.5, name="poly")
    pts = sample(sphere, 12)
    expected = pts[:, 0] * pts[:, 1] - 2.0 * pts[:, 3] + 0.5
    assert np.array_equal(h(pts), expected)
    one = h(pts[5])
    assert isinstance(one, float) and one == expected[5]
    assert np.array_equal(h.values(pts), expected)
