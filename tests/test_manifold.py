"""Contact manifold structure: frames, defects, Reeb solver, projections."""

import numpy as np
import pytest

from contactkit import zoo
from contactkit.fields import ScalarField
from contactkit.manifold import (ContactDegeneracyError,
                                 hamiltonian_field_with_derivative,
                                 reeb_with_derivative)
from conftest import sample


def test_sphere_defect_is_half(sphere):
    pts = sample(sphere, 200)
    assert np.allclose(sphere.contact_defect(pts), 0.5, atol=1e-12)


def test_sphere5_defect_is_one(sphere5):
    # alpha ^ (d alpha)^n on an oriented orthonormal frame is n!/2
    pts = sample(sphere5, 100)
    assert np.allclose(sphere5.contact_defect(pts), 1.0, atol=1e-12)


def test_torus_defect_equals_winding():
    for k in (1, 2, 3):
        m = zoo.torus3(k)
        pts = sample(m, 100, seed=k)
        assert np.allclose(m.contact_defect(pts), float(k), atol=1e-12)


def test_weighted_and_cotangent_defects_positive(golden, cotangent):
    for m in (golden, cotangent):
        assert np.all(m.contact_defect(sample(m, 100)) > 0.0)


def test_degenerate_form_zero_defect_and_no_reeb():
    m = zoo.degenerate_torus()
    pts = sample(m, 50)
    assert np.allclose(m.contact_defect(pts), 0.0, atol=1e-14)
    with pytest.raises(ContactDegeneracyError):
        m.reeb_field(pts)
    vecs = np.tile([1.0, 0.0, 0.0], (len(pts), 1))
    with pytest.raises(ContactDegeneracyError):
        reeb_with_derivative(m, pts, vecs)
    h = ScalarField(lambda c: np.cos(c[0]) + np.sin(c[2]), 3)
    with pytest.raises(ContactDegeneracyError):
        hamiltonian_field_with_derivative(m, h, pts, vecs)


def test_projection_lands_on_constraints(sphere, golden):
    rng = np.random.default_rng(5)
    for m in (sphere, golden):
        raw = rng.normal(size=(40, m.ambient_dim))
        proj = m.project(raw)
        assert np.max(m.constraint_residual(proj)) < 1e-12


def test_tangent_frame_orthonormal_and_tangent(golden):
    pts = sample(golden, 30)
    frame = golden.tangent_frame(pts)
    gram = np.einsum("nia,nja->nij", frame, frame)
    eye = np.broadcast_to(np.eye(golden.dim), gram.shape)
    assert np.allclose(gram, eye, atol=1e-12)
    grads = golden.constraint_gradients(pts)
    assert np.max(np.abs(np.einsum("nka,nia->nki", grads, frame))) < 1e-11


def test_reeb_residuals_small_everywhere(sphere, torus2, golden, cotangent):
    for m in (sphere, torus2, golden, cotangent):
        res = m.reeb_residuals(sample(m, 100))
        worst = max(np.max(res["alpha"]), np.max(res["pairing"]), np.max(res["tangency"]))
        assert worst < 1e-10, m.name


def test_reeb_matches_sphere_closed_form(sphere):
    pts = sample(sphere, 150)
    assert np.max(np.abs(sphere.reeb_field(pts) - zoo.sphere_reeb_closed_form(sphere, pts))) < 1e-10


def test_reeb_matches_torus_closed_form():
    for k in (1, 3):
        m = zoo.torus3(k)
        pts = sample(m, 150, seed=k)
        assert np.max(np.abs(m.reeb_field(pts) - zoo.torus_reeb_closed_form(m, pts))) < 1e-10


def test_reeb_matches_weighted_closed_form(golden):
    pts = sample(golden, 150)
    assert np.max(np.abs(golden.reeb_field(pts) - zoo.weighted_reeb_closed_form(golden, pts))) < 1e-10


def test_scaled_form_rescales_reeb_and_defect(sphere):
    s = 2.0
    scaled = sphere.scaled(s)
    pts = sample(sphere, 50)
    assert np.allclose(scaled.reeb_field(pts), sphere.reeb_field(pts) / s, atol=1e-11)
    # alpha ^ (d alpha)^n picks up s^(n+1)
    assert np.allclose(scaled.contact_defect(pts), s ** 2 * sphere.contact_defect(pts), atol=1e-11)
    assert scaled.reeb_period == pytest.approx(s * sphere.reeb_period)
    with pytest.raises(ValueError):
        sphere.scaled(-1.0)


def test_reeb_derivative_matches_finite_difference(golden):
    pts = sample(golden, 20)
    rng = np.random.default_rng(11)
    vecs = golden.random_tangents(pts, rng)
    _, dual = reeb_with_derivative(golden, pts, vecs)
    h = 1e-6
    plus = golden.reeb_field(golden.project(pts + h * vecs))
    minus = golden.reeb_field(golden.project(pts - h * vecs))
    fd = (plus - minus) / (2 * h)
    assert np.max(np.abs(dual - fd)) < 1e-5


def test_hamiltonian_field_derivative_value_agrees_with_frame_solver(sphere):
    from contactkit.hamiltonian import hamiltonian, hamiltonian_to_field
    h = hamiltonian(sphere, lambda c: c[0] * c[0] - c[1] * c[3], name="test")
    pts = sample(sphere, 25)
    vecs = sphere.random_tangents(pts, np.random.default_rng(3))
    val, _ = hamiltonian_field_with_derivative(sphere, h.field, pts, vecs)
    assert np.max(np.abs(val - hamiltonian_to_field(h, pts))) < 1e-12


def test_hamiltonian_field_derivative_matches_finite_difference(golden):
    from contactkit.hamiltonian import hamiltonian, hamiltonian_to_field
    h = hamiltonian(golden, lambda c: c[0] * c[1] - 0.5 * c[2] * c[2] + c[3], name="test")
    pts = sample(golden, 20)
    vecs = golden.random_tangents(pts, np.random.default_rng(13))
    _, dual = hamiltonian_field_with_derivative(golden, h.field, pts, vecs)
    step = 1e-6
    plus = hamiltonian_to_field(h, golden.project(pts + step * vecs))
    minus = hamiltonian_to_field(h, golden.project(pts - step * vecs))
    fd = (plus - minus) / (2 * step)
    assert np.max(np.abs(dual - fd)) < 1e-5


def test_each_call_builds_its_contact_system_once(golden, monkeypatch):
    from contactkit import manifold
    from contactkit.hamiltonian import (bracket, bracket_hamiltonian, hamiltonian,
                                        hamiltonian_to_field)
    counts = {"frame": 0, "ambient": 0}
    tangent_frame, ambient_data = manifold.ContactManifold.tangent_frame, manifold._ambient_data

    def counted_frame(self, pts):
        counts["frame"] += 1
        return tangent_frame(self, pts)

    def counted_ambient(*args):
        counts["ambient"] += 1
        return ambient_data(*args)

    monkeypatch.setattr(manifold.ContactManifold, "tangent_frame", counted_frame)
    monkeypatch.setattr(manifold, "_ambient_data", counted_ambient)
    h1 = hamiltonian(golden, lambda c: c[0] * c[1], name="h1")
    h2 = hamiltonian(golden, lambda c: c[2] - c[3] * c[0], name="h2")
    pts = sample(golden, 5)
    vecs = golden.random_tangents(pts, np.random.default_rng(2))

    def builds(call):
        counts.update(frame=0, ambient=0)
        call()
        return counts["frame"], counts["ambient"]

    assert builds(lambda: hamiltonian_to_field(h1, pts)) == (1, 0)
    assert builds(lambda: bracket(h1, h2, pts)) == (1, 0)
    assert builds(lambda: golden.reeb_residuals(pts)) == (1, 0)
    assert builds(lambda: reeb_with_derivative(golden, pts, vecs)) == (0, 1)
    assert builds(lambda: hamiltonian_field_with_derivative(golden, h1.field, pts, vecs)) == (0, 1)
    nested = bracket_hamiltonian(h1, h2)
    assert builds(lambda: nested.field.directional(pts, vecs)) == (0, 1)


def test_wrap_is_periodic_identity_on_torus(torus):
    pts = sample(torus, 30)
    shifted = pts + 2.0 * np.pi * np.array([1.0, -2.0, 3.0])
    assert np.allclose(torus.wrap(shifted), pts, atol=1e-12)


def test_key_distinguishes_parameters():
    assert zoo.torus3(1).key() != zoo.torus3(2).key()
    assert zoo.standard_sphere(1).key() != zoo.standard_sphere(1).scaled(2.0).key()


def test_cotangent_bump_key_records_the_strength():
    bump = zoo.catalog()["cotangent-bump"]
    assert bump(0.1).key() != bump(0.3).key()
    assert bump(0.1).key() == bump(0.1).key()
    assert "strength=0.3" in bump(0.3).key()


def test_each_derivative_is_one_pass(golden):
    from dataclasses import replace

    from contactkit.fields import OneForm
    counts = {"form": 0, "constraint": 0}
    coef_fn, level = golden.form.coef_fn, golden.constraints[0]

    def counted_form(coords):
        counts["form"] += 1
        return coef_fn(coords)

    def counted_level(coords):
        counts["constraint"] += 1
        return level.fn(coords)

    m = replace(golden, form=OneForm(counted_form, golden.ambient_dim),
                constraints=(ScalarField(counted_level, golden.ambient_dim),))
    pts = sample(golden, 6)
    vecs = golden.random_tangents(pts, np.random.default_rng(8))

    def passes(call):
        counts.update(form=0, constraint=0)
        call()
        return counts["form"], counts["constraint"]

    for call in (lambda: m.reeb_field(pts), lambda: m.contact_defect(pts),
                 lambda: reeb_with_derivative(m, pts, vecs)):
        form, constraint = passes(call)
        assert form <= 2 and constraint <= 1
    form, constraint = passes(lambda: m.reeb_residuals(pts))
    assert form <= 4 and constraint <= 2
    assert np.array_equal(m.reeb_field(pts), golden.reeb_field(pts))
