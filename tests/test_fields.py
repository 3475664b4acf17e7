"""Scalar fields, one-forms, exterior derivatives, and Lie brackets."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contactkit import zoo
from contactkit.dual import Dual
from contactkit.fields import (OneForm, ScalarField, VectorField,
                               constant_field, lie_bracket, split_point)
from conftest import sample

rng = np.random.default_rng(42)


def quadratic():
    return ScalarField(lambda c: c[0] * c[0] + 2.0 * c[0] * c[1] - c[2], 3, name="q")


def test_scalar_field_evaluation_shapes():
    f = quadratic()
    pts = rng.normal(size=(5, 3))
    vals = f(pts)
    assert vals.shape == (5,)
    one = f(pts[0])
    assert np.isscalar(one) or np.ndim(one) == 0
    assert one == pytest.approx(vals[0])


def test_gradient_matches_hand_derivative():
    f = quadratic()
    pts = rng.normal(size=(4, 3))
    g = f.gradient(pts)
    expected = np.column_stack([2 * pts[:, 0] + 2 * pts[:, 1],
                                2 * pts[:, 0], -np.ones(4)])
    assert np.allclose(g, expected, atol=1e-14)


def test_directional_contracts_gradient():
    f = quadratic()
    pts = rng.normal(size=(6, 3))
    vecs = rng.normal(size=(6, 3))
    d = f.directional(pts, vecs)
    assert np.allclose(d, np.einsum("na,na->n", f.gradient(pts), vecs), atol=1e-13)


def test_field_algebra():
    f = quadratic()
    g = constant_field(3.0, 3)
    pts = rng.normal(size=(5, 3))
    assert np.allclose((f + g)(pts), f(pts) + 3.0)
    assert np.allclose((f * f)(pts), f(pts) ** 2)
    assert np.allclose((-f)(pts), -f(pts))
    assert np.allclose((f - g)(pts), f(pts) - 3.0)


def test_exterior_derivative_of_function_is_gradient_form():
    f = quadratic()
    df = f.d()
    pts = rng.normal(size=(5, 3))
    vecs = rng.normal(size=(5, 3))
    assert np.allclose(df(pts, vecs), f.directional(pts, vecs), atol=1e-13)


def test_two_form_antisymmetric_and_bilinear():
    # alpha = x dy on R^3
    alpha = OneForm(lambda c: [0.0 * c[0], c[0], 0.0 * c[0]], 3)
    pts = rng.normal(size=(7, 3))
    u = rng.normal(size=(7, 3))
    w = rng.normal(size=(7, 3))
    duw = alpha.two_form(pts, u, w)
    assert np.allclose(duw, -alpha.two_form(pts, w, u), atol=1e-14)
    # d(x dy) = dx ^ dy
    expected = u[:, 0] * w[:, 1] - u[:, 1] * w[:, 0]
    assert np.allclose(duw, expected, atol=1e-12)
    two = alpha.two_form(pts, 2.5 * u, w)
    assert np.allclose(two, 2.5 * duw, atol=1e-12)


def test_exact_form_is_closed():
    f = quadratic()
    df = f.d()
    pts = rng.normal(size=(6, 3))
    u = rng.normal(size=(6, 3))
    w = rng.normal(size=(6, 3))
    assert np.allclose(df.two_form(pts, u, w), 0.0, atol=1e-12)


def test_dmatrix_collects_pairwise_two_form():
    alpha = OneForm(lambda c: [np.cos(c[2]), -np.sin(c[2]), 0.0 * c[0]], 3)
    pts = rng.normal(size=(3, 3))
    frame = rng.normal(size=(3, 3, 3))
    mat = alpha.dmatrix(pts, frame)
    for i in range(3):
        for j in range(3):
            pair = alpha.two_form(pts, frame[:, i, :], frame[:, j, :])
            assert np.allclose(mat[:, i, j], pair, atol=1e-13)
    assert np.allclose(mat, -np.swapaxes(mat, 1, 2), atol=1e-14)


def test_dmatrix_at_a_point_is_its_row_in_a_batch(sphere, golden, cotangent):
    for m in (sphere, golden, cotangent):
        pts = sample(m, 5, seed=2)
        mat = m.form.dmatrix(pts, m.tangent_frame(pts))
        assert mat.shape == (5, m.dim, m.dim)
        for i in range(len(pts)):
            alone = m.form.dmatrix(pts[i], m.tangent_frame(pts[i]))
            assert alone.shape == (m.dim, m.dim) and np.array_equal(alone, mat[i]), m.name


def test_dmatrix_is_indifferent_to_frame_layout(sphere, golden, cotangent):
    for m in (sphere, golden, cotangent, zoo.standard_sphere(3)):
        pts = sample(m, 9, seed=5)
        frame = m.tangent_frame(pts)
        # a transposed view of contiguous planes, a C-ordered copy, and a
        # frame stacked from C-ordered vectors as two_form builds one
        stacked = np.stack(list(np.ascontiguousarray(frame.swapaxes(0, 1))), axis=1)
        assert not frame.flags.c_contiguous and stacked.flags.c_contiguous
        mat = m.form.dmatrix(pts, frame)
        for other in (np.ascontiguousarray(frame), stacked):
            assert np.array_equal(m.form.dmatrix(pts, other), mat), m.name


def test_form_scaling():
    alpha = OneForm(lambda c: [c[1], -c[0], 0.0 * c[0] + 1.0], 3)
    pts = rng.normal(size=(4, 3))
    vecs = rng.normal(size=(4, 3))
    assert np.allclose((alpha * 2.0)(pts, vecs), 2.0 * alpha(pts, vecs), atol=1e-14)


def test_lie_bracket_of_linear_fields_is_commutator():
    a = rng.normal(size=(3, 3))
    b = rng.normal(size=(3, 3))
    x = VectorField(lambda c: [sum(a[i][j] * c[j] for j in range(3)) for i in range(3)], 3)
    y = VectorField(lambda c: [sum(b[i][j] * c[j] for j in range(3)) for i in range(3)], 3)
    pts = rng.normal(size=(5, 3))
    comm = b @ a - a @ b  # [X, Y] for X = Ax, Y = Bx flows to (BA - AB) x
    assert np.allclose(lie_bracket(x, y)(pts), pts @ comm.T, atol=1e-12)


def test_lie_bracket_antisymmetric():
    x = VectorField(lambda c: [np.sin(c[1]), c[0] * c[2], 1.0 + 0.0 * c[0]], 3)
    y = VectorField(lambda c: [c[2] * c[2], np.cos(c[0]), c[1]], 3)
    pts = rng.normal(size=(5, 3))
    assert np.allclose(lie_bracket(x, y)(pts), -lie_bracket(y, x)(pts), atol=1e-12)


def test_split_point_roundtrip():
    pts = rng.normal(size=(4, 5))
    coords, scalar = split_point(pts)
    assert len(coords) == 5 and not scalar
    assert np.allclose(np.column_stack(coords), pts)
    _, scalar = split_point(pts[0])
    assert scalar


@settings(max_examples=25)
@given(s=st.floats(min_value=-5, max_value=5, allow_nan=False))
def test_constant_field_everywhere(s):
    f = constant_field(s, 3)
    pts = np.zeros((3, 3))
    assert np.allclose(f(pts), s)
    assert np.allclose(f.gradient(pts), 0.0)


def _zoo_manifolds():
    return [zoo.standard_sphere(1), zoo.standard_sphere(2), zoo.standard_sphere(3),
            zoo.torus3(2), zoo.weighted_sphere([1.0, (1.0 + np.sqrt(5.0)) / 2.0]),
            zoo.unit_cotangent_sphere(), zoo.catalog()["cotangent-bump"](0.3),
            zoo.degenerate_torus()]


def test_vector_seeded_pass_equals_single_direction_passes():
    # one pass carrying every seed gives the same bits as one pass per seed
    for m in _zoo_manifolds():
        pts = m.random_points(12, np.random.default_rng(4))
        d = m.ambient_dim
        fields = list(m.constraints) + [
            ScalarField(lambda c: np.sin(c[0]) * c[1] - c[d - 1] * c[0] / (2.0 + c[1] * c[1]), d)]
        for f in fields:
            grad = f.gradient(pts)
            for a in range(d):
                unit = np.zeros((len(pts), d))
                unit[:, a] = 1.0
                assert np.array_equal(grad[:, a], f.directional(pts, unit)), m.name
        frame = m.tangent_frame(pts)
        mat = m.form.dmatrix(pts, frame)
        for i in range(m.dim):
            for j in range(m.dim):
                pair = m.form.two_form(pts, frame[:, i], frame[:, j])
                assert np.array_equal(mat[:, i, j], pair), m.name


def test_directional_takes_a_direction_axis():
    f = quadratic()
    pts = rng.normal(size=(5, 3))
    vecs = rng.normal(size=(4, 5, 3))
    many = f.directional(pts, vecs)
    assert many.shape == (4, 5)
    for i in range(4):
        assert np.array_equal(many[i], f.directional(pts, vecs[i]))
    one = f.directional(pts[0], vecs[:, 0])
    assert one.shape == (4,) and np.array_equal(one, many[:, 0])


ComplexWarning = getattr(np, "exceptions", np).ComplexWarning


def complex_form_and_field():
    return (OneForm(lambda c: [1j * c[0], c[1], c[2]], 3),
            ScalarField(lambda c: 1j * c[0] + c[1], 3))


@pytest.mark.parametrize("mode", ["default", "error"])
def test_a_complex_number_or_a_dual_is_a_type_error(mode):
    form, scalar = complex_form_and_field()
    dual_entries = lambda c: [Dual(c[0], 1.0), c[1], c[2]]
    pts = rng.normal(size=(4, 3))
    with warnings.catch_warnings():
        warnings.simplefilter(mode)
        for call in (lambda: form.coefficients(pts[0]), lambda: scalar(pts[0]),
                     lambda: OneForm(dual_entries, 3).coefficients(pts),
                     lambda: VectorField(dual_entries, 3)(pts[0])):
            with pytest.raises(TypeError):
                call()


def test_a_complex_array_is_a_type_error():
    # on a batch the coefficients are complex arrays, which np.asarray would
    # cast to their real part with only a ComplexWarning
    form, scalar = complex_form_and_field()
    pts = rng.normal(size=(4, 3))
    frame = np.broadcast_to(np.eye(3), (4, 3, 3))
    with warnings.catch_warnings():
        warnings.simplefilter("error", ComplexWarning)
        for call in (lambda: form.coefficients(pts), lambda: form.dmatrix(pts, frame),
                     lambda: scalar(pts), lambda: scalar(pts[:1]),
                     lambda: scalar.gradient(pts)):
            with pytest.raises(TypeError, match="complex"):
                call()


def test_a_numpy_complex_scalar_is_a_type_error():
    form = OneForm(lambda c: [np.complex128(1.0), c[1], c[2]], 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error", ComplexWarning)
        for pts in (rng.normal(size=3), rng.normal(size=(2, 3))):
            with pytest.raises(TypeError, match="complex"):
                form.coefficients(pts)


def test_scalar_field_raw_and_vector_field_raw_take_coordinate_lists():
    f = quadratic()
    x = VectorField(lambda c: [c[1], -c[0], 0.0 * c[2]], 3)
    assert f.raw([1.0, 2.0, 3.0]) == 1.0 + 4.0 - 3.0
    assert x.raw([1.0, 2.0, 3.0]) == [2.0, -1.0, 0.0]
    pts = rng.normal(size=(6, 3))
    assert np.array_equal(np.column_stack(x.raw(list(pts.T))), x(pts))
    # Duals pass through raw unchanged: the derivative along e_0 of (y, -x, 0)
    dual = x.raw([Dual(1.0, 1.0), Dual(2.0, 0.0), Dual(3.0, 0.0)])
    assert [c.eps for c in dual] == [0.0, -1.0, 0.0]
