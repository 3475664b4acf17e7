"""Contact manifold structure: frames, defects, Reeb solver, projections."""

import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest

from contactkit import zoo
from contactkit.chernweil import (diagonal_torus_action, moment, moment_field, torus_shift_action,
                                  unitary_action)
from contactkit.dual import Dual, epsilon, seed
from contactkit.fields import OneForm, ScalarField
from contactkit.manifold import (ContactDegeneracyError, ContactManifold, DegenerateFrameError,
                                 GeometryError, ProjectionError, _ambient_data, _matchings,
                                 _normal_part, _pfaffian, hamiltonian_field_with_derivative,
                                 reeb_with_derivative)
from contactkit.hamiltonian import field_to_hamiltonian, hamiltonian, hamiltonian_to_field
from conftest import counting_constraints, sample


def test_sphere_defect_is_half(sphere):
    pts = sample(sphere, 200)
    assert np.allclose(sphere.contact_defect(pts), 0.5, atol=1e-12)


def test_sphere5_defect_is_one(sphere5):
    # alpha ^ (d alpha)^n on an oriented orthonormal frame is n!/2
    pts = sample(sphere5, 100)
    assert np.allclose(sphere5.contact_defect(pts), 1.0, atol=1e-12)


def test_sphere7_defect_is_three():
    sphere7 = zoo.standard_sphere(3)
    pts = sample(sphere7, 100)
    assert np.allclose(sphere7.contact_defect(pts), 3.0, atol=1e-12)


def test_torus_defect_equals_winding():
    for k in (1, 2, 3):
        m = zoo.torus3(k)
        pts = sample(m, 100, seed=k)
        assert np.allclose(m.contact_defect(pts), float(k), atol=1e-12)
    # points of another dimension on a free chart
    for call in (m.contact_defect, m.tangent_frame):
        with pytest.raises(GeometryError, match="free chart dimension mismatch"):
            call(np.zeros((2, 4)))


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


def test_alpha_null_kernel_is_a_contact_degeneracy():
    # sin(y) dx on T^3: d alpha = cos(y) dy ^ dx has the kernel d/dt, on
    # which alpha vanishes, so alpha ^ d alpha = 0 although d alpha has rank 2
    form = OneForm(lambda c: [np.sin(c[1]), 0.0 * c[0], 0.0 * c[0]], 3, name="sin(y) dx")
    m = ContactManifold(name="alpha-null-torus", n=1, ambient_dim=3, form=form,
                        periodic=True, period=2.0 * math.pi)
    pts = np.random.default_rng(4).uniform(0.0, m.period, size=(20, 3))
    vecs = np.tile([0.0, 0.0, 1.0], (len(pts), 1))
    h = hamiltonian(m, lambda c: np.cos(c[0]) + c[2], name="h")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.max(np.abs(m.contact_defect(pts))) < 1e-14
        for call in (lambda: m.reeb_field(pts), lambda: hamiltonian_to_field(h, pts),
                     lambda: reeb_with_derivative(m, pts, vecs)):
            with pytest.raises(ContactDegeneracyError):
                call()


def test_degeneracy_threshold_on_a_flat_chart():
    # dt + s x dy on R^3 has contact density s and Reeb field d/dt; the
    # ambient system reads as singular from s <= 1e-8 on and solves from s >= 1e-7
    rng = np.random.default_rng(6)
    pts = rng.uniform(-2.0, 2.0, size=(40, 3))
    vecs = rng.normal(size=pts.shape)
    for s in (1e-12, 1e-9, 1e-8, 1e-7, 1e-6, 1.0):
        form = OneForm(lambda c, s=s: [0.0 * c[0], s * c[0], 1.0 + 0.0 * c[0]], 3,
                       name=f"dt + {s} x dy")
        m = ContactManifold(name="flat-chart", n=1, ambient_dim=3, form=form,
                            params={"s": s})
        h = hamiltonian(m, lambda c: np.cos(c[0]) + c[1] * c[2], name="h")
        calls = (lambda: m.reeb_field(pts), lambda: reeb_with_derivative(m, pts, vecs),
                 lambda: hamiltonian_to_field(h, pts),
                 lambda: hamiltonian_field_with_derivative(m, h.field, pts, vecs))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if s <= 1e-8:
                for call in calls:
                    with pytest.raises(ContactDegeneracyError):
                        call()
                continue
            for call in calls[1:]:
                call()
            # rounding grows like the condition number, about 1/s
            assert np.max(np.abs(m.reeb_field(pts) - [0.0, 0.0, 1.0])) <= 1e-15 / s, s


def test_projection_lands_on_constraints(sphere, golden):
    rng = np.random.default_rng(5)
    for m in (sphere, golden):
        raw = rng.normal(size=(40, m.ambient_dim))
        proj = m.project(raw)
        assert np.max(m.constraint_residual(proj)) < 1e-12


def test_projection_stall_raises_and_projected_points_stay(sphere):
    far = 10.0 * np.random.default_rng(1).normal(size=(5, 4))
    with pytest.raises(ProjectionError, match="projection stalled at residual"):
        sphere.project(far, max_iter=1)
    # the one allowed update converges: its residual is tested before raising
    near = sphere.project([1.0 + 1e-9, 0.0, 0.0, 0.0], max_iter=1)
    assert sphere.constraint_residual(near) <= 1e-13
    counted, calls = counting_constraints(sphere)
    pts = counted.project(far)
    calls.clear()
    again = counted.project(pts)
    assert np.array_equal(again, pts)
    # values and gradients both come from the gradient map
    assert len(calls) == 0


def test_tangent_frame_orthonormal_and_tangent(golden):
    pts = sample(golden, 30)
    frame = golden.tangent_frame(pts)
    gram = np.einsum("nia,nja->nij", frame, frame)
    eye = np.broadcast_to(np.eye(golden.dim), gram.shape)
    assert np.allclose(gram, eye, atol=1e-12)
    grads = golden.constraint_gradients(pts)
    assert np.max(np.abs(np.einsum("nka,nia->nki", grads, frame))) < 1e-11


def test_reeb_residuals_small_everywhere(sphere, torus2, golden, cotangent):
    for m in (sphere, torus2, golden, cotangent, zoo.weighted_sphere([1.0, 2.0, 3.0]),
              zoo.catalog()["cotangent-bump"](0.3)):
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
    h = hamiltonian(sphere, lambda c: c[0] * c[0] - c[1] * c[3], name="test")
    pts = sample(sphere, 25)
    vecs = sphere.random_tangents(pts, np.random.default_rng(3))
    val, _ = hamiltonian_field_with_derivative(sphere, h.field, pts, vecs)
    assert np.max(np.abs(val - hamiltonian_to_field(h, pts))) < 1e-12


def test_hamiltonian_field_derivative_matches_finite_difference(golden):
    h = hamiltonian(golden, lambda c: c[0] * c[1] - 0.5 * c[2] * c[2] + c[3], name="test")
    pts = sample(golden, 20)
    vecs = golden.random_tangents(pts, np.random.default_rng(13))
    _, dual = hamiltonian_field_with_derivative(golden, h.field, pts, vecs)
    step = 1e-6
    plus = hamiltonian_to_field(h, golden.project(pts + step * vecs))
    minus = hamiltonian_to_field(h, golden.project(pts - step * vecs))
    fd = (plus - minus) / (2 * step)
    assert np.max(np.abs(dual - fd)) < 1e-5


def test_each_call_builds_its_contact_system_once(golden, torus, monkeypatch):
    from contactkit import manifold
    from contactkit.flows import strictness_check
    from contactkit.hamiltonian import bracket, bracket_hamiltonian
    counts = {"frame": 0, "rows": 0, "ambient": 0, "factor": 0}
    tangent_frame = manifold.ContactManifold.tangent_frame
    ambient_rows, ambient_data = manifold._ambient_rows, manifold._ambient_data

    def counted_frame(self, pts):
        counts["frame"] += 1
        return tangent_frame(self, pts)

    def counted(key, fn):
        def wrapped(*args):
            counts[key] += 1
            return fn(*args)
        return wrapped

    monkeypatch.setattr(manifold.ContactManifold, "tangent_frame", counted_frame)
    monkeypatch.setattr(manifold, "_ambient_rows", counted("rows", ambient_rows))
    monkeypatch.setattr(manifold, "_ambient_data", counted("ambient", ambient_data))
    # a contact system is factorised by one inverse at most, and no SVD is taken
    svds = []
    for name in ("svd", "pinv"):
        def counted_svd(*args, _name=name, _fn=getattr(np.linalg, name), **kwargs):
            svds.append(_name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted_svd)

    def counted_inv(*args, _fn=np.linalg.inv, **kwargs):
        counts["factor"] += 1
        return _fn(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "inv", counted_inv)

    def builds(call):
        counts.update(frame=0, rows=0, ambient=0, factor=0)
        call()
        return counts["frame"], counts["rows"], counts["ambient"], counts["factor"]

    # the golden ellipsoid takes the Schur complement, in closed form: one
    # pass over the rows, and no square system or inverse; the torus, a
    # k = 0 chart, builds and inverts K
    for m, once in ((golden, (0, 1, 0, 0)), (torus, (0, 1, 1, 1))):
        h1 = hamiltonian(m, lambda c: c[0] * c[1], name="h1")
        h2 = hamiltonian(m, lambda c: c[2] - c[1] * c[0], name="h2")
        pts = sample(m, 5)
        vecs = m.random_tangents(pts, np.random.default_rng(2))
        assert builds(lambda: m.reeb_field(pts)) == once, m.name
        assert builds(lambda: m.reeb_field(pts[0])) == once, m.name
        assert builds(lambda: hamiltonian_to_field(h1, pts)) == once, m.name
        assert builds(lambda: bracket(h1, h2, pts)) == once, m.name
        # the residuals pair the solved field with the seeded d alpha
        assert builds(lambda: m.reeb_residuals(pts)) == once, m.name
        assert builds(lambda: reeb_with_derivative(m, pts, vecs)) == once, m.name
        assert builds(lambda: hamiltonian_field_with_derivative(m, h1.field, pts, vecs)) == once
        nested = bracket_hamiltonian(h1, h2)
        assert builds(lambda: nested.field.directional(pts, vecs)) == once, m.name
    assert svds == []
    # no computation builds a frame: the Schur density builds no square
    # system, K's Pfaffian one, neither inverts it, and tangents are projected
    square = _square_system(golden)
    for m, once in ((golden, (0, 0, 0, 0)), (square, (0, 1, 1, 0)), (torus, (0, 1, 1, 0))):
        pts = sample(m, 5)
        assert builds(lambda: m.contact_defect(pts)) == once, m.key()
        assert builds(lambda: m.random_tangents(pts, np.random.default_rng(2))) == (0, 0, 0, 0)
        assert builds(lambda: strictness_check(m, None, 0.01, samples=3, steps=2))[0] == 0
    pts = sample(golden, 5)
    vecs = golden.random_tangents(pts, np.random.default_rng(2))

    # small systems are filled in place: no broadcast-and-stack copies
    assembled = []
    for name in ("broadcast_to", "stack", "block"):
        def counted_assembly(*args, _name=name, _fn=getattr(np, name), **kwargs):
            assembled.append(_name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(np, name, counted_assembly)
    for m in (golden, torus):
        m.reeb_field(pts[0] if m is golden else sample(torus, 1)[0])
        assert assembled == [], m.name
    reeb_with_derivative(golden, pts, vecs)
    assert assembled == []


def test_fields_match_their_closed_forms(sphere, sphere5, golden, torus2):
    # the Reeb fields of round and weighted spheres and of the tori, and the
    # contact fields of unitary moments, which are the fundamental fields
    weighted = zoo.weighted_sphere([1.0, 2.0, 3.0])
    cases = [(m, zoo.sphere_reeb_closed_form)
             for m in (sphere, sphere5, zoo.standard_sphere(3), sphere.scaled(2.5))]
    cases += [(m, zoo.weighted_reeb_closed_form) for m in (golden, weighted)]
    cases += [(m, zoo.torus_reeb_closed_form) for m in (zoo.torus3(1), torus2)]
    for m, closed_form in cases:
        pts = sample(m, 200, seed=14)
        exact = closed_form(m, pts)
        assert np.max(np.abs(m.reeb_field(pts) - exact)) <= 1e-14 * np.max(np.abs(exact)), m.key()
    rng = np.random.default_rng(14)
    for m in (sphere, sphere5, zoo.standard_sphere(3)):
        action = unitary_action(m)
        a = action.random_element(rng)
        pts = sample(m, 200, seed=15)
        exact = action.fundamental(a)(pts)
        field = hamiltonian_to_field(moment_field(action, a), pts)
        assert np.max(np.abs(field - exact)) <= 1e-14 * np.max(np.abs(exact)), m.key()


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
    # the golden ellipsoid's form is rebuilt without its map: one seeded pass
    counts = {"form": 0, "constraint": 0}
    coef_fn, level = golden.form.coef_fn, golden.constraints[0]

    def counted_form(coords):
        counts["form"] += 1
        return coef_fn(coords)

    def counted_level(coords):
        counts["constraint"] += 1
        return level.fn(coords)

    m = replace(golden, form=OneForm(counted_form, golden.ambient_dim),
                constraints=(ScalarField(counted_level, golden.ambient_dim,
                                         gradient_map=level.gradient_map),))
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
    # the unmapped form takes the square system, golden's mapped form the Schur complement
    reeb = golden.reeb_field(pts)
    assert np.max(np.abs(m.reeb_field(pts) - reeb)) <= 1e-15 * np.max(np.abs(reeb))

    # on S^3 the form and a unitary moment Hamiltonian carry maps, so the
    # ambient solve evaluates h once on plain points and never seeds the form
    s3 = zoo.standard_sphere(1)
    action = unitary_action(s3)
    h = moment_field(action, action.random_element(np.random.default_rng(9))).field
    calls = {"form": [], "h": []}

    def watched(fn, key):
        def wrapped(coords):
            calls[key].append(any(isinstance(c, Dual) for c in coords))
            return fn(coords)
        return wrapped

    watched_s3 = replace(s3, form=OneForm(watched(s3.form.coef_fn, "form"), 4,
                                          coefficient_map=s3.form.coefficient_map))
    mapped = ScalarField(watched(h.fn, "h"), 4, gradient_map=h.gradient_map)
    unmapped = ScalarField(watched(h.fn, "h"), 4)
    pts = sample(s3, 6)
    vecs = s3.random_tangents(pts, np.random.default_rng(8))

    def dual_calls(h_field):
        """Which form and h evaluations had Dual input, and the solve's result."""
        calls.update(form=[], h=[])
        if h_field is None:
            return calls["form"], calls["h"], reeb_with_derivative(watched_s3, pts, vecs)
        out = hamiltonian_field_with_derivative(watched_s3, h_field, pts, vecs)
        return calls["form"], calls["h"], out

    form, h_calls, field = dual_calls(mapped)
    assert form == [] and h_calls == [False]
    form, h_calls, _ = dual_calls(None)
    assert form == [] and h_calls == []
    # an unmapped h takes exactly one seeded pass, the form still none
    form, h_calls, reference = dual_calls(unmapped)
    assert form == [] and h_calls == [True]
    for ours, theirs in zip(field, reference):
        assert np.max(np.abs(ours - theirs)) <= 1e-14 * np.max(np.abs(theirs))


def test_several_directions_at_one_point(sphere, golden):
    rng = np.random.default_rng(17)
    for m in (sphere, golden):
        h = hamiltonian(m, lambda c: c[0] * c[1] - 0.5 * c[2] * c[2] + c[3], name="h").field
        p = sample(m, 1, seed=17)[0]
        dps = m.random_tangents(np.tile(p, (3, 1)), rng)
        for call in (lambda p, dp: reeb_with_derivative(m, p, dp),
                     lambda p, dp: hamiltonian_field_with_derivative(m, h, p, dp)):
            val, eps = call(p, dps)
            assert val.shape == (m.ambient_dim,) and eps.shape == (3, m.ambient_dim)
            batch_val, batch_eps = call(p[None], dps[:, None])
            assert np.array_equal(val, batch_val[0]) and np.array_equal(eps, batch_eps[:, 0])
            for j in range(3):
                one_val, one_eps = call(p, dps[j])
                assert one_val.shape == one_eps.shape == (m.ambient_dim,)
                assert np.array_equal(one_val, val)
                assert np.max(np.abs(one_eps - eps[j])) <= 1e-14 * np.max(np.abs(eps[j]))
            for bad_p, bad_dp in ((p, dps[:, :3]), (np.tile(p, (3, 1)), dps[0]),
                                  (np.tile(p, (3, 1)), dps[:2])):
                with pytest.raises(ValueError, match=rf"{re.escape(str(bad_dp.shape))}"
                                                     rf".*{re.escape(str(bad_p.shape))}"):
                    call(bad_p, bad_dp)


# the bordered Pfaffian and the reflection frame

def _cofactor_pfaffian(mat):
    """Pfaffian by cofactor expansion along the first row: the oracle."""
    size = mat.shape[-1]
    if size == 0:
        return np.ones(mat.shape[0])
    if size % 2 == 1:
        return np.zeros(mat.shape[0])
    total = np.zeros(mat.shape[0])
    for j in range(1, size):
        keep = [i for i in range(size) if i not in (0, j)]
        total += (-1.0) ** (j + 1) * mat[:, 0, j] * _cofactor_pfaffian(mat[:, keep][:, :, keep])
    return total


def _cofactor_wedge(a, dmat, n):
    """alpha ^ (d alpha)^n as sum_i (-1)^i a_i n! Pf(D without row and column i)."""
    total = np.zeros(a.shape[0])
    for i in range(2 * n + 1):
        keep = [j for j in range(2 * n + 1) if j != i]
        sub = dmat[:, keep][:, :, keep]
        total += (-1.0) ** i * a[:, i] * math.factorial(n) * _cofactor_pfaffian(sub)
    return total


def _planes_pfaffian(mat):
    """Pf of matrices (N, size, size) by manifold._pfaffian on their planes."""
    planes = mat.transpose(1, 2, 0)
    return _pfaffian(lambda r, c: planes[r, c], tuple(range(mat.shape[-1])))


def _antisymmetric(rng, count, size):
    x = rng.normal(size=(count, size, size))
    return x - np.swapaxes(x, 1, 2)


def test_pfaffian_squares_to_the_determinant():
    rng = np.random.default_rng(21)
    for size in (2, 4, 6, 8, 10):
        mat = _antisymmetric(rng, 40, size)
        pf = _planes_pfaffian(mat)
        det = np.linalg.det(mat)
        assert np.allclose(pf * pf, det, rtol=1e-10, atol=1e-12 * np.max(np.abs(det))), size
        assert np.allclose(pf, _cofactor_pfaffian(mat), rtol=1e-12, atol=1e-12), size
    # numbers as entries, and Pf = 1 over no indices
    entries = mat[0].tolist()
    assert _pfaffian(lambda r, c: entries[r][c], tuple(range(10))) == pf[0]
    assert _pfaffian(lambda r, c: entries[r][c], ()) == 1.0


def test_pfaffian_of_standard_symplectic_form_and_odd_swap():
    rng = np.random.default_rng(22)
    for size in (2, 4, 6, 8):
        j = np.kron(np.eye(size // 2), [[0.0, 1.0], [-1.0, 0.0]])
        assert np.allclose(_planes_pfaffian(j[None]), 1.0, atol=1e-15), size
        mat = _antisymmetric(rng, 10, size)
        perm = np.arange(size)
        perm[[0, size - 1]] = perm[[size - 1, 0]]
        swapped = mat[:, perm][:, :, perm]
        assert np.allclose(_planes_pfaffian(swapped), -_planes_pfaffian(mat), rtol=1e-12,
                           atol=1e-12), size
        # the indices in another order read the reordered matrix, with its bits
        planes = mat.transpose(1, 2, 0)
        order = tuple(int(i) for i in rng.permutation(size))
        reordered = mat[:, order][:, :, order]
        assert np.array_equal(_pfaffian(lambda r, c: planes[r, c], order),
                              _planes_pfaffian(reordered)), size


def test_matching_count_is_the_double_factorial():
    for size, count in ((2, 1), (4, 3), (6, 15), (8, 105)):
        table = _matchings(tuple(range(size)))
        assert len(table) == count
        assert all(sorted(sum(pairs, ())) == list(range(size)) for _, pairs in table)


def test_contact_defect_matches_the_cofactor_recursion(sphere, sphere5, golden, cotangent):
    # the oracle reads alpha and d alpha on the reference frame: the Schur
    # route, K's Pfaffian on the tori, the square systems and the k = 2 cut sphere
    schur = (sphere, sphere5, zoo.standard_sphere(3), golden, cotangent)
    cases = [(m, sample(m, 300, seed=4)) for m in schur + tuple(zoo.torus3(w) for w in (1, 2, 3))]
    cases += [(_square_system(m), sample(m, 300, seed=4)) for m in _constrained_zoo()]
    cases.append(_cut_sphere(300))
    for m, pts in cases:
        frame = m.tangent_frame(pts)
        a = np.einsum("na,nia->ni", m.form.coefficients(pts), frame)
        oracle = _cofactor_wedge(a, m.form.dmatrix(pts, frame), m.n)
        defect = m.contact_defect(pts)
        assert np.max(np.abs(defect - oracle) / np.abs(oracle)) <= 1e-12, m.key()


def _constrained_zoo():
    return (zoo.standard_sphere(1), zoo.standard_sphere(2), zoo.standard_sphere(3),
            zoo.weighted_sphere([1.0, (1.0 + np.sqrt(5.0)) / 2.0]),
            zoo.weighted_sphere([1.0, 2.0, 3.0]), zoo.unit_cotangent_sphere(),
            zoo.catalog()["cotangent-bump"](0.3))


def test_reflection_frame_is_oriented_orthonormal_and_tangent():
    for m in _constrained_zoo():
        pts = sample(m, 200, seed=6)
        frame = m.tangent_frame(pts)
        gram = np.einsum("nia,nja->nij", frame, frame)
        assert np.max(np.abs(gram - np.eye(m.dim))) < 1e-13, m.name
        grads = m.constraint_gradients(pts)
        assert np.max(np.abs(np.einsum("nka,nia->nki", grads, frame))) < 1e-12, m.name
        square = np.concatenate([grads, frame], axis=1)
        assert np.all(np.linalg.det(square) * m.frame_sign > 0.0), m.name


def test_reflection_frame_is_the_same_alone_and_in_a_batch():
    # sums over a component axis must not change order with the point count
    for m in _constrained_zoo() + (zoo.torus3(1),):
        for seed in (7, 8):
            pts = sample(m, 64, seed=seed)
            frame = m.tangent_frame(pts)
            assert frame.shape == (64, m.dim, m.ambient_dim), m.name
            assert np.array_equal(frame, m.tangent_frame(pts)), m.name
            for i in range(len(pts)):
                alone = m.tangent_frame(pts[i])
                assert alone.shape == (m.dim, m.ambient_dim), m.name
                assert np.array_equal(alone, frame[i]), (m.name, seed, i)
            assert np.array_equal(m.tangent_frame(pts[5:9]), frame[5:9]), m.name


def test_defect_and_reeb_field_are_the_same_alone_and_in_a_batch():
    # and the contact field of a Hamiltonian without a gradient map, both
    # fields with their derivatives along one direction, on every manifold
    # of the Schur route, on the torus and on the square systems
    cases = [(m, (7, 8, 9)) for m in _constrained_zoo()
             + (zoo.standard_sphere(1).scaled(1.7), zoo.torus3(1))]
    for m, seeds in cases + [(_square_system(m), (7,)) for m in _constrained_zoo()]:
        h = hamiltonian(m, lambda c: c[0] * c[1] - 0.5 * c[2] * c[2] + c[1], name="h")
        for seed in seeds:
            pts = sample(m, 64, seed=seed)
            vecs = m.random_tangents(pts, np.random.default_rng(seed + 10))
            defect, reeb = m.contact_defect(pts), m.reeb_field(pts)
            field = hamiltonian_to_field(h, pts)
            derivatives = (reeb_with_derivative(m, pts, vecs),
                           hamiltonian_field_with_derivative(m, h.field, pts, vecs))
            for i in range(len(pts)):
                where = (m.key(), seed, i)
                alone = m.contact_defect(pts[i])
                assert isinstance(alone, float) and alone == defect[i], where
                assert np.array_equal(m.reeb_field(pts[i]), reeb[i]), where
                assert np.array_equal(hamiltonian_to_field(h, pts[i]), field[i]), where
                for call, batch in zip((lambda p, v: reeb_with_derivative(m, p, v),
                                        lambda p, v: hamiltonian_field_with_derivative(
                                            m, h.field, p, v)), derivatives):
                    val, eps = call(pts[i], vecs[i])
                    assert np.array_equal(val, batch[0][i]), where
                    assert np.array_equal(eps, batch[1][i]), where


def test_defect_reads_rule_chunks_in_place_with_the_same_bits(golden, cotangent, torus):
    # a toric rule stores its nodes as coordinate planes, so a chunk's
    # coordinate rows are contiguous and the density reads them in place;
    # the cotangent and torus rules are C-ordered, and their planes are made
    # here, read-only as the shared sphere rules are
    for m in (zoo.standard_sphere(1), zoo.standard_sphere(2), zoo.standard_sphere(3),
              golden, cotangent, torus):
        pts = m.reference_sampler(m, 4096)[0]
        if pts.strides[0] != pts.itemsize:
            pts = np.ascontiguousarray(pts.T).T
            pts.flags.writeable = False
        for chunk in (pts, pts[100:1100]):
            assert chunk.strides[0] == chunk.itemsize, m.name
            in_place = m.contact_defect(chunk)
            copied = m.contact_defect(np.ascontiguousarray(chunk))
            assert np.all(np.isfinite(in_place)), m.name
            assert in_place.tobytes() == copied.tobytes(), m.name


def test_reeb_residuals_at_a_point_are_floats(sphere, golden, cotangent, torus):
    for m in (sphere, golden, cotangent, torus):
        pts = sample(m, 6, seed=3)
        batch = m.reeb_residuals(pts)
        for i in (0, 5):
            alone = m.reeb_residuals(pts[i])
            assert alone.keys() == batch.keys()
            for name, value in alone.items():
                assert isinstance(value, float), (m.name, name)
                assert abs(value - batch[name][i]) <= 1e-14, (m.name, name)


def test_reflection_frame_rank_loss_raises_without_warning(sphere, golden, cotangent):
    q = np.array([0.6, 0.0, 0.8])
    cases = [(sphere, np.zeros(4)), (golden, np.zeros(4)),
             # p = 0 kills the third gradient; p = q makes (p, q) the mean of the others
             (cotangent, np.concatenate([q, np.zeros(3)])),
             (cotangent, np.concatenate([q, q]))]
    # p = 0.7 q at generic unit q: the same rank loss with inexact Gram entries
    for u in np.random.default_rng(4).normal(size=(4, 3)):
        u /= np.linalg.norm(u)
        cases.append((cotangent, np.concatenate([u, 0.7 * u])))
    for m, bad in cases:
        batch = np.vstack([sample(m, 3, seed=9), bad])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for pts in (bad, batch):
                for call in (m.tangent_frame, m.contact_defect, _square_system(m).contact_defect,
                             lambda p: m.random_tangents(p, np.random.default_rng(9))):
                    with pytest.raises(DegenerateFrameError):
                        call(pts)


def test_random_tangents_redraw_a_draw_normal_to_the_manifold(sphere):
    # S^3's sampler normalizes a Gaussian draw, so the same seed draws each
    # point's own direction: no tangent part above rounding
    pts = sphere.random_points(64, np.random.default_rng(7))
    draw = np.random.default_rng(7).normal(size=pts.shape)
    tangent = draw - np.sum(draw * pts, axis=1)[:, None] * pts
    assert np.all(np.linalg.norm(tangent, axis=1) <= 1e-8 * np.linalg.norm(draw, axis=1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vecs = sphere.random_tangents(pts, np.random.default_rng(7))
    assert np.max(np.abs(np.linalg.norm(vecs, axis=1) - 1.0)) <= 1e-15
    assert np.max(np.abs(np.einsum("nka,na->nk", sphere.constraint_gradients(pts), vecs))) <= 1e-15


# quadratic constraints: gradients from their affine maps

def test_gradient_maps_match_the_seeded_gradients():
    mapped = 0
    for m in _constrained_zoo():
        pts = sample(m, 200, seed=11)
        grads = m.constraint_gradients(pts)
        for i, c in enumerate(m.constraints):
            seeded = c.gradient(pts)
            if c.gradient_map is None:
                assert np.array_equal(grads[:, i], seeded), (m.name, c.name)
                continue
            mapped += 1
            jac, shift = c.gradient_map
            assert np.array_equal(grads[:, i], pts @ jac + shift), (m.name, c.name)
            err = np.linalg.norm(grads[:, i] - seeded, axis=1)
            assert np.all(err <= 1e-15 * np.linalg.norm(seeded, axis=1)), (m.name, c.name)
    # |z|^2 - 1 on three spheres, H_w - 1 on two ellipsoids, |q|^2 - 1 and
    # q.p on two cotangent bundles, |p|^2 - 1 on the round one; the bump
    # bundle's |p|_g - 1 is seeded
    assert mapped == 10
    forms = 0
    scaled = (zoo.standard_sphere(1).scaled(2.5), zoo.weighted_sphere([1.0, 2.0, 3.0]).scaled(0.3))
    for m in _constrained_zoo() + scaled + (zoo.torus3(1),):
        if m.form.coefficient_map is None:
            continue
        forms += 1
        pts = sample(m, 200, seed=11)
        jac, shift = m.form.coefficient_map
        coefs = m.form.coefficients(pts)
        err = np.linalg.norm(pts @ jac + shift - coefs, axis=1)
        assert np.all(err <= 1e-15 * np.linalg.norm(coefs, axis=1)), m.key()
        # jac[a, b] is d_a w_b, the seeded derivative of coefficient b along e_a
        seeded = np.stack([np.broadcast_to(epsilon(c), (m.ambient_dim, len(pts)))
                           for c in m.form.coef_fn(seed(list(pts.T)))], axis=-1)
        assert np.max(np.abs(seeded - jac[:, None, :])) <= 1e-15 * np.max(np.abs(jac)), m.key()
    # the standard form on three spheres and two ellipsoids, two scaled
    # copies, and p.dq on both cotangent bundles; the torus form is seeded
    assert forms == 9


def _moment_cases():
    """(m, action, element) for the linear actions: unitary on round spheres,
    also at form scale 2.5, and the diagonal torus on S^3 and two ellipsoids."""
    rng = np.random.default_rng(19)
    spheres = (zoo.standard_sphere(1), zoo.standard_sphere(2), zoo.standard_sphere(3),
               zoo.standard_sphere(1).scaled(2.5))
    cases = []
    for m in spheres:
        action = unitary_action(m)
        cases.append((m, action, action.random_element(rng)))
    for m in (spheres[0], zoo.weighted_sphere([1.0, (1.0 + np.sqrt(5.0)) / 2.0]),
              zoo.weighted_sphere([1.0, 2.0, 3.0])):
        action = diagonal_torus_action(m)
        cases.append((m, action, action.random_element(rng)))
    return cases


def _pairing(m, action, a):
    """The moment as alpha(X) of the fundamental field, independent of moment_field's maps."""
    return field_to_hamiltonian(m, action.fundamental(a)).field


def test_moment_gradient_maps_match_the_seeded_gradients():
    for m, action, a in _moment_cases():
        h = moment_field(action, a).field
        assert h.gradient_map is not None, m.key()
        pts = sample(m, 200, seed=11)
        jac, shift = h.gradient_map
        assert np.array_equal(jac, jac.T), m.key()
        seeded = _pairing(m, action, a).gradient(pts)
        err = np.linalg.norm(pts @ jac + shift - seeded, axis=1)
        assert np.all(err <= 1e-15 * np.linalg.norm(seeded, axis=1)), m.key()
    # the torus shift action is not linear and the torus form has no map
    assert moment_field(torus_shift_action(zoo.torus3(1)), [1.0, 2.0]).field.gradient_map is None


def test_moment_field_values_match_the_moment_pairing():
    # the map-built fn on floats, (N,) arrays and one-layer Duals, against
    # chernweil.moment and the seeded pairing, within 8 ulps of the largest
    eps = np.finfo(float).eps
    rng = np.random.default_rng(29)
    for m, action, a in _moment_cases():
        fn = moment_field(action, a).field.fn
        pts = sample(m, 64, seed=29)
        vecs = rng.normal(size=pts.shape)
        exact = moment(action, pts, a)
        slope = _pairing(m, action, a).directional(pts, vecs)
        tol, slope_tol = 8 * eps * np.max(np.abs(exact)), 8 * eps * np.max(np.abs(slope))
        values = fn(list(pts.T))
        assert values.shape == (64,) and np.max(np.abs(values - exact)) <= tol, m.key()
        for i in range(0, 64, 9):
            alone = fn([float(c) for c in pts[i]])
            assert isinstance(alone, float) and abs(alone - exact[i]) <= tol, m.key()
        dual = fn(seed(list(pts.T), list(vecs.T)))
        assert isinstance(dual, Dual), m.key()
        assert np.max(np.abs(dual.val - exact)) <= tol, m.key()
        assert np.max(np.abs(dual.eps - slope)) <= slope_tol, m.key()


def _off_centre_quadric(count, scale, form_centre):
    """The ellipsoid (x - c) G (x - c)^T / 2 = 1 in R^4, count points on it,
    and its centre c = scale (1/8, -1/4, 0, 1/4).  G is symmetric and not
    diagonal, and c is off the origin, so the gradient map (G, -c G) has
    g0 != 0.  The form is the standard one about p, (x - p) @ W, plus a
    small constant w0, where p is c if form_centre and else the origin,
    which the ellipsoid must then enclose: a constant leaves d alpha alone,
    and the form is contact where the ellipsoid is star-shaped about p.
    G, c and p are dyadic, so the gradient vanishes exactly at c."""
    g = np.array([[2.0, 0.5, 0.25, 0.0], [0.5, 3.0, 0.0, -0.5],
                  [0.25, 0.0, 2.5, 0.5], [0.0, -0.5, 0.5, 1.5]])
    centre = scale * np.array([0.125, -0.25, 0.0, 0.25])
    standard = zoo.standard_sphere(1).form
    w0 = np.array([0.0625, 0.0, -0.125, 0.03125])
    if form_centre:
        w0 = w0 - centre @ standard.coefficient_map[0]
    entries, shift, constant = g.tolist(), centre.tolist(), w0.tolist()

    def level(coords):
        y = [coords[a] - shift[a] for a in range(4)]
        return 0.5 * sum(entries[a][b] * y[a] * y[b] for a in range(4) for b in range(4)) - 1.0

    form = OneForm(lambda c: [w + b for w, b in zip(standard.coef_fn(c), constant)], 4,
                   coefficient_map=(standard.coefficient_map[0], w0))
    m = ContactManifold("quadric", 1, 4, form,
                        (ScalarField(level, 4, "quadric", gradient_map=(g, -(centre @ g))),))
    # rays t u from the centre: t^2 u G u / 2 = 1
    u = sample(zoo.standard_sphere(1), count, seed=37)
    t = np.sqrt(2.0 / np.einsum("na,ab,nb->n", u, g, u))
    return m, centre + t[:, None] * u, centre


def test_off_centre_quadric_density_matches_the_square_system():
    # the zoo's Schur polynomials are diagonal, with no linear part; these
    # quadrics' S entry has off-diagonal and linear terms, about a centre
    # that is off the origin, once inside the ellipsoid and once 9-15 radii
    # away, where an expansion about the origin misses by 8e-14
    for scale, form_centre in ((1.0, False), (32.0, True)):
        m, pts, centre = _off_centre_quadric(200, scale, form_centre)
        at, planar, _, entries, gram = m._schur_polys
        assert np.array_equal(at, centre) and planar == () and list(entries) == [(0, 1)]
        quad, lin = entries[0, 1]
        assert any(a != b for (a, b), _ in quad) and lin
        # G G^T is not diagonal, so |grad g| comes from the gradient planes
        assert gram is None
        assert np.max(m.constraint_residual(pts)) <= 1e-14 * scale
        defect, square = m.contact_defect(pts), _square_system(m).contact_defect(pts)
        assert np.all(square > 0.0)
        assert np.max(np.abs(defect - square) / square) <= 1e-14, scale
        for i in range(len(pts)):
            alone = m.contact_defect(pts[i])
            assert isinstance(alone, float) and alone == defect[i], i
        assert np.array_equal(m.contact_defect(pts[5:9]), defect[5:9])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in (m.contact_defect, _square_system(m).contact_defect):
                for bad in (centre, np.vstack([pts[:3], centre])):
                    with pytest.raises(DegenerateFrameError):
                        call(bad)


def test_rotated_quadric_takes_its_gradient_norm_from_the_planes():
    # G = H diag(64, 1, 2, 1) H, H the symmetric Hadamard rotation: a Gram
    # polynomial y G G^T y^T would sum terms up to kappa^2 = 4096 times its
    # value and miss the square system by 5e-14; the gradient planes' norm
    # loses only kappa
    h = 0.5 * np.array([[1.0, 1.0, 1.0, 1.0], [1.0, -1.0, 1.0, -1.0],
                        [1.0, 1.0, -1.0, -1.0], [1.0, -1.0, -1.0, 1.0]])
    g = h @ np.diag([64.0, 1.0, 2.0, 1.0]) @ h
    entries = g.tolist()
    level = lambda c: 0.5 * sum(entries[a][b] * c[a] * c[b] for a in range(4) for b in range(4)) - 1.0
    m = ContactManifold("rotated", 1, 4, zoo.standard_sphere(1).form,
                        (ScalarField(level, 4, "rotated", gradient_map=(g, np.zeros(4))),))
    at, planar, _, _, gram = m._schur_polys
    assert at is None and planar == () and gram is None
    u = sample(zoo.standard_sphere(1), 2000, seed=3)
    pts = np.sqrt(2.0 / np.einsum("na,ab,nb->n", u, g, u))[:, None] * u
    defect, square = m.contact_defect(pts), _square_system(m).contact_defect(pts)
    assert np.max(np.abs(defect - square) / np.abs(square)) <= 1e-14


def _unmapped(m):
    """m with its form's coefficient map and its gradient maps stripped."""
    return replace(m, form=OneForm(m.form.coef_fn, m.ambient_dim, m.form.name),
                   constraints=tuple(ScalarField(c.fn, c.dim, c.name) for c in m.constraints))


def test_schur_density_matches_the_pfaffian_of_k():
    # a form without a map takes the Pfaffian of the square system K
    cases = _constrained_zoo() + (zoo.standard_sphere(1).scaled(2.5),)
    for m in cases:
        assert m.form.coefficient_map is not None, m.key()
        pts = sample(m, 300, seed=24)
        schur, square = m.contact_defect(pts), _square_system(m).contact_defect(pts)
        assert np.all(square > 0.0), m.key()
        assert np.max(np.abs(schur - square) / square) <= 1e-14, m.key()
    # the cotangent constructors calibrate frame_sign through contact_defect
    assert [m.frame_sign for m in cases if m.name.startswith("cotangent")] == [-1, -1]


def _cut_sphere(count):
    """S^3 cut out of R^5 by |z|^2 = 1 and x_4 = 0, its form mapped with a d alpha
    singular on R^5, and count points on it."""
    s3 = zoo.standard_sphere(1)
    w = np.zeros((5, 5))
    w[:4, :4] = s3.form.coefficient_map[0]
    form = OneForm(lambda c: s3.form.coef_fn(c[:4]) + [0.0 * c[0]], 5,
                   coefficient_map=(w, np.zeros(5)))
    cut = (ScalarField(lambda c: s3.constraints[0].fn(c[:4]), 5), ScalarField(lambda c: c[4], 5))
    return ContactManifold("cut-sphere", 1, 5, form, cut), np.hstack([sample(s3, count),
                                                                      np.zeros((count, 1))])


def test_mapped_form_with_singular_d_alpha_takes_the_pfaffian_of_k():
    # k = 2 and d alpha singular on R^5: no Schur route, and K's Pfaffian
    # gives the density, whose sign frame_sign = 1 fixes
    m, pts = _cut_sphere(50)
    assert np.allclose(m.contact_defect(pts), -0.5, atol=1e-12)
    assert np.allclose(replace(m, frame_sign=-1).contact_defect(pts), 0.5, atol=1e-12)


def test_ambient_data_from_maps_matches_the_seeded_pass():
    rng = np.random.default_rng(23)
    # (m, h, h's unmapped reference)
    bare = [(m, None, None) for m in _constrained_zoo()
            + (zoo.standard_sphere(1).scaled(2.5), zoo.torus3(1))]
    moments = [(m, moment_field(action, a).field, _pairing(m, action, a))
               for m, action, a in _moment_cases()]
    for m, h, stripped in bare + moments:
        pts = sample(m, 12, seed=23)
        vecs = m.random_tangents(pts, rng)
        for dp in (vecs, np.stack([vecs, m.random_tangents(pts, rng), pts])):
            ours = _ambient_data(m, pts, dp, h)
            reference = _ambient_data(_unmapped(m), pts, dp, stripped)
            for part, theirs in zip(ours, reference):
                if theirs is None:
                    assert part is None
                    continue
                for x, y in ((part.val, theirs.val), (part.eps, theirs.eps)):
                    assert x.shape == y.shape, m.key()
                    assert np.max(np.abs(x - y)) <= 1e-15 * np.max(np.abs(y)), m.key()


def _square_system(m):
    """m with its form's coefficient map stripped: its fields solve the square system K."""
    return replace(m, form=OneForm(m.form.coef_fn, m.ambient_dim, m.form.name))


def test_schur_solve_matches_the_square_system():
    from contactkit import manifold
    from contactkit.hamiltonian import bracket
    rng = np.random.default_rng(31)
    scaled = (zoo.standard_sphere(1).scaled(2.5), zoo.standard_sphere(1).scaled(1.7))
    for m in _constrained_zoo() + scaled:
        square = _square_system(m)
        assert manifold._schur_route(m) and not manifold._schur_route(square), m.key()
        pts = sample(m, 40, seed=31)
        vecs = np.stack([m.random_tangents(pts, rng) for _ in range(3)])
        poly = lambda c: c[0] * c[1] - 0.5 * c[2] * c[2] + c[3]
        h1 = hamiltonian(m, poly, name="h1")
        h2 = hamiltonian(m, lambda c: c[1] * c[3] + np.sin(c[0]), name="h2")
        hs = [h1]
        if m.name == "sphere":
            action = unitary_action(m)
            hs.append(moment_field(action, action.random_element(rng)))
        # off the manifold too, where S has no entries that vanish on it
        off = pts + 0.05 * rng.normal(size=pts.shape)
        pairs = [(m.reeb_field(pts), square.reeb_field(pts)),
                 (m.reeb_field(off), square.reeb_field(off)),
                 (bracket(h1, h2, pts), bracket(replace(h1, manifold=square), h2, pts))]
        for dp in (vecs[0], vecs):
            pairs += zip(reeb_with_derivative(m, pts, dp), reeb_with_derivative(square, pts, dp))
        for h in hs:
            pairs.append((hamiltonian_to_field(h, pts),
                          hamiltonian_to_field(replace(h, manifold=square), pts)))
            for dp in (vecs[0], vecs):
                pairs += zip(hamiltonian_field_with_derivative(m, h.field, pts, dp),
                             hamiltonian_field_with_derivative(square, h.field, pts, dp))
        for ours, theirs in pairs:
            assert ours.shape == theirs.shape, m.key()
            assert np.max(np.abs(ours - theirs)) <= 1e-14 * np.max(np.abs(theirs)), m.key()
        # the Frobenius product of K from its blocks
        b = np.concatenate([m.constraint_gradients(pts), m.form.coefficients(pts)[:, None]], axis=1)
        fro = manifold._schur_factor(m.form, b)[2]
        system = manifold._ambient_data(square, pts, np.empty((0,) + pts.shape))[0].val
        direct = (np.linalg.norm(system, axis=(1, 2))
                  * np.linalg.norm(np.linalg.inv(system), axis=(1, 2)))
        assert np.all(np.abs(fro - direct) <= 1e-14 * direct), m.key()


def test_gathered_schur_inverse_matches_the_inverse_and_the_pfaffian():
    from contactkit import manifold
    rng = np.random.default_rng(35)
    for size in (2, 4):
        s = _antisymmetric(rng, 50, size)
        pf, y = manifold._pfaffian_inverse(s, size)
        assert np.array_equal(pf, manifold._pfaffian(lambda r, c: s[:, r, c], tuple(range(size))))
        inv = np.linalg.inv(s)
        assert np.max(np.abs(y + inv)) <= 1e-12 * np.max(np.abs(inv)), size
        # S read every third column, as _schur_factor's product interleaves it
        wide = np.zeros((50, size, 3 * size))
        wide[..., ::3] = s
        strided = manifold._pfaffian_inverse(wide, size, 3)
        assert np.array_equal(strided[0], pf) and np.array_equal(strided[1], y), size


def test_schur_solve_calls_no_mapped_constraint():
    # every constraint mapped: the rows come from the maps, and the solve,
    # valued or differentiated, evaluates no constraint function
    from contactkit import manifold
    for m in _constrained_zoo()[:-1]:
        counted, calls = counting_constraints(m)
        assert manifold._schur_route(counted), m.key()
        assert all(c.gradient_map is not None for c in counted.constraints), m.key()
        pts = sample(m, 5, seed=36)
        vecs = m.random_tangents(pts, np.random.default_rng(36))
        h = hamiltonian(counted, lambda c: c[0] * c[1] + c[2], name="h")
        calls.clear()
        counted.reeb_field(pts)
        counted.reeb_field(pts[0])
        hamiltonian_to_field(h, pts)
        reeb_with_derivative(counted, pts, vecs)
        hamiltonian_field_with_derivative(counted, h.field, pts, vecs)
        assert calls == [], m.key()


def test_schur_route_raises_where_the_form_is_not_contact():
    # alpha + 2 dx_1 on S^3 keeps d alpha; its density changes sign, and at
    # a zero found by bisection all four field calls raise on both routes
    s3 = zoo.standard_sphere(1)
    shift = np.array([2.0, 0.0, 0.0, 0.0])
    form = OneForm(lambda c: [a + w for a, w in zip(s3.form.coef_fn(c), shift)], 4,
                   "alpha + 2 dx1", coefficient_map=(s3.form.coefficient_map[0], shift))
    m = replace(s3, form=form)
    rng = np.random.default_rng(32)
    pts = sample(m, 200, seed=32)
    defect = m.contact_defect(pts)
    lo, hi = pts[np.argmin(defect)], pts[np.argmax(defect)]
    assert m.contact_defect(lo) < 0.0 < m.contact_defect(hi)
    for _ in range(80):
        mid = (lo + hi) / np.linalg.norm(lo + hi)
        if m.contact_defect(mid) == 0.0 or np.array_equal(mid, lo) or np.array_equal(mid, hi):
            break
        lo, hi = (mid, hi) if m.contact_defect(mid) < 0.0 else (lo, mid)
    generic = pts[np.abs(defect) > 0.1][:10]
    for manifold in (m, _square_system(m)):
        h = hamiltonian(manifold, lambda c: c[0] * c[1] + c[2], name="h")
        calls = (lambda p, v: manifold.reeb_field(p),
                 lambda p, v: reeb_with_derivative(manifold, p, v),
                 lambda p, v: hamiltonian_to_field(h, p),
                 lambda p, v: hamiltonian_field_with_derivative(manifold, h.field, p, v))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in calls:
                for bad in (mid, np.vstack([generic, mid])):
                    with pytest.raises(ContactDegeneracyError):
                        call(bad, m.random_tangents(bad, rng))
                call(generic, m.random_tangents(generic, rng))


def test_constraint_pass_values_match_the_level_functions():
    from contactkit.dual import value
    eps = np.finfo(float).eps
    for m in _constrained_zoo():
        noise = np.random.default_rng(12).normal(size=(50, m.ambient_dim))
        pts = sample(m, 50, seed=12) + 1e-7 * noise
        vals, grads = m._constraint_pass(pts)
        assert np.array_equal(vals, m.constraint_values(pts)), m.name
        coords = seed(list(pts.T))
        for i, c in enumerate(m.constraints):
            seeded = value(c.fn(coords))
            if c.gradient_map is None:
                # an unmapped constraint keeps its function's bits
                assert np.array_equal(vals[:, i], seeded), (m.name, c.name)
            else:
                # a mapped one is read from its map: the two routes each round
                # d products and sums of terms of size about one, u = eps / 2
                # each, so they differ by at most (d + 1) eps
                err = np.max(np.abs(vals[:, i] - seeded))
                assert err <= (m.ambient_dim + 1) * eps, (m.name, c.name, err)
        assert np.array_equal(grads, m.constraint_gradients(pts)), m.name
        one_vals, one_grads = m._constraint_pass(pts[4])
        assert np.array_equal(one_vals, vals[4:5]) and np.array_equal(one_grads, grads[4:5])


def test_constraint_maps_are_symmetric_and_offset_by_the_value_at_the_origin():
    for m in _constrained_zoo():
        mapped, _, _, origin = m._level_maps
        assert mapped == [i for i, c in enumerate(m.constraints) if c.gradient_map is not None]
        for i, c0 in zip(mapped, origin):
            mat = m.constraints[i].gradient_map[0]
            assert np.array_equal(mat, mat.T), (m.name, i)
            assert c0 == m.constraints[i].fn([0.0] * m.ambient_dim), (m.name, i)
    # a map whose matrix is not symmetric is no gradient map of a quadratic
    s3 = zoo.standard_sphere(1)
    skew = ScalarField(s3.constraints[0].fn, 4, "skew",
                       gradient_map=(2.0 * np.eye(4) + np.eye(4, k=1), np.zeros(4)))
    with pytest.raises(ValueError, match="non-symmetric"):
        replace(s3, constraints=(skew,))


def test_normal_part_divides_by_the_gram_entry_as_the_solve_does():
    rng = np.random.default_rng(33)
    for m in (zoo.standard_sphere(1), zoo.standard_sphere(2), zoo.standard_sphere(3),
              zoo.weighted_sphere([1.0, (1.0 + np.sqrt(5.0)) / 2.0])):
        pts = sample(m, 3000, seed=33) * (1.0 + 1e-9 * rng.normal(size=(3000, 1)))
        vals, grads = m._constraint_pass(pts)
        gram = np.einsum("nia,nja->nij", grads, grads)
        solved = np.einsum("ni,nia->na", np.linalg.solve(gram, vals[..., None])[..., 0], grads)
        assert np.array_equal(_normal_part(grads, vals), solved), m.name
        for i in range(0, 3000, 300):
            alone = _normal_part(grads[i:i + 1], vals[i:i + 1])
            assert np.array_equal(alone, solved[i:i + 1]), (m.name, i)


def test_round_cotangent_bundle_projects_from_its_maps(cotangent):
    counted, calls = counting_constraints(cotangent)
    calls.clear()
    rng = np.random.default_rng(34)
    pts = sample(cotangent, 40, seed=34)
    for scale in (1e-9, 1e-3):
        proj = counted.project(pts + scale * rng.normal(size=pts.shape))
        assert np.max(np.abs(cotangent.constraint_values(proj))) <= 1e-13, scale
    # k = 3: the Newton update solves the 3 x 3 Gram system, values and
    # Jacobian from the three maps
    assert calls == []


def test_point_accepts_points_on_the_manifold_only(sphere, golden, torus):
    for m in (sphere, golden):
        on = sample(m, 1, seed=4)[0]
        p = m.point(on)
        assert isinstance(p, np.ndarray) and np.array_equal(p, on)
        assert m.constraint_residual(p) <= 1e-12
        with pytest.raises(ValueError, match="violates constraints"):
            m.point(1.01 * on)
    with pytest.raises(ValueError, match="violates constraints"):
        sphere.point([1.0, 1.0, 0.0, 0.0])
    # a periodic chart has no constraints and wraps into [0, period)
    wrapped = torus.point([7.0, -1.0, 0.5])
    assert np.allclose(wrapped, [7.0 - 2.0 * math.pi, 2.0 * math.pi - 1.0, 0.5], atol=1e-15)
