"""The bundled manifolds: constructors, closed-form flows, Hopf map."""

import math

import numpy as np
import pytest

from contactkit import integrate, zoo
from conftest import sample


def test_catalog_builds_every_entry():
    for name, maker in zoo.catalog().items():
        m = maker()
        pts = sample(m, 20)
        defect = m.contact_defect(pts)
        if name == "degenerate-torus":
            assert np.allclose(defect, 0.0, atol=1e-14)
        else:
            assert np.all(defect > 0.0), name


# total reference measure of each catalog entry's quadrature rule: the area
# of the level set for the toric rules (the default weights (1, 1) give the
# sphere of radius 1/sqrt(pi)), and the area of the round cotangent bundle in
# R^6, where p turns with q and stretches each base direction by sqrt(2); the
# bump bundle's area has no closed form (its contact volume is in test_integrate)
_RULE_MEASURE = {
    "sphere": zoo.sphere_volume(4),
    "weighted": zoo.sphere_volume(4) / math.pi ** 1.5,
    "torus3": (2.0 * math.pi) ** 3,
    "degenerate-torus": (2.0 * math.pi) ** 3,
    "cotangent-round": 8.0 * math.sqrt(2.0) * math.pi ** 2,
    "cotangent-bump": None,
}


@pytest.mark.parametrize("name", sorted(zoo.catalog()))
@pytest.mark.parametrize("budget", [1, 100, 256, 1000, 5000])
def test_quadrature_rule_contract(name, budget):
    m = zoo.catalog()[name]()
    pts, weights, scale, companion = m.reference_sampler(m, budget)
    count = pts.shape[0]
    rules = [(pts, weights, scale), companion]
    for rule_pts, _, _ in rules:
        assert rule_pts.shape[1] == m.ambient_dim
        for c in m.constraints:
            assert np.max(np.abs(c(rule_pts))) <= 1e-12, c.name
    if m.periodic:
        # the grid and its companion of half the nodes per axis
        nodes = max(9, round(budget ** (1.0 / 3.0)))
        assert [len(r[0]) for r in rules] == [nodes ** 3, (nodes // 2) ** 3]
        for rule_pts, rule_weights, rule_scale in rules:
            assert rule_weights is None and np.all((rule_pts >= 0.0) & (rule_pts < m.period))
            assert rule_scale * len(rule_pts) == pytest.approx(_RULE_MEASURE[name], rel=1e-14)
        return
    # the product rule and its companion of halved orders: 1/8 of the nodes,
    # since S^3 and the cotangent bundle both have three axes
    assert count == max(256, 1 << (budget - 1).bit_length())
    assert [len(r[0]) for r in rules] == [count, count // 8]
    for rule_pts, rule_weights, rule_scale in rules:
        assert rule_weights.shape == (len(rule_pts),) and np.all(rule_weights > 0)
        if _RULE_MEASURE[name] is not None:
            assert rule_scale * math.fsum(rule_weights) == pytest.approx(_RULE_MEASURE[name],
                                                                        rel=1e-14)


@pytest.mark.parametrize("n, budget, orders", [
    (1, 1 << 16, ([64, 32], [32])), (2, 1 << 15, ([8, 8, 8], [8, 8])),
    (3, 1 << 13, ([4, 4, 4, 4], [4, 4, 2])), (1, 256, ([8, 8], [4]))])
def test_toric_orders_split_the_bits_angles_first(n, budget, orders):
    assert zoo._toric_orders(n, zoo._sample_count(budget)) == orders


def test_toric_rule_on_an_ellipsoid_integrates_its_area_and_moments():
    # the ellipsoid's rule is the unit sphere's pushed by z_j -> a_j z_j:
    # its weights over the sphere's are the surface Jacobian of that map,
    # prod(a) |A^-1 u| for the unit-sphere node u
    w = (0.8, 1.3, 2.1)
    a = 1.0 / np.sqrt(math.pi * np.asarray(w))
    ellipsoid = zoo.weighted_sphere(w)
    sphere = zoo.standard_sphere(2)
    e_pts, e_weights, e_scale, _ = ellipsoid.reference_sampler(ellipsoid, 1 << 12)
    s_pts, s_weights, s_scale, _ = sphere.reference_sampler(sphere, 1 << 12)
    axes = np.repeat(a, 2)
    assert e_scale == s_scale
    assert np.allclose(e_pts, s_pts * axes, rtol=0.0, atol=1e-15)
    jacobian = np.prod(axes) * np.linalg.norm(s_pts / axes, axis=1)
    assert np.allclose(e_weights, s_weights * jacobian, rtol=1e-14, atol=0.0)
    # on the unit sphere, |z_0|^2 |z_1|^2 averages 1 / ((n+1)(n+2)) = 1/12
    moment = (s_pts[:, 0] ** 2 + s_pts[:, 1] ** 2) * (s_pts[:, 2] ** 2 + s_pts[:, 3] ** 2)
    assert s_scale * math.fsum(moment * s_weights) == pytest.approx(
        zoo.sphere_volume(6) / 12.0, rel=1e-14)


@pytest.mark.parametrize("n, budget", [(1, 1 << 16), (2, 1 << 15), (3, 1 << 13), (1, 300)])
def test_round_sphere_rule_is_built_once_and_read_only(n, budget):
    m = zoo.standard_sphere(n)
    rule = m.reference_sampler(m, budget)
    # both orders are the bits of a fresh build
    angles, factors = zoo._toric_orders(n, zoo._sample_count(budget))
    fresh = [zoo._toric_rule(np.ones(n + 1), angles, factors),
             zoo._toric_rule(np.ones(n + 1), zoo._halved(angles), zoo._halved(factors))]
    for (pts, weights, scale), (f_pts, f_weights, f_scale) in zip([rule[:3], rule[3]], fresh):
        assert pts.tobytes() == f_pts.tobytes() and weights.tobytes() == f_weights.tobytes()
        assert scale == f_scale
        for arr in (pts, weights):
            with pytest.raises(ValueError):
                arr[0] = 0.0
    # shared by every call of the same node count, a scaled form included
    scaled = m.scaled(1.7)
    again = scaled.reference_sampler(scaled, zoo._sample_count(budget))
    assert again[0] is rule[0] and again[3][0] is rule[3][0]
    first = integrate.contact_volume(m, budget=budget)
    second = integrate.contact_volume(m, budget=budget)
    uncached = integrate.apply_rule(m.contact_defect, tuple(fresh[0]) + (fresh[1],))
    assert (first.value, first.std_error) == (second.value, second.std_error)
    assert (first.value, first.std_error) == (uncached.value, uncached.std_error)


def test_sphere_dimensions():
    for n in (1, 2, 3):
        m = zoo.standard_sphere(n)
        assert m.ambient_dim == 2 * n + 2 and m.dim == 2 * n + 1
        pts = sample(m, 10, seed=n)
        assert np.allclose(np.sum(pts * pts, axis=1), 1.0, atol=1e-12)


def test_sphere_reeb_period_scales():
    assert zoo.standard_sphere(1).reeb_period == pytest.approx(math.pi)
    assert zoo.standard_sphere(1, form_scale=2.0).reeb_period == pytest.approx(2 * math.pi)


def test_weighted_sphere_level_set(golden):
    pts = sample(golden, 50)
    w = np.asarray(golden.params["weights"])
    level = math.pi * np.einsum("j,nj->n", w, pts[:, 0::2] ** 2 + pts[:, 1::2] ** 2)
    assert np.allclose(level, 1.0, atol=1e-12)


def test_weighted_closed_form_flow_solves_reeb_ode(golden):
    start = sample(golden, 1)[0]
    ts = np.linspace(0.0, 2.0, 9)
    path = zoo.weighted_flow_closed_form(golden, start, ts)
    assert path.shape == (9, 4)
    # stays on the level set
    assert np.max(np.abs(golden.constraint_residual(path))) < 1e-12
    # velocity equals the closed-form Reeb field
    h = 1e-6
    vel = (zoo.weighted_flow_closed_form(golden, start, ts[4] + h)
           - zoo.weighted_flow_closed_form(golden, start, ts[4] - h)) / (2 * h)
    assert np.max(np.abs(vel - zoo.weighted_reeb_closed_form(golden, path[4]))) < 1e-7


def _strided_rotation(pts, rates, s):
    """i diag(rates) z in real coordinates over s, entry by entry: the
    oracle for the closed-form fields' matrix product."""
    q = np.atleast_2d(pts)
    out = np.empty_like(q)
    out[:, 0::2] = -rates * q[:, 1::2]
    out[:, 1::2] = rates * q[:, 0::2]
    return out[0] / s if np.ndim(pts) == 1 else out / s


@pytest.mark.parametrize("scale", [1.0, 0.37, 2.5])
def test_closed_form_fields_equal_the_entrywise_formula(scale):
    cases = [(zoo.standard_sphere(n, form_scale=scale), zoo.sphere_reeb_closed_form,
              np.full(n + 1, 2.0)) for n in (1, 2, 3)]
    for w in ([1.0, (1.0 + math.sqrt(5.0)) / 2.0], [1.0, math.sqrt(2.0), math.sqrt(3.0)]):
        m = zoo.weighted_sphere(w, form_scale=scale)
        cases.append((m, zoo.weighted_reeb_closed_form, 2.0 * math.pi * np.asarray(w)))
    for m, field, rates in cases:
        pts = sample(m, 64, seed=3)
        batch = field(m, pts)
        assert batch.shape == pts.shape
        assert np.array_equal(batch, _strided_rotation(pts, rates, scale)), m.key()
        for i in (0, 17, 63):
            one = field(m, pts[i])
            assert one.shape == pts[i].shape
            assert np.array_equal(one, _strided_rotation(pts[i], rates, scale)), m.key()
            assert np.array_equal(one, batch[i]), m.key()


def test_closed_form_matrix_is_shared_and_read_only(golden):
    jt = zoo._rotation_transpose(golden.params["weights"], 2.0 * math.pi)
    assert zoo._rotation_transpose(golden.params["weights"], 2.0 * math.pi) is jt
    assert not jt.flags.writeable
    assert np.count_nonzero(jt, axis=1).tolist() == [1, 1, 1, 1]
    # the key of a manifold does not see the cached matrix
    assert golden.key() == "weighted-sphere(weights=(1.0, 1.618033988749895))"


def test_weighted_rejects_bad_weights():
    with pytest.raises(ValueError):
        zoo.weighted_sphere([1.0, -2.0])
    with pytest.raises(ValueError):
        zoo.torus3(0)


def test_torus_reeb_unit_speed():
    m = zoo.torus3(2)
    pts = sample(m, 40)
    reeb = zoo.torus_reeb_closed_form(m, pts)
    assert np.allclose(np.linalg.norm(reeb, axis=1), 1.0, atol=1e-14)
    assert np.allclose(reeb[:, 2], 0.0, atol=1e-14)


def test_cotangent_constraints_and_reeb(cotangent):
    pts = sample(cotangent, 40)
    q, p = pts[:, :3], pts[:, 3:]
    assert np.allclose(np.sum(q * q, axis=1), 1.0, atol=1e-11)
    assert np.allclose(np.sum(q * p, axis=1), 0.0, atol=1e-11)
    assert np.allclose(np.sum(p * p, axis=1), 1.0, atol=1e-11)  # exp(2f) = 1
    # round geodesic field: dq/dt = p, dp/dt = -q
    reeb = cotangent.reeb_field(pts)
    assert np.max(np.abs(reeb - np.column_stack([p, -q]))) < 1e-10


def test_round_geodesic_closed_form_orbits(cotangent):
    start = sample(cotangent, 1)[0]
    t = np.array([0.0, 0.5 * math.pi, 2.0 * math.pi])
    path = zoo.round_geodesic_closed_form(start, t)
    assert np.allclose(path[0], start, atol=1e-14)
    assert np.allclose(path[2], start, atol=1e-12)  # great circles close up at 2 pi
    mid = np.concatenate([start[3:], -start[:3]])
    assert np.allclose(path[1], mid, atol=1e-12)


def test_conformal_bump_changes_momentum_radius():
    m = zoo.catalog()["cotangent-bump"](strength=0.3)
    pts = sample(m, 40)
    q, p = pts[:, :3], pts[:, 3:]
    expected = np.exp(0.3 * q[:, 2])
    assert np.allclose(np.linalg.norm(p, axis=1), expected, atol=1e-10)


def test_hopf_projection_lands_on_unit_sphere(sphere):
    pts = sample(sphere, 60)
    base = zoo.hopf_projection(pts)
    assert base.shape == (60, 3)
    assert np.allclose(np.linalg.norm(base, axis=1), 1.0, atol=1e-12)


def test_hopf_projection_is_fiber_invariant(sphere):
    pts = sample(sphere, 30)
    theta = 1.234
    c, s = math.cos(theta), math.sin(theta)
    rotated = np.empty_like(pts)
    rotated[:, 0] = c * pts[:, 0] - s * pts[:, 1]
    rotated[:, 1] = s * pts[:, 0] + c * pts[:, 1]
    rotated[:, 2] = c * pts[:, 2] - s * pts[:, 3]
    rotated[:, 3] = s * pts[:, 2] + c * pts[:, 3]
    assert np.allclose(zoo.hopf_projection(rotated), zoo.hopf_projection(pts), atol=1e-12)


def test_sphere_volume_helper():
    # surface measure of S^(d-1) inside R^d
    assert zoo.sphere_volume(3) == pytest.approx(4 * math.pi, rel=1e-15)
    assert zoo.sphere_volume(4) == pytest.approx(2 * math.pi ** 2, rel=1e-15)
    assert zoo.sphere_volume(6) == pytest.approx(math.pi ** 3, rel=1e-15)
