"""Catalog of closed contact manifolds with explicit forms.

Each constructor returns a :class:`ContactManifold` carrying the
ambient constraints, the contact form, an orientation sign making the
contact volume density positive, a test sampler, and the quadrature
rule ``reference_sampler(m, budget) -> (points, weights or None, scale,
companion)`` of ``integrate``; the companion (points, weights or None,
scale) is the same rule at halved orders, for the error.  Every rule is
a deterministic product rule: round spheres and ellipsoids take
Gauss-Jacobi on the simplex of the |z_j|^2 times uniform angle grids
(see _toric_reference), a round sphere's built once per dimension and
node count and shared read-only (see _sphere_rule), an ellipsoid's on
each call; the flat torus takes a product trapezoid grid;
the cotangent bundle takes Gauss-Legendre in cos(theta) times uniform
grids in the azimuth and the fiber angle (see _cotangent_reference).
Complex coordinates z_j = x_j + i y_j on R^(2n+2) are stored
interleaved: (x_0, y_0, x_1, y_1, ...).
"""

from __future__ import annotations

import math
from dataclasses import replace
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np
from scipy.special import roots_sh_jacobi

from .fields import OneForm, ScalarField
from .manifold import ContactManifold


def sphere_volume(dim_ambient: int) -> float:
    """Surface measure of the unit sphere in R^dim_ambient."""
    return 2.0 * math.pi ** (dim_ambient / 2.0) / math.gamma(dim_ambient / 2.0)


def _sample_count(budget) -> int:
    """The next power of two >= budget, at least 2^8: the node count of a
    rule, whose per-axis orders are then powers of two."""
    return 1 << max(8, (max(1, math.ceil(budget)) - 1).bit_length())


def _unit_rows(x: np.ndarray) -> np.ndarray:
    return x / np.linalg.norm(x, axis=1)[:, None]


# toric product rule on spheres and ellipsoids


@lru_cache(maxsize=None)
def _simplex_factor(order: int, power: int) -> tuple:
    """Nodes and weights of the order-point Gauss rule for the weight
    (1 - u)^power on [0, 1] (shifted Gauss-Jacobi), read-only; the weights
    sum to 1 / (power + 1)."""
    u, w = roots_sh_jacobi(order, power + 1, 1)
    u.flags.writeable = w.flags.writeable = False
    return u, w


def _halved(orders: list) -> list:
    """The companion's orders: every order above 1 halved."""
    return [max(1, g // 2) for g in orders]


def _toric_orders(n: int, count: int) -> tuple:
    """Per-axis orders of the toric rule with count = 2^e nodes on S^(2n+1).

    The 2n+1 axes, in the order angles phi_0..phi_n, then simplex factors
    1..n, take floor(e / (2n+1)) bits each, and the first e mod (2n+1) of
    them one bit more: S^3 at 2^16 has 64 and 32 angles and 32 simplex
    nodes, S^5 at 2^15 has 8 on every axis, S^7 at 2^13 has 4 angles per
    axis and 4, 4, 2 simplex nodes.
    """
    base, extra = divmod(count.bit_length() - 1, 2 * n + 1)
    orders = [1 << (base + (i < extra)) for i in range(2 * n + 1)]
    return orders[:n + 1], orders[n + 1:]


def _toric_rule(a: np.ndarray, angles: list, factors: list) -> tuple:
    """(points, weights, scale) of the product rule with the given angle and
    simplex-factor orders on the level set sum_j |z_j|^2 / a_j^2 = 1.

    Its nodes are z_j = a_j sqrt(r_j) exp(i phi_j).  r runs over the
    conical product of the simplex: factor i's node u_i takes the share
    u_i of the mass the earlier factors left, r_i = u_i prod_(l<i) (1 - u_l),
    and r_0 is the rest; the map's Jacobian prod_i (1 - u_i)^(n-i) is factor i's
    Jacobi weight.  phi_j runs over the uniform grid of angles[j] points.
    The surface measure is 2^-n dr dphi on the unit sphere, and the linear
    map onto the level set multiplies it by prod(a) sqrt(sum_j r_j / a_j^2),
    prod(a) over the real coordinates, which depends on the simplex node
    alone.  So scale = 2 pi^(n+1) / prod(angles) and the weights are the
    Gauss weights times that factor.  Only elementwise operations build
    the rule, so its bits do not depend on the BLAS.
    """
    n = len(factors)
    rest, gauss, radii = np.ones(1), np.ones(1), []
    for i, g in enumerate(factors, 1):
        u, w = _simplex_factor(g, n - i)
        radii = [np.repeat(r, g) for r in radii] + [np.multiply.outer(rest, u).ravel()]
        rest = np.multiply.outer(rest, 1.0 - u).ravel()
        gauss = np.multiply.outer(gauss, w).ravel()
    radii.insert(0, rest)
    stretch = sum(r / (aj * aj) for r, aj in zip(radii, a))
    gauss = gauss * (math.prod(aj * aj for aj in a) * np.sqrt(stretch))
    # one contiguous plane per coordinate, read as the columns of the points,
    # as the density and the integrand read them
    planes = np.empty((2 * n + 2, gauss.size) + tuple(angles))
    for j, (r, m) in enumerate(zip(radii, angles)):
        rho = (a[j] * np.sqrt(r)).reshape((-1,) + (1,) * (n + 1))
        phi = (np.arange(m) * (2.0 * math.pi / m)).reshape((m,) + (1,) * (n - j))
        # products on the (simplex node, phi_j) grid, broadcast over the other angles
        planes[2 * j] = rho * np.cos(phi)
        planes[2 * j + 1] = rho * np.sin(phi)
    weights = np.repeat(gauss, math.prod(angles))
    return (planes.reshape(2 * n + 2, -1).T, weights,
            2.0 * math.pi ** (n + 1) / math.prod(angles))


def _toric_reference(a: np.ndarray, budget: int) -> tuple:
    """The deterministic rule of ``integrate`` on sum_j |z_j|^2 / a_j^2 = 1:
    the toric product rule (see _toric_rule) with _sample_count(budget)
    nodes split by _toric_orders, and as its companion the same rule with
    every order above 1 halved.

    It is exact on polynomials in z and conj(z) once the grids resolve
    them: phi_j's grid integrates e^(i k phi_j) exactly for |k| below its
    order, and g Gauss nodes integrate polynomials of degree 2g - 1 in u,
    so a product of k quadratic moment Hamiltonians needs more than k
    angles per axis and k/2 nodes per factor (Stroud 1971, ch. 2-3).  The
    error estimate of ``integrate`` takes the companion's gap.  Each call
    builds the rule afresh; the round spheres share theirs, built once and
    read-only (see _sphere_rule).
    """
    angles, factors = _toric_orders(len(a) - 1, _sample_count(budget))
    return _toric_rule(a, angles, factors) + (_toric_rule(a, _halved(angles), _halved(factors)),)


# the two-sphere: the base of the Hopf bundle and of the cotangent bundle


def _s2_rule(polar: int, azimuth: int, area: float) -> tuple:
    """(points, weights, scale) of the product rule on the unit sphere in R^3
    for the multiple of its area measure whose total is area.

    t = cos(theta) = 2u - 1 runs over the polar-point Gauss-Legendre rule
    (_simplex_factor(polar, 0), whose weights sum to 1) and phi over the
    uniform grid of azimuth angles; the area element is dt dphi, so
    scale = area / azimuth and the weights are the Gauss weights.  It
    integrates polynomials of degree below min(2 polar, azimuth) exactly,
    and only elementwise operations build it, as _toric_rule.
    """
    u, w = _simplex_factor(polar, 0)
    s = 2.0 * np.sqrt(u * (1.0 - u))  # sin(theta)
    phi = np.arange(azimuth) * (2.0 * math.pi / azimuth)
    pts = np.column_stack([np.multiply.outer(s, np.cos(phi)).ravel(),
                           np.multiply.outer(s, np.sin(phi)).ravel(),
                           np.repeat(2.0 * u - 1.0, azimuth)])
    return pts, np.repeat(w, azimuth), area / azimuth


def _s2_reference(budget: int, area: float) -> tuple:
    """The S^2 rule (see _s2_rule) with count = _sample_count(budget) nodes,
    and its companion at halved orders.  The polar axis takes the simplex
    factor's order of _toric_orders(1, count), as on the cotangent bundle,
    and the azimuth the rest: scipy's Gauss nodes lose digits above order
    64 (the moment of t^2 is off by 4.4e-14 relative at 128 nodes), and the
    uniform grid does not."""
    angles, (polar,) = _toric_orders(1, _sample_count(budget))
    orders = [polar, math.prod(angles)]
    return _s2_rule(*orders, area) + (_s2_rule(*_halved(orders), area),)


# round spheres


@lru_cache(maxsize=8)
def _sphere_rule(n: int, count: int) -> tuple:
    """The toric rule (see _toric_reference) with count nodes on the unit
    S^(2n+1), built once and shared by every call: its arrays are
    read-only, and ``integrate`` reads its chunks in place, with the bits
    of a fresh build.  At most 8 (n, count) pairs are kept, which bounds
    the memory the rules hold."""
    rule = _toric_reference(np.ones(n + 1), count)
    pts, weights, _, (coarse_pts, coarse_weights, _) = rule
    for arr in (pts, weights, coarse_pts, coarse_weights):
        arr.flags.writeable = False
    return rule


def _sphere_reference(m: ContactManifold, budget: int):
    """The toric rule (see _toric_reference) on the unit sphere, shared by
    every call of the same node count (see _sphere_rule)."""
    return _sphere_rule(m.n, _sample_count(budget))


def _sphere_test_points(m: ContactManifold, count: int, rng) -> np.ndarray:
    return _unit_rows(rng.normal(size=(count, m.ambient_dim)))


def standard_sphere(n: int = 1, form_scale: float = 1.0) -> ContactManifold:
    """Unit sphere S^(2n+1) with the standard form (1/2) sum (x dy - y dx).

    Its Reeb field is z -> 2iz (after dividing by form_scale), so the
    Reeb flow is the circle z -> exp(2it/s) z of period pi * s.
    """
    d = 2 * (n + 1)

    def radius(coords):
        return sum(c * c for c in coords) - 1.0

    m = ContactManifold(
        name="sphere", n=n, ambient_dim=d,
        form=_standard_form(n),
        constraints=(ScalarField(radius, d, name="|z|^2-1",
                                 gradient_map=(2.0 * np.eye(d), np.zeros(d))),),
        frame_sign=1,
        reeb_period=math.pi,
        params={"n": n},
        reference_sampler=_sphere_reference,
        test_sampler=_sphere_test_points,
    )
    return m.scaled(form_scale) if form_scale != 1.0 else m


@lru_cache(maxsize=None)
def _rotation_transpose(weights: tuple, rate: float) -> np.ndarray:
    """J^T for z -> i rate diag(weights) z in real coordinates, so the field
    at points q is q @ J^T; built once per weight tuple and read-only, since
    every call shares it.  Each row has one non-zero entry, so the product
    equals the entrywise formula (an exact zero may change sign)."""
    jt = np.zeros((2 * len(weights),) * 2)
    for j, w in enumerate(weights):
        jt[2 * j + 1, 2 * j] = -(rate * w)
        jt[2 * j, 2 * j + 1] = rate * w
    jt.flags.writeable = False
    return jt


def _standard_form(n: int) -> OneForm:
    """(1/2) sum (x dy - y dx) on R^(2n+2); its coefficients are x @ J^T, J: z -> iz/2."""

    def coefs(coords):
        out = []
        for j in range(n + 1):
            out.extend([-0.5 * coords[2 * j + 1], 0.5 * coords[2 * j]])
        return out

    jt = _rotation_transpose((1.0,) * (n + 1), 0.5)
    return OneForm(coefs, 2 * n + 2, name="standard", coefficient_map=(jt, np.zeros(2 * n + 2)))


def sphere_reeb_closed_form(m: ContactManifold, pts) -> np.ndarray:
    """2iz in real coordinates, divided by the form scale."""
    jt = _rotation_transpose((1.0,) * (m.n + 1), 2.0)
    return (np.asarray(pts, dtype=float) @ jt) / m.params.get("form_scale", 1.0)


# flat three-torus


def _torus_test_points(m: ContactManifold, count: int, rng) -> np.ndarray:
    return rng.uniform(0.0, m.period, size=(count, 3))


def _torus_grid(m: ContactManifold, nodes: int) -> tuple:
    """(points, None, scale) of the product trapezoid grid of nodes per axis."""
    d = m.ambient_dim
    ticks = np.arange(nodes) * (m.period / nodes)
    grids = np.meshgrid(*([ticks] * d), indexing="ij")
    pts = np.column_stack([g.ravel() for g in grids])
    return pts, None, (m.period / nodes) ** d


def _torus_reference(m: ContactManifold, budget: int):
    """Product trapezoid grid of max(9, round(budget^(1/3))) nodes per axis,
    exact on trigonometric polynomials of bandwidth below the node count,
    and its companion of half as many nodes per axis."""
    nodes = max(9, int(round(budget ** (1.0 / m.ambient_dim))))
    return _torus_grid(m, nodes) + (_torus_grid(m, nodes // 2),)


def torus3(winding: int = 1) -> ContactManifold:
    """T^3 = (R/2piZ)^3 with form cos(k t) dx - sin(k t) dy.

    The volume density against dx dy dt is the winding number k.
    """
    if winding < 1:
        raise ValueError("winding must be a positive integer")
    k = int(winding)

    def coefs(coords):
        x, y, t = coords
        return [np.cos(k * t), -np.sin(k * t), 0.0 * t]

    return ContactManifold(
        name="torus3", n=1, ambient_dim=3,
        form=OneForm(coefs, 3, name=f"winding-{k}"),
        constraints=(),
        periodic=True, period=2.0 * math.pi,
        frame_sign=1,
        params={"winding": k},
        reference_sampler=_torus_reference,
        test_sampler=_torus_test_points,
    )


def torus_reeb_closed_form(m: ContactManifold, pts) -> np.ndarray:
    s = m.params.get("form_scale", 1.0)
    k = m.params["winding"]
    pts = np.asarray(pts, dtype=float)
    scalar = pts.ndim == 1
    q = np.atleast_2d(pts)
    out = np.column_stack([np.cos(k * q[:, 2]), -np.sin(k * q[:, 2]),
                           np.zeros(q.shape[0])])
    return out[0] / s if scalar else out / s


def degenerate_torus() -> ContactManifold:
    """T^3 with the non-contact form dx; a validation fixture."""

    def coefs(coords):
        x, y, t = coords
        return [1.0 + 0.0 * t, 0.0 * t, 0.0 * t]

    return ContactManifold(
        name="degenerate-torus", n=1, ambient_dim=3,
        form=OneForm(coefs, 3, name="dx"),
        constraints=(),
        periodic=True, period=2.0 * math.pi,
        frame_sign=1,
        params={},
        reference_sampler=_torus_reference,
        test_sampler=_torus_test_points,
    )


# weighted spheres (ellipsoid level sets of quadratic Hamiltonians)


def _ellipsoid_axes(weights: Sequence[float]) -> np.ndarray:
    # semi-axis per real coordinate: 1/sqrt(pi w_j), repeated for x and y
    return np.repeat(1.0 / np.sqrt(math.pi * np.asarray(weights, dtype=float)), 2)


def _ellipsoid_reference(m: ContactManifold, budget: int):
    """The toric rule (see _toric_reference) on the ellipsoid."""
    return _toric_reference(_ellipsoid_axes(m.params["weights"])[0::2], budget)


def _ellipsoid_test_points(m: ContactManifold, count: int, rng) -> np.ndarray:
    axes = _ellipsoid_axes(m.params["weights"])
    return _unit_rows(rng.normal(size=(count, m.ambient_dim))) * axes[None, :]


def weighted_sphere(weights: Sequence[float], form_scale: float = 1.0) -> ContactManifold:
    """Level set pi sum w_j |z_j|^2 = 1 with the restricted standard form.

    The Reeb flow rotates each complex plane: z_j -> exp(2 pi i w_j t) z_j.
    """
    w = tuple(float(x) for x in weights)
    if any(x <= 0 for x in w):
        raise ValueError("weights must be positive")
    n = len(w) - 1
    d = 2 * (n + 1)

    def level(coords):
        return math.pi * sum(
            w[j] * (coords[2 * j] * coords[2 * j] + coords[2 * j + 1] * coords[2 * j + 1])
            for j in range(n + 1)) - 1.0

    period = 1.0 / w[0] if len(set(w)) == 1 else None
    m = ContactManifold(
        name="weighted-sphere", n=n, ambient_dim=d,
        form=_standard_form(n),
        constraints=(ScalarField(level, d, name="H_w-1", gradient_map=(
            np.diag(np.repeat(2.0 * math.pi * np.asarray(w), 2)), np.zeros(d))),),
        frame_sign=1,
        reeb_period=period,
        params={"weights": w},
        reference_sampler=_ellipsoid_reference,
        test_sampler=_ellipsoid_test_points,
    )
    return m.scaled(form_scale) if form_scale != 1.0 else m


def weighted_reeb_closed_form(m: ContactManifold, pts) -> np.ndarray:
    """2 pi i diag(w) z in real coordinates, divided by the form scale."""
    jt = _rotation_transpose(m.params["weights"], 2.0 * math.pi)
    return (np.asarray(pts, dtype=float) @ jt) / m.params.get("form_scale", 1.0)


def weighted_flow_closed_form(m: ContactManifold, start, t) -> np.ndarray:
    """Exact Reeb orbit of the weighted sphere; t scalar or (T,) array."""
    s = m.params.get("form_scale", 1.0)
    w = np.asarray(m.params["weights"], dtype=float)
    start = np.asarray(start, dtype=float)
    t = np.asarray(t, dtype=float)
    phase = 2.0 * math.pi * np.multiply.outer(t, w) / s
    c, sn = np.cos(phase), np.sin(phase)
    out = np.empty(t.shape + start.shape)
    out[..., 0::2] = c * start[0::2] - sn * start[1::2]
    out[..., 1::2] = sn * start[0::2] + c * start[1::2]
    return out


# unit cotangent bundle of the two-sphere, embedded in R^6 as (q, p)


_CHART_ANCHOR = np.array([0.23861918608567582, -0.60817270944754278, 0.75715229463047575])


def _base_frame(q1, q2, q3):
    """Smooth orthonormal frame of q-perp, dual-safe; undefined on the
    measure-zero circle where q is parallel to the anchor."""
    a1, a2, a3 = _CHART_ANCHOR
    u1 = a2 * q3 - a3 * q2
    u2 = a3 * q1 - a1 * q3
    u3 = a1 * q2 - a2 * q1
    nu = np.sqrt(u1 * u1 + u2 * u2 + u3 * u3)
    u1, u2, u3 = u1 / nu, u2 / nu, u3 / nu
    v1 = q2 * u3 - q3 * u2
    v2 = q3 * u1 - q1 * u3
    v3 = q1 * u2 - q2 * u1
    return (u1, u2, u3), (v1, v2, v3)


def _cotangent_chart(f: Callable):
    """Map (raw q in R^3, theta) -> (q, p) on the unit cotangent bundle."""

    def chart(c1, c2, c3, theta):
        nq = np.sqrt(c1 * c1 + c2 * c2 + c3 * c3)
        q1, q2, q3 = c1 / nq, c2 / nq, c3 / nq
        u, v = _base_frame(q1, q2, q3)
        r = np.exp(f(q1, q2, q3))
        ct, st = np.cos(theta), np.sin(theta)
        p = [r * (ct * u[i] + st * v[i]) for i in range(3)]
        return [q1, q2, q3] + p

    return chart


def _cotangent_rule(chart: Callable, polar: int, azimuth: int, fiber: int) -> tuple:
    """(points, weights, scale) of the S^2 rule (see _s2_rule) in q times the
    uniform grid of fiber angles theta, pushed through the chart.

    The weights are the S^2 rule's times the chart's Jacobian against
    dA x dtheta, sqrt(det G) of the Gram matrix G of its derivatives along
    two orthonormal base directions and theta, so the density stays in the
    integrand.  On the round bundle a product of moment Hamiltonians is a
    trigonometric polynomial in theta whose fiber mean is a polynomial in
    q, so the grids integrate it exactly once they resolve its degree.
    """
    from .dual import epsilon, seed as seeded_along, value

    base, gauss, scale = _s2_rule(polar, azimuth, 4.0 * math.pi)
    count = len(base) * fiber
    q = np.repeat(base, fiber, axis=0)
    theta = np.tile(np.arange(fiber) * (2.0 * math.pi / fiber), len(base))

    # the chart and its Jacobian against dA x dtheta in one pass, seeded
    # along two orthonormal base directions and the fiber angle
    uq, vq = _base_frame(q[:, 0], q[:, 1], q[:, 2])
    zeros, ones = np.zeros(count), np.ones(count)
    seeded = chart(*seeded_along([q[:, 0], q[:, 1], q[:, 2], theta],
                                 [np.stack([uq[i], vq[i], zeros]) for i in range(3)]
                                 + [np.stack([zeros, zeros, ones])]))
    pts = np.column_stack([value(c) for c in seeded])
    jac = np.stack([np.broadcast_to(epsilon(c), (3, count)) for c in seeded], axis=-1)
    jac = np.swapaxes(jac, 0, 1)
    gram = np.einsum("nia,nja->nij", jac, jac)
    weights = np.repeat(gauss, fiber) * np.sqrt(np.linalg.det(gram))
    return pts, weights, scale * (2.0 * math.pi / fiber)


def _cotangent_reference(m: ContactManifold, budget: int):
    """The cotangent rule (see _cotangent_rule) with _sample_count(budget)
    nodes, split by _toric_orders(1, count) into azimuth and fiber angles
    and polar nodes, and its companion at halved orders."""
    chart = _cotangent_chart(m.params["conformal_exponent"])
    (azimuth, fiber), (polar,) = _toric_orders(1, _sample_count(budget))
    orders = [polar, azimuth, fiber]
    return _cotangent_rule(chart, *orders) + (_cotangent_rule(chart, *_halved(orders)),)


def _cotangent_test_points(m: ContactManifold, count: int, rng) -> np.ndarray:
    from .dual import value

    chart = _cotangent_chart(m.params["conformal_exponent"])
    q = _unit_rows(rng.normal(size=(count, 3)))
    theta = rng.uniform(0.0, 2.0 * math.pi, size=count)
    cols = chart(q[:, 0], q[:, 1], q[:, 2], theta)
    return np.column_stack([np.asarray(value(c), dtype=float) for c in cols])


def unit_cotangent_sphere(conformal_exponent: Callable = None,
                          label: str = "round") -> ContactManifold:
    """Unit cotangent bundle of S^2 with metric exp(2f) * round.

    Points are (q, p) in R^6 with |q| = 1, q . p = 0 and
    |p| = exp(f(q)); the form is p . dq.  The Reeb flow is the
    unit-speed geodesic flow of the metric.  The key records ``label``
    but not f, so a caller passing f records the scalars that fix it
    (see ``_cotangent_bump``).
    """
    f = conformal_exponent if conformal_exponent is not None else (lambda q1, q2, q3: 0.0 * q1)

    def sphere_constraint(coords):
        q1, q2, q3 = coords[:3]
        return q1 * q1 + q2 * q2 + q3 * q3 - 1.0

    def orthogonality(coords):
        return coords[0] * coords[3] + coords[1] * coords[4] + coords[2] * coords[5]

    def unit_momentum(coords):
        q1, q2, q3 = coords[:3]
        p1, p2, p3 = coords[3:]
        scale = np.exp(-2.0 * f(q1, q2, q3))
        return scale * (p1 * p1 + p2 * p2 + p3 * p3) - 1.0

    def coefs(coords):
        zero = 0.0 * coords[0]
        return [coords[3], coords[4], coords[5], zero, zero, zero]

    # for the round metric |p|_g - 1 = |p|^2 - 1 is quadratic, with gradient (0, 2p)
    momentum_map = (None if conformal_exponent is not None
                    else (np.diag([0.0] * 3 + [2.0] * 3), np.zeros(6)))
    m = ContactManifold(
        name=f"cotangent-{label}", n=1, ambient_dim=6,
        form=OneForm(coefs, 6, name="p.dq", coefficient_map=(np.eye(6, k=-3), np.zeros(6))),
        constraints=(ScalarField(sphere_constraint, 6, name="|q|^2-1",
                                 gradient_map=(np.diag([2.0] * 3 + [0.0] * 3), np.zeros(6))),
                     ScalarField(orthogonality, 6, name="q.p",
                                 gradient_map=(np.roll(np.eye(6), 3, axis=1), np.zeros(6))),
                     ScalarField(unit_momentum, 6, name="|p|_g-1", gradient_map=momentum_map)),
        frame_sign=1,
        params={"label": label, "conformal_exponent": f},
        reference_sampler=_cotangent_reference,
        test_sampler=_cotangent_test_points,
    )
    # calibrate the orientation sign against the contact volume density
    ref = np.array([1.0, 0.0, 0.0, 0.0, float(np.exp(f(1.0, 0.0, 0.0))), 0.0])
    if m.contact_defect(ref) < 0:
        m = replace(m, frame_sign=-1)
    return m


def round_geodesic_closed_form(start, t) -> np.ndarray:
    """Great-circle flow on the round unit cotangent bundle; t scalar or (T,)."""
    start = np.asarray(start, dtype=float)
    t = np.asarray(t, dtype=float)
    q0, p0 = start[:3], start[3:]
    c, s = np.cos(t)[..., None], np.sin(t)[..., None]
    return np.concatenate([q0 * c + p0 * s, p0 * c - q0 * s], axis=-1)


# Hopf fibration S^3 -> S^2


def hopf_components(coords):
    """Components of the Hopf projection, dual-safe."""
    x0, y0, x1, y1 = coords
    return [2.0 * (x0 * x1 + y0 * y1),
            2.0 * (y0 * x1 - x0 * y1),
            x0 * x0 + y0 * y0 - x1 * x1 - y1 * y1]


def hopf_projection(pts) -> np.ndarray:
    """(2 Re z0 conj(z1), 2 Im z0 conj(z1), |z0|^2 - |z1|^2)."""
    pts = np.asarray(pts, dtype=float)
    scalar = pts.ndim == 1
    q = np.atleast_2d(pts)
    out = np.column_stack(hopf_components([q[:, a] for a in range(4)]))
    return out[0] if scalar else out


def _cotangent_bump(strength=0.1) -> ContactManifold:
    """Cotangent bundle with conformal exponent f(q) = strength * q3."""
    s = float(strength)
    m = unit_cotangent_sphere(lambda q1, q2, q3: s * q3, label="bump")
    return replace(m, params={**m.params, "strength": s})


def catalog() -> dict:
    """Named constructors for the command-line interface."""
    return {
        "sphere": lambda n=1: standard_sphere(int(n)),
        "torus3": lambda winding=1: torus3(int(winding)),
        "weighted": lambda weights="1,1": weighted_sphere(
            [float(x) for x in str(weights).split(",")]),
        "cotangent-round": lambda: unit_cotangent_sphere(),
        "cotangent-bump": _cotangent_bump,
        "degenerate-torus": lambda: degenerate_torus(),
    }
