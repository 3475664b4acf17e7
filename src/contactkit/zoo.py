"""Catalog of closed contact manifolds with explicit forms.

Each constructor returns a :class:`ContactManifold` carrying the
ambient constraints, the contact form, an orientation sign making the
contact volume density positive, and samplers used by the integration
engines.  Complex coordinates z_j = x_j + i y_j on R^(2n+2) are stored
interleaved: (x_0, y_0, x_1, y_1, ...).
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Callable, Sequence

import numpy as np
from scipy.special import ndtri
from scipy.stats import qmc

from .fields import OneForm, ScalarField
from .manifold import ContactManifold


def sphere_volume(dim_ambient: int) -> float:
    """Surface measure of the unit sphere in R^dim_ambient."""
    return 2.0 * math.pi ** (dim_ambient / 2.0) / math.gamma(dim_ambient / 2.0)


def _sobol_block(dim: int, count: int, seed: int) -> np.ndarray:
    """count scrambled Sobol points in [0,1)^dim; count a power of two."""
    eng = qmc.Sobol(d=dim, scramble=True, seed=seed)
    return eng.random_base2(int(round(math.log2(count))))


def _gaussianize(u: np.ndarray) -> np.ndarray:
    # keep ndtri away from 0/1 endpoints
    return ndtri(np.clip(u, 1e-15, 1.0 - 1e-15))


def _unit_rows(x: np.ndarray) -> np.ndarray:
    return x / np.linalg.norm(x, axis=1)[:, None]


# round spheres


def _sphere_reference(m: ContactManifold, count: int, seed: int):
    u = _sobol_block(m.ambient_dim, count, seed)
    pts = _unit_rows(_gaussianize(u))
    return pts, np.ones(count), sphere_volume(m.ambient_dim)


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

    def coefs(coords):
        out = []
        for j in range(n + 1):
            x, y = coords[2 * j], coords[2 * j + 1]
            out.extend([-0.5 * y, 0.5 * x])
        return out

    m = ContactManifold(
        name="sphere", n=n, ambient_dim=d,
        form=OneForm(coefs, d, name="standard"),
        constraints=(ScalarField(radius, d, name="|z|^2-1"),),
        frame_sign=1,
        reeb_period=math.pi,
        params={"n": n},
        reference_sampler=_sphere_reference,
        test_sampler=_sphere_test_points,
    )
    return m.scaled(form_scale) if form_scale != 1.0 else m


def sphere_reeb_closed_form(m: ContactManifold, pts) -> np.ndarray:
    """2iz in real coordinates, divided by the form scale."""
    s = m.params.get("form_scale", 1.0)
    pts = np.asarray(pts, dtype=float)
    scalar = pts.ndim == 1
    q = np.atleast_2d(pts)
    out = np.empty_like(q)
    out[:, 0::2] = -2.0 * q[:, 1::2]
    out[:, 1::2] = 2.0 * q[:, 0::2]
    return out[0] / s if scalar else out / s


# flat three-torus


def _torus_test_points(m: ContactManifold, count: int, rng) -> np.ndarray:
    return rng.uniform(0.0, m.period, size=(count, 3))


def _torus_reference(m: ContactManifold, count: int, seed: int):
    pts = m.period * _sobol_block(3, count, seed)
    return pts, np.ones(count), m.period ** 3


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


def _ellipsoid_reference(m: ContactManifold, count: int, seed: int):
    axes = _ellipsoid_axes(m.params["weights"])
    u = _unit_rows(_gaussianize(_sobol_block(m.ambient_dim, count, seed)))
    pts = u * axes[None, :]
    # surface-measure distortion of a linear map on the unit sphere
    weights = np.prod(axes) * np.linalg.norm(u / axes[None, :], axis=1)
    return pts, weights, sphere_volume(m.ambient_dim)


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

    def coefs(coords):
        out = []
        for j in range(n + 1):
            x, y = coords[2 * j], coords[2 * j + 1]
            out.extend([-0.5 * y, 0.5 * x])
        return out

    period = 1.0 / w[0] if len(set(w)) == 1 else None
    m = ContactManifold(
        name="weighted-sphere", n=n, ambient_dim=d,
        form=OneForm(coefs, d, name="standard"),
        constraints=(ScalarField(level, d, name="H_w-1"),),
        frame_sign=1,
        reeb_period=period,
        params={"weights": w},
        reference_sampler=_ellipsoid_reference,
        test_sampler=_ellipsoid_test_points,
    )
    return m.scaled(form_scale) if form_scale != 1.0 else m


def weighted_reeb_closed_form(m: ContactManifold, pts) -> np.ndarray:
    """2 pi i diag(w) z in real coordinates, divided by the form scale."""
    s = m.params.get("form_scale", 1.0)
    w = np.asarray(m.params["weights"], dtype=float)
    pts = np.asarray(pts, dtype=float)
    scalar = pts.ndim == 1
    q = np.atleast_2d(pts)
    out = np.empty_like(q)
    out[:, 0::2] = -2.0 * math.pi * w[None, :] * q[:, 1::2]
    out[:, 1::2] = 2.0 * math.pi * w[None, :] * q[:, 0::2]
    return out[0] / s if scalar else out / s


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


def _cotangent_reference(m: ContactManifold, count: int, seed: int):
    from .dual import Dual, epsilon, value

    chart = _cotangent_chart(m.params["conformal_exponent"])
    u = _sobol_block(4, count, seed)
    g = _gaussianize(u[:, :3])
    q = _unit_rows(g)
    theta = 2.0 * math.pi * u[:, 3]

    base = chart(q[:, 0], q[:, 1], q[:, 2], theta)
    pts = np.column_stack([np.asarray(value(c), dtype=float) for c in base])

    # Jacobian of the chart against dA x dtheta via three dual passes:
    # two orthonormal base directions and the fiber angle
    uq, vq = _base_frame(q[:, 0], q[:, 1], q[:, 2])
    cols = []
    for direction in (uq, vq):
        seeded = chart(Dual(q[:, 0], direction[0]), Dual(q[:, 1], direction[1]),
                       Dual(q[:, 2], direction[2]), theta)
        cols.append(np.column_stack([np.asarray(epsilon(c), dtype=float) + 0.0 * theta
                                     for c in seeded]))
    seeded = chart(q[:, 0], q[:, 1], q[:, 2], Dual(theta, np.ones(count)))
    cols.append(np.column_stack([np.asarray(epsilon(c), dtype=float) + 0.0 * theta
                                 for c in seeded]))
    jac = np.stack(cols, axis=1)
    gram = np.einsum("nia,nja->nij", jac, jac)
    weights = np.sqrt(np.linalg.det(gram))
    return pts, weights, 4.0 * math.pi * 2.0 * math.pi


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

    m = ContactManifold(
        name=f"cotangent-{label}", n=1, ambient_dim=6,
        form=OneForm(coefs, 6, name="p.dq"),
        constraints=(ScalarField(sphere_constraint, 6, name="|q|^2-1"),
                     ScalarField(orthogonality, 6, name="q.p"),
                     ScalarField(unit_momentum, 6, name="|p|_g-1")),
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
