"""The circle-bundle pipeline over the two-sphere base.

The odd sphere fibers over the projective line by the fiber map
(2 Re z0 conj(z1), 2 Im z0 conj(z1), |z0|^2 - |z1|^2); the exterior
derivative of the contact form descends to a multiple of the base area
form.  That multiple is fitted numerically from random tangent pairs,
never assumed, and everything downstream (fiber integration constant,
normalized Hamiltonians, the lower-order correction to the invariant
polynomials, the bundle's integer invariant) is expressed through it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .dual import Dual, epsilon, value
from .fields import ScalarField
from .hamiltonian import Hamiltonian, hamiltonian
from .integrate import IntegralResult, apply_rule, integrate
from .manifold import ContactManifold, GeometryError
from .zoo import hopf_components, hopf_projection, standard_sphere, _s2_reference


class FiberError(GeometryError):
    """A Hamiltonian expected to be constant on fibers is not."""


@dataclass(frozen=True)
class Prequantization:
    """Circle bundle data: total space, fiber map, and fitted base 2-form.

    The base 2-form is omega = omega_scale times the round area form of
    the unit 2-sphere, oriented so omega is positive; orientation_sign
    records the sign of the raw fit against the outward orientation.
    curvature_dispersion is the relative spread of the pointwise ratio
    d(form) / (pullback of the area form), which the bundle identity
    requires to be constant.
    """

    total: ContactManifold
    projection: Callable
    omega_scale: float
    orientation_sign: int
    fiber_period: float
    curvature_dispersion: float

    @property
    def omega_total(self) -> float:
        """Integral of omega over the base sphere."""
        return 4.0 * math.pi * self.omega_scale

    @property
    def normalized(self) -> bool:
        """True when the fiber period is 2 pi."""
        return abs(self.fiber_period - 2.0 * math.pi) <= 1e-9


def _projection_differential(pts: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """Pushforward of tangent vectors under the fiber map."""
    coords = [Dual(pts[:, a], vecs[:, a]) for a in range(4)]
    comps = hopf_components(coords)
    return np.column_stack([np.asarray(value(epsilon(c)), dtype=float)
                            for c in comps])


def hopf_prequantization(scale: float = 1.0, samples: int = 256,
                         seed: int = 0) -> Prequantization:
    """Fit the circle-bundle structure on the 3-sphere with form scale s.

    Samples random tangent pairs, compares d(form) with the pullback of
    the round area form of the base, and requires the pointwise ratio to
    be constant to 1e-8; the fitted constant defines omega.
    """
    total = standard_sphere(1, form_scale=scale)
    rng = np.random.default_rng(seed)
    pts = total.random_points(samples, rng)
    u = total.random_tangents(pts, rng)
    w = total.random_tangents(pts, rng)
    top = total.form.two_form(pts, u, w)
    base = hopf_projection(pts)
    du = _projection_differential(pts, u)
    dw = _projection_differential(pts, w)
    # area form of the unit sphere at b on pushforwards: b . (du x dw)
    bottom = np.einsum("na,na->n", base, np.cross(du, dw))
    good = np.abs(bottom) > 1e-3 * np.max(np.abs(bottom))
    ratios = top[good] / bottom[good]
    c = float(np.mean(ratios))
    dispersion = float(np.max(np.abs(ratios - c))) / max(abs(c), 1e-300)
    if dispersion > 1e-8:
        raise GeometryError(
            f"curvature is not a constant multiple of the area form: "
            f"dispersion {dispersion:.3e}")
    period = total.reeb_period if total.reeb_period is not None else math.pi * scale
    return Prequantization(total, hopf_projection, abs(c),
                           1 if c > 0 else -1, float(period), dispersion)


def base_integral(preq: Prequantization, fields: Sequence, budget: int = 1 << 16,
                  seed: int = 0) -> IntegralResult:
    """Integral of a product of base functions against omega.

    omega = omega_scale x (round area form), so the value is
    omega_scale x 4 pi x (spherical mean of the product), on the S^2
    product rule of _sample_count(budget) nodes, Gauss-Legendre in
    cos(theta) times a uniform azimuth grid, whose companion gives the
    error (see zoo._s2_reference); seed is ignored.
    """
    def product(block):
        vals = np.ones(len(block))
        for f in fields:
            vals = vals * np.asarray(f(block), dtype=float)
        return vals

    return apply_rule(product, _s2_reference(budget, preq.omega_total))


def section(preq: Prequantization, base_pts) -> np.ndarray:
    """A point in the fiber over each base point (branch-switching section)."""
    b = np.atleast_2d(np.asarray(base_pts, dtype=float))
    scalar = np.asarray(base_pts).ndim == 1
    out = np.empty((len(b), 4))
    north = b[:, 2] >= 0.0
    # |z0|^2 = (1+b3)/2, |z1|^2 = (1-b3)/2; fix the phase of the larger one
    r0 = np.sqrt(np.clip((1.0 + b[:, 2]) / 2.0, 0.0, None))
    r1 = np.sqrt(np.clip((1.0 - b[:, 2]) / 2.0, 0.0, None))
    # northern branch: z0 = r0 real, z1 = (b1 - i b2) / (2 r0)
    safe0 = np.where(north, np.maximum(r0, 1e-300), 1.0)
    out[north, 0] = r0[north]
    out[north, 1] = 0.0
    out[north, 2] = b[north, 0] / (2.0 * safe0[north])
    out[north, 3] = -b[north, 1] / (2.0 * safe0[north])
    # southern branch: z1 = r1 real, z0 = (b1 + i b2) / (2 r1)
    south = ~north
    safe1 = np.where(south, np.maximum(r1, 1e-300), 1.0)
    out[south, 0] = b[south, 0] / (2.0 * safe1[south])
    out[south, 1] = b[south, 1] / (2.0 * safe1[south])
    out[south, 2] = r1[south]
    out[south, 3] = 0.0
    return out[0] if scalar else out


def lift(preq: Prequantization, h, name: str = "") -> Hamiltonian:
    """Pull a base function back to a fiber-invariant Hamiltonian."""
    fn = h.fn if isinstance(h, ScalarField) else h

    def lifted(coords):
        return fn(list(hopf_components(coords)))

    return hamiltonian(preq.total, lifted, name=name or "lift",
                       reeb_invariant=True)


def descend(preq: Prequantization, H: Hamiltonian, tol: float = 1e-6,
            samples: int = 64, seed: int = 0) -> ScalarField:
    """The base function of a fiber-invariant Hamiltonian (H = h o p).

    Checks fiber invariance by comparing H along fiber phases at sampled
    points; raises FiberError beyond tol.
    """
    rng = np.random.default_rng(seed)
    pts = preq.total.random_points(samples, rng)
    vals = H.values(pts)
    for phase in (0.9, 2.4):
        c, s = math.cos(phase), math.sin(phase)
        rot = np.empty_like(pts)
        rot[:, 0] = c * pts[:, 0] - s * pts[:, 1]
        rot[:, 1] = s * pts[:, 0] + c * pts[:, 1]
        rot[:, 2] = c * pts[:, 2] - s * pts[:, 3]
        rot[:, 3] = s * pts[:, 2] + c * pts[:, 3]
        defect = float(np.max(np.abs(H.values(rot) - vals)))
        if defect > tol:
            raise FiberError(f"Hamiltonian varies along fibers by {defect:.3e}")

    def fn(coords):
        b = np.stack(np.broadcast_arrays(*[np.asarray(c, dtype=float)
                                           for c in coords]), axis=-1)
        return H.values(section(preq, b))

    return ScalarField(fn, 3, name=f"base({H.name})" if H.name else "base")


def normalize_hamiltonian(preq: Prequantization, H: Hamiltonian,
                          budget: int = 1 << 16, seed: int = 0) -> ScalarField:
    """Base function of H minus its omega-mean (integral against omega
    divided by the total omega); the result integrates to zero."""
    h = descend(preq, H) if isinstance(H, Hamiltonian) else H
    mean = base_integral(preq, [h], budget=budget, seed=seed).value / preq.omega_total
    shift = float(mean)

    def fn(coords, inner=h.fn):
        return inner(coords) - shift

    return ScalarField(fn, 3, name=f"normalized({h.name})" if h.name else "normalized")


def random_base_function(seed: int) -> ScalarField:
    """Low-order random polynomial in the base coordinates (test fodder)."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=10)

    def fn(coords):
        b1, b2, b3 = coords
        return (a[0] + a[1] * b1 + a[2] * b2 + a[3] * b3
                + a[4] * b1 * b2 + a[5] * b2 * b3 + a[6] * b1 * b3
                + a[7] * b1 * b1 + a[8] * b2 * b2 + a[9] * b3 * b3)

    return ScalarField(fn, 3, name=f"poly({seed})")


def fiber_integration_check(preq: Prequantization, trials: int = 20,
                            budget: int = 1 << 15, seed: int = 0) -> tuple:
    """Constancy of (total integral of h o p) / (base integral of h).

    Runs random base functions through both integrators and returns the
    mean ratio C and its relative dispersion; the bundle identity makes
    the ratio the constant fiber length.  Trials with a near-zero base
    integral are skipped.
    """
    if trials < 2:
        raise ValueError("need at least two trials")
    ratios = []
    trial = 0
    while len(ratios) < trials and trial < 4 * trials:
        h = random_base_function(seed + 7919 * trial)
        trial += 1
        bottom = base_integral(preq, [h], budget=budget, seed=seed + trial)
        if abs(bottom.value) < 0.1 * preq.omega_total:
            continue
        top = integrate(preq.total, lift(preq, h).field, budget=budget,
                        seed=seed + trial)
        ratios.append(top.value / bottom.value)
    if len(ratios) < trials:
        raise GeometryError("too many degenerate trials in fiber integration")
    ratios = np.asarray(ratios)
    c = float(np.mean(ratios))
    dispersion = float(np.std(ratios) / abs(c))
    return c, dispersion


def _subset_products(values: Sequence[float]) -> list:
    """All subsets as (mask, product of selected values)."""
    k = len(values)
    out = []
    for mask in range(1 << k):
        prod = 1.0
        for i in range(k):
            if mask >> i & 1:
                prod *= values[i]
        out.append((mask, prod))
    return out


def prequantization_relation_check(preq: Prequantization,
                                   hams: Sequence[Hamiltonian],
                                   budget: int = 1 << 15, seed: int = 0,
                                   fiber_constant: Optional[float] = None) -> dict:
    """Two routes to the normalized base polynomial must agree.

    LHS integrates the product of mean-centered base functions against
    omega.  RHS is (1/C) x (total-space invariant polynomial) plus the
    correction R_k assembled from lower-order base integrals and the
    means c_i = I_1(H_i)/(C x total omega).  Returns both values, the
    residual, and the combined 3 sigma budget.
    """
    k = len(hams)
    if k < 2:
        raise ValueError("the relation is about k >= 2")
    if fiber_constant is None:
        trials = 10
        c_fiber, dispersion = fiber_integration_check(preq, trials=trials,
                                                      budget=budget, seed=seed + 101)
        sigma_c = abs(c_fiber) * dispersion / math.sqrt(trials)
    else:
        c_fiber = float(fiber_constant)
        sigma_c = 0.0
    bases = [descend(preq, h) for h in hams]

    from .chernweil import invariant_polynomial_I

    i1 = [invariant_polynomial_I(preq.total, [h], budget=budget, seed=seed + 11 * i)
          for i, h in enumerate(hams)]
    means = [r.value / (c_fiber * preq.omega_total) for r in i1]
    mean_sigmas = [r.std_error / (c_fiber * preq.omega_total) for r in i1]

    centered = []
    for h, mu in zip(bases, means):
        centered.append(ScalarField(
            lambda coords, inner=h.fn, shift=mu: inner(coords) - shift, 3))
    lhs = base_integral(preq, centered, budget=budget, seed=seed + 1)

    ik = invariant_polynomial_I(preq.total, hams, budget=budget, seed=seed + 2)
    rhs = ik.value / c_fiber
    rhs_var = (ik.std_error / c_fiber) ** 2
    drhs_dc = -ik.value / c_fiber ** 2     # the means scale as 1/C too
    r_k = 0.0
    for mask, prod in _subset_products(means):
        if mask == 0:
            continue
        rest = [bases[i] for i in range(k) if not mask >> i & 1]
        sign = -1.0 if bin(mask).count("1") % 2 else 1.0
        size = bin(mask).count("1")
        if rest:
            term = base_integral(preq, rest, budget=budget, seed=seed + 3 + mask)
            term_value = term.value
            rhs_var += (prod * term.std_error) ** 2
        else:
            term_value = preq.omega_total
        r_k += sign * prod * term_value
        drhs_dc += sign * prod * term_value * (-size / c_fiber)
        # propagate the mean uncertainties through the product
        for i in range(k):
            if mask >> i & 1 and means[i] != 0.0:
                rhs_var += (prod * term_value * mean_sigmas[i] / means[i]) ** 2
    rhs += r_k
    rhs_var += (drhs_dc * sigma_c) ** 2
    sigma = 3.0 * math.sqrt(lhs.std_error ** 2 + rhs_var)
    return {
        "lhs": lhs.value,
        "rhs": rhs,
        "correction": r_k,
        "residual": abs(lhs.value - rhs),
        "three_sigma": sigma,
        "fiber_constant": c_fiber,
    }


def euler_number(preq: Prequantization) -> dict:
    """The bundle's integer invariant: total omega over 2 pi.

    Exact given the fitted omega (the base integral of a constant needs
    no sampling).  Reported with the nearest integer and its distance.
    Where the fiber period is not 2 pi the raw value is off by the period
    ratio and need not be near an integer (the raw Hopf bundle gives 1/2,
    whose nearest integer follows its last bit), so nearest and defect are
    None and a warning says why.
    """
    val = preq.omega_total / (2.0 * math.pi)
    nearest = defect = warning = None
    if preq.normalized:
        nearest = round(val)
        defect = abs(val - nearest)
    else:
        warning = (f"fiber period is {preq.fiber_period:.6g}, not 2*pi; "
                   "value reflects the raw form scaling")
    return {
        "value": val,
        "nearest": nearest,
        "defect": defect,
        "normalized": preq.normalized,
        "warning": warning,
    }
