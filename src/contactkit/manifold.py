"""Contact manifolds embedded in Euclidean space.

A manifold of dimension 2n+1 is described by ambient constraint fields
(empty for a flat periodic chart) together with a one-form whose
restriction is the contact form.  All pointwise operations accept
single points ``(d,)`` or batches ``(N, d)``.

Conventions.  Tangent frames are orthonormal and oriented so that the
constraint gradients followed by the frame give a positively oriented
ambient basis, times a per-manifold sign chosen by the constructors to
make the contact volume density positive.  The contact defect at a
point is alpha ^ (d alpha)^n evaluated on the oriented orthonormal
frame; for a contact form it is strictly positive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from .dual import Dual, epsilon, value
from .fields import OneForm, ScalarField, split_point


class GeometryError(Exception):
    """Base for geometric failure modes."""


class DegenerateFrameError(GeometryError):
    """Constraint gradients are linearly dependent at a point."""


class ContactDegeneracyError(GeometryError):
    """The restricted two-form has excess kernel: the form is not contact."""


class ProjectionError(GeometryError):
    """Newton projection onto the constraint set did not converge."""


# kernel detection threshold for the restricted two-form, relative to
# the largest singular value
DEGENERACY_RTOL = 1e-8


@dataclass(frozen=True)
class ContactManifold:
    name: str
    n: int
    ambient_dim: int
    form: OneForm
    constraints: tuple = ()
    periodic: bool = False
    period: float = 0.0
    frame_sign: int = 1
    reeb_period: Optional[float] = None
    params: dict = field(default_factory=dict)
    reference_sampler: Optional[Callable] = None
    test_sampler: Optional[Callable] = None

    @property
    def dim(self) -> int:
        return 2 * self.n + 1

    def key(self) -> str:
        """Name and scalar parameters, e.g. ``torus3(winding=2)``.

        Callable parameters are left out: a function cannot be printed
        by value, so a constructor that takes one also records the
        scalars that determine it.
        """
        items = ",".join(f"{k}={v}" for k, v in sorted(self.params.items())
                         if not callable(v))
        return f"{self.name}({items})"

    def scaled(self, s: float) -> "ContactManifold":
        """Same manifold carrying the rescaled form s * alpha, s > 0."""
        s = float(s)
        if s <= 0.0:
            raise ValueError("form scale must be positive")
        params = dict(self.params)
        params["form_scale"] = s * params.get("form_scale", 1.0)
        return replace(
            self, form=self.form * s, params=params,
            reeb_period=None if self.reeb_period is None else self.reeb_period * s,
        )

    # constraints

    def constraint_values(self, pts) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        if not self.constraints:
            return np.zeros((pts.shape[0], 0))
        return np.column_stack([c(pts) for c in self.constraints])

    def constraint_gradients(self, pts) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        k = len(self.constraints)
        out = np.empty((pts.shape[0], k, self.ambient_dim))
        for i, c in enumerate(self.constraints):
            out[:, i, :] = c.gradient(pts)
        return out

    def constraint_residual(self, pts) -> np.ndarray:
        """Max constraint violation per point."""
        vals = self.constraint_values(pts)
        if vals.shape[1] == 0:
            return np.zeros(vals.shape[0])
        return np.max(np.abs(vals), axis=1)

    def wrap(self, pts) -> np.ndarray:
        """Reduce periodic coordinates into [0, period)."""
        pts = np.asarray(pts, dtype=float)
        if not self.periodic:
            return pts
        return np.mod(pts, self.period)

    def project(self, pts, tol: float = 1e-13, max_iter: int = 12) -> np.ndarray:
        """Orthogonal Newton projection onto the constraint set."""
        pts = np.asarray(pts, dtype=float)
        scalar = pts.ndim == 1
        q = np.atleast_2d(pts).copy()
        if self.constraints:
            for _ in range(max_iter):
                vals = self.constraint_values(q)
                if np.max(np.abs(vals)) <= tol:
                    break
                jac = self.constraint_gradients(q)
                gram = np.einsum("nia,nja->nij", jac, jac)
                lam = np.linalg.solve(gram, vals[..., None])[..., 0]
                q -= np.einsum("ni,nia->na", lam, jac)
            else:
                raise ProjectionError(
                    f"projection stalled at residual {np.max(np.abs(self.constraint_values(q))):.3e}")
        return q[0] if scalar else q

    def point(self, coords) -> np.ndarray:
        """Validated point constructor: coords must satisfy the constraints."""
        p = np.asarray(coords, dtype=float)
        res = float(self.constraint_residual(p))
        if res > 1e-12:
            raise ValueError(f"point violates constraints by {res:.3e}")
        return self.wrap(p) if self.periodic else p

    # frames and the contact structure

    def tangent_frame(self, pts) -> np.ndarray:
        """Oriented orthonormal tangent frames, shape (N, 2n+1, d).

        Deterministic in the input point.  Raises DegenerateFrameError
        when the constraint gradients lose rank.
        """
        pts = np.asarray(pts, dtype=float)
        scalar = pts.ndim == 1
        q = np.atleast_2d(pts)
        n_pts, d = q.shape
        m = self.dim
        k = len(self.constraints)
        if k == 0:
            if d != m:
                raise GeometryError("free chart dimension mismatch")
            frame = np.broadcast_to(np.eye(d), (n_pts, d, d)).copy()
            if self.frame_sign < 0:
                frame[:, -1, :] *= -1.0
            return frame[0] if scalar else frame

        grads = self.constraint_gradients(q)
        _, sv, vh = np.linalg.svd(grads, full_matrices=True)
        if np.any(sv[:, -1] <= 1e-10 * sv[:, 0]):
            raise DegenerateFrameError("constraint gradients are linearly dependent")
        frame = vh[:, k:, :].copy()

        # orient: gradients followed by the frame must have sign frame_sign
        square = np.concatenate([grads, frame], axis=1)
        flip = np.sign(np.linalg.det(square)) * self.frame_sign < 0
        frame[flip, -1, :] *= -1.0
        return frame[0] if scalar else frame

    def contact_defect(self, pts) -> np.ndarray:
        """alpha ^ (d alpha)^n on the oriented orthonormal frame.

        Positive everywhere for a contact form; the caller decides what
        to do with non-positive values.  Evaluation failures map to NaN.
        """
        pts = np.asarray(pts, dtype=float)
        scalar = pts.ndim == 1
        q = np.atleast_2d(pts)
        try:
            frame = self.tangent_frame(q)
            a = np.einsum("na,nia->ni", self.form.coefficients(q), frame)
            dmat = self.form.dmatrix(q, frame)
            out = _bordered_wedge(a, dmat, self.n)
        except GeometryError:
            raise
        except (FloatingPointError, ValueError, ZeroDivisionError, OverflowError):
            out = np.full(q.shape[0], np.nan)
        return float(out[0]) if scalar else out

    def reeb_field(self, pts) -> np.ndarray:
        """Reeb vector field: alpha(R) = 1 and d alpha(R, .) = 0 on TM.

        Solved pointwise by extracting the kernel of the restricted
        two-form in an orthonormal frame.
        """
        pts = np.asarray(pts, dtype=float)
        scalar = pts.ndim == 1
        q = np.atleast_2d(pts)
        frame = self.tangent_frame(q)
        dmat = self.form.dmatrix(q, frame)
        _, sv, vh = np.linalg.svd(dmat)
        bad = sv[:, -2] <= DEGENERACY_RTOL * np.maximum(sv[:, 0], 1e-300)
        if np.any(bad):
            raise ContactDegeneracyError(
                "restricted two-form has a kernel of dimension > 1; the form is not contact there")
        kernel = vh[:, -1, :]
        a = np.einsum("na,nia->ni", self.form.coefficients(q), frame)
        scale = np.einsum("ni,ni->n", a, kernel)
        if np.any(np.abs(scale) <= 1e-12):
            raise ContactDegeneracyError("kernel direction is alpha-null; the form is not contact")
        reeb = np.einsum("ni,nia->na", kernel, frame) / scale[:, None]
        return reeb[0] if scalar else reeb

    def reeb_residuals(self, pts) -> dict:
        """Defining-equation residuals of the computed Reeb field."""
        q = np.atleast_2d(np.asarray(pts, dtype=float))
        reeb = np.atleast_2d(self.reeb_field(q))
        alpha_res = np.abs(self.form(q, reeb) - 1.0)
        frame = self.tangent_frame(q)
        coords = [q[:, a] for a in range(self.ambient_dim)]
        d_reeb = self.form.coefficient_derivative(coords, [reeb[:, a] for a in range(self.ambient_dim)])
        d_reeb = np.column_stack([np.broadcast_to(np.asarray(c, dtype=float), (q.shape[0],))
                                  for c in d_reeb])
        pair_res = np.zeros(q.shape[0])
        for i in range(self.dim):
            ei = frame[:, i, :]
            d_ei = self.form.coefficient_derivative(coords, [ei[:, a] for a in range(self.ambient_dim)])
            d_ei = np.column_stack([np.broadcast_to(np.asarray(c, dtype=float), (q.shape[0],))
                                    for c in d_ei])
            val = np.einsum("na,na->n", d_reeb, ei) - np.einsum("na,na->n", d_ei, reeb)
            pair_res = np.maximum(pair_res, np.abs(val))
        tang_res = np.zeros(q.shape[0])
        if self.constraints:
            grads = self.constraint_gradients(q)
            tang_res = np.max(np.abs(np.einsum("nka,na->nk", grads, reeb)), axis=1)
        return {"alpha": alpha_res, "pairing": pair_res, "tangency": tang_res}

    # sampling

    def random_points(self, count: int, rng) -> np.ndarray:
        """Reference random points for tests and diagnostics."""
        if self.test_sampler is None:
            raise GeometryError(f"{self.name} has no point sampler")
        return self.test_sampler(self, count, rng)

    def random_tangents(self, pts, rng) -> np.ndarray:
        """Unit tangent vectors at pts, Gaussian projected to TM."""
        q = np.atleast_2d(np.asarray(pts, dtype=float))
        v = rng.normal(size=q.shape)
        if self.constraints:
            frame = self.tangent_frame(q)
            v = np.einsum("ni,nia->na", np.einsum("nia,na->ni", frame, v), frame)
        v /= np.linalg.norm(v, axis=1)[:, None]
        return v if np.asarray(pts).ndim > 1 else v[0]


def _pfaffian(mat: np.ndarray) -> np.ndarray:
    """Pfaffian of batched antisymmetric matrices (N, 2m, 2m)."""
    size = mat.shape[-1]
    if size == 0:
        return np.ones(mat.shape[0])
    if size % 2 == 1:
        return np.zeros(mat.shape[0])
    if size == 2:
        return mat[:, 0, 1]
    total = np.zeros(mat.shape[0])
    sign = 1.0
    for j in range(1, size):
        keep = [i for i in range(size) if i not in (0, j)]
        sub = mat[np.ix_(range(mat.shape[0]), keep, keep)]
        total += sign * mat[:, 0, j] * _pfaffian(sub)
        sign = -sign
    return total


def _bordered_wedge(a: np.ndarray, dmat: np.ndarray, n: int) -> np.ndarray:
    """alpha ^ (d alpha)^n on a frame from alpha values and the d alpha matrix.

    Expands along the one-form slot: sum_i (-1)^i a_i n! Pf(D with row
    and column i removed).
    """
    m = 2 * n + 1
    total = np.zeros(a.shape[0])
    fact = float(math.factorial(n))
    for i in range(m):
        keep = [j for j in range(m) if j != i]
        sub = dmat[np.ix_(range(dmat.shape[0]), keep, keep)]
        total += ((-1.0) ** i) * a[:, i] * fact * _pfaffian(sub)
    return total


# ambient-system solvers, differentiable through dual seeding; used by
# tangent transport along flows where the SVD route cannot carry duals.
# Batched over points: p and dp of shape (N, d) give (N, ...) outputs.


def _as_plane(x, n_pts):
    """Broadcast a Dual-or-number entry to (value, eps) rows of length n_pts."""
    v = np.broadcast_to(np.asarray(value(x), dtype=float), (n_pts,))
    e = np.broadcast_to(np.asarray(value(epsilon(x)), dtype=float), (n_pts,))
    return v, e


def _stack_dual(entries, n_pts):
    """Nested list of Dual entries -> value and eps arrays (N, rows, cols)."""
    rows = len(entries)
    cols = len(entries[0])
    val = np.empty((n_pts, rows, cols))
    eps = np.empty((n_pts, rows, cols))
    for i in range(rows):
        for j in range(cols):
            v, e = _as_plane(entries[i][j], n_pts)
            val[:, i, j] = v
            eps[:, i, j] = e
    return val, eps


def _ambient_data(m: ContactManifold, p: np.ndarray, dp: np.ndarray):
    """Entries of the ambient contact system at p, seeded along dp.

    omega[a][b] is the antisymmetrized coefficient derivative
    d_a w_b - d_b w_a, alpha_coef the form coefficients, cgrads[k][a]
    the constraint gradients; every entry is a Dual whose eps part is
    the dp-directional derivative.
    """
    d = m.ambient_dim
    base = [Dual(p[:, a], dp[:, a]) for a in range(d)]
    partial = []
    cgrads = [[None] * d for _ in m.constraints]
    for a in range(d):
        coords = [Dual(base[b], 1.0 if b == a else 0.0) for b in range(d)]
        partial.append([epsilon(c) for c in m.form.coef_fn(coords)])
        for k, c in enumerate(m.constraints):
            cgrads[k][a] = epsilon(c.fn(coords))
    omega = [[partial[a][b] - partial[b][a] for b in range(d)] for a in range(d)]
    alpha_coef = list(m.form.coef_fn(base))
    return omega, alpha_coef, cgrads, base


def _solve_contact_system(m, omega, alpha_coef, cgrads, rhs_top, rhs_alpha, n_pts):
    """Least-squares solve of the ambient contact system and its seed.

    Rows: omega X - grads^T mu = rhs_top; alpha . X = rhs_alpha;
    grads . X = 0.  Unknowns (X, mu); returns the X block twice, value
    and dp-derivative.
    """
    d = m.ambient_dim
    k = len(cgrads)
    entries = []
    rhs = []
    for a in range(d):
        entries.append([omega[a][b] for b in range(d)] + [-1.0 * cgrads[j][a] for j in range(k)])
        rhs.append([rhs_top[a]])
    entries.append(list(alpha_coef) + [0.0] * k)
    rhs.append([rhs_alpha])
    for j in range(k):
        entries.append(list(cgrads[j]) + [0.0] * k)
        rhs.append([0.0])
    s_val, s_eps = _stack_dual(entries, n_pts)
    r_val, r_eps = _stack_dual(rhs, n_pts)
    pinv = np.linalg.pinv(s_val)
    x0 = pinv @ r_val
    x1 = pinv @ (r_eps - s_eps @ x0)
    return x0[:, :d, 0], x1[:, :d, 0]


def reeb_with_derivative(m: ContactManifold, p, dp):
    """Reeb field and its directional derivative along dp."""
    p = np.asarray(p, dtype=float)
    scalar = p.ndim == 1
    q = np.atleast_2d(p)
    dq = np.atleast_2d(np.asarray(dp, dtype=float))
    omega, alpha_coef, cgrads, _ = _ambient_data(m, q, dq)
    x0, x1 = _solve_contact_system(m, omega, alpha_coef, cgrads,
                                   [0.0] * m.ambient_dim, 1.0, q.shape[0])
    return (x0[0], x1[0]) if scalar else (x0, x1)


def hamiltonian_field_with_derivative(m: ContactManifold, h: ScalarField, p, dp):
    """Contact vector field of a Hamiltonian and its derivative along dp.

    Solves i_X alpha = H, i_X d alpha = -dH + (i_R dH) alpha on TM in
    ambient form with constraint multipliers.
    """
    p = np.asarray(p, dtype=float)
    scalar = p.ndim == 1
    q = np.atleast_2d(p)
    dq = np.atleast_2d(np.asarray(dp, dtype=float))
    n_pts = q.shape[0]
    d = m.ambient_dim
    omega, alpha_coef, cgrads, base = _ambient_data(m, q, dq)
    reeb0, reeb1 = reeb_with_derivative(m, q, dq)
    hval = h.fn(base)
    dh = []
    for a in range(d):
        coords = [Dual(base[b], 1.0 if b == a else 0.0) for b in range(d)]
        dh.append(epsilon(h.fn(coords)))
    reeb = [Dual(reeb0[:, a], reeb1[:, a]) for a in range(d)]
    dh_reeb = sum(dh[a] * reeb[a] for a in range(d))
    # dalpha(X, e_a) = -(Omega X)_a, so i_X dalpha = -dH + (i_R dH) alpha
    # reads (Omega X)_a = dH_a - (i_R dH) w_a row by row
    rhs_top = [dh[a] - dh_reeb * alpha_coef[a] for a in range(d)]
    x0, x1 = _solve_contact_system(m, omega, alpha_coef, cgrads, rhs_top, hval, n_pts)
    return (x0[0], x1[0]) if scalar else (x0, x1)
