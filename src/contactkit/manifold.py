"""Contact manifolds embedded in Euclidean space.

A manifold of dimension 2n+1 is described by ambient constraint fields
(empty for a flat periodic chart) together with a one-form whose
restriction is the contact form.  All pointwise operations accept
single points ``(d,)`` or batches ``(N, d)``.

Conventions.  frame_sign orients the manifold: an ordered basis v of a
tangent space is positive where det [G; v], the constraint gradients G
followed by v, has the sign of frame_sign, which the constructors choose
to make the contact volume density positive (on a free chart det v
alone).  The contact defect at a point is alpha ^ (d alpha)^n on a
positive orthonormal tangent basis, strictly positive for a contact form.
It comes from ambient Pfaffians (see _ambient_density): of the Schur
complement of the contact system K where _schur_route holds, and of K
itself everywhere else.

Storage.  The densities keep ambient data component-major, the point
index last and contiguous.  The points' coordinate rows (d, N) are read
in place where each is already contiguous, as in a chunk of the toric
rules, which store their nodes as coordinate planes, and are copied for
any other layout; either way every row holds the same values, so the
bits do not depend on the layout.  On the Schur route each entry of
S = B Omega^-1 B^T between two mapped rows of B = [G; alpha], and the
Gram entry |grad g|^2 of one mapped constraint where G G^T is diagonal,
is a quadratic polynomial in y = x - x0, about a centre x0 where the
constraint gradients vanish, built once per manifold (see
_schur_polynomials) and read from the shared monomial planes y_a y_b (N,)
(see _polynomial_planes).  Its terms are of the size of its value, so it
rounds as the plane products would.  Rows of B remain as planes (d, N)
only where they are needed: a pair of S with a seeded row, or with a
shifted constraint that no centre zeroes, takes its plane products, and
the volume for k = 3 (an SVD rank test) or for a G G^T with cross terms
(a norm) comes from the gradient planes.  K itself is kept as planes
(d+1+k, d+1+k, N); OneForm.dmatrix works on planes D (m, m, N) and
returns the view D.transpose(2, 0, 1), (N, m, m).  Every sum over a
component or monomial axis of the planes runs in a fixed order of
whole-plane multiply-adds (see _dot, _affine_planes, _polynomial_planes),
and the rest is elementwise, so a point gives the same bits alone as in a
batch.

Constraints.  A constraint with a gradient_map (G, g0) is the quadratic
c(x) = x . (grad c(x) + g0) / 2 + c(0), grad c(x) = x @ G + g0, with G
symmetric.  Each manifold stacks the maps of such constraints once, with
c(0) from one call of each constraint function at the origin (see
ContactManifold.__post_init__), and reads their values and gradients
from one product with the stack (see _constraint_pass): where every
constraint has a map, projection calls no constraint function.  Other
constraints are evaluated plainly for values and seeded for gradients.

Contact fields.  Every Reeb and Hamiltonian field, with or without a
derivative, solves one square ambient system K with multipliers for alpha
and the constraints (see _contact_solve).  One pass builds its rows (see
_ambient_rows): where the constraints and the form are mapped, the rows
B = [G; alpha] are one product with their maps side by side, stacked once
per manifold, and a Hamiltonian's value is one plain call of its fn, which
for a moment of a linear action is itself read from its gradient map (see
chernweil.moment_field).  K is invertible exactly where the form is
contact.  The manifolds of _schur_route (k = 1 or 3 constraints and a
mapped form with invertible d alpha) solve K through its (k+1) x (k+1)
Schur complement S = B Omega^-1 B^T in closed form (see _schur_solve): one
more product with the form's constants, taken once when the form is built
(see _omega_factors), gives S and the blocks of K's Frobenius product, and
one gather of S's entries gives Pf(S) and S^-1 (see _schur_factor); their
density reads S from its polynomials instead (see Storage).  A derivative
solve shares that path; a value-only solve skips its derivative part and
returns plain arrays.  The k = 0 charts and unmapped forms invert K once
per call (see _ambient_data, _checked_inv).  Tangent vectors are projected
from the constraint gradients (see _tangent_project), and reeb_residuals
checks the solve against the seeded d alpha, independently of K.
tangent_frame is a reference for tests; no computation here uses it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .dual import Dual, epsilon, seed, value
from .fields import OneForm, ScalarField, _filled, _quadratic_terms, _stack


class GeometryError(Exception):
    """Base for geometric failure modes."""


class DegenerateFrameError(GeometryError):
    """Constraint gradients are linearly dependent at a point."""


class ContactDegeneracyError(GeometryError):
    """A contact system is singular: the form is not contact there."""


class ProjectionError(GeometryError):
    """Newton projection onto the constraint set did not converge."""


# a contact system K of size m with DEGENERACY_RTOL |K|_F |K^-1|_F >= 1 is
# singular: the form is not contact there.  The Frobenius product lies
# between the condition number kappa_2 and m kappa_2; the Schur route
# takes it from K's blocks (see _schur_factor)
DEGENERACY_RTOL = 1e-8
_SINGULAR = "the contact system is singular; the form is not contact there"
_TINY = np.finfo(float).tiny


def _checked_inv(system: np.ndarray) -> np.ndarray:
    """np.linalg.inv of contact systems (N, m, m), or ContactDegeneracyError
    where one is singular or DEGENERACY_RTOL * |K|_F |K^-1|_F >= 1."""
    try:
        inv = np.linalg.inv(system)
    except np.linalg.LinAlgError as exc:
        raise ContactDegeneracyError(_SINGULAR) from exc
    fro = np.linalg.norm(system, axis=(-2, -1)) * np.linalg.norm(inv, axis=(-2, -1))
    if not np.all(DEGENERACY_RTOL * fro < 1.0):
        raise ContactDegeneracyError(_SINGULAR)
    return inv


def _omega_factors(w: np.ndarray) -> tuple:
    """The constants of the constant d alpha Omega = W - W^T of a
    coefficient_map (W, w0): (Omega, |Omega|_F^2, Omega^-1, |Omega^-1|_F^2,
    [I | Omega^-1 | Omega^-1 Omega^-1], Pf(Omega)), the last four None where
    _checked_inv rejects Omega.  OneForm keeps them, taken once when it is
    built, for the ambient Schur solve (see _schur_factor) and density."""
    omega = w - w.T
    norm2 = np.vdot(omega, omega)
    try:
        inv = _checked_inv(omega)
    except ContactDegeneracyError:
        return omega, norm2, None, None, None, None
    entries = omega.tolist()
    return (omega, norm2, inv, np.vdot(inv, inv), np.hstack([np.eye(len(inv)), inv, inv @ inv]),
            _pfaffian(lambda r, c: entries[r][c], tuple(range(len(entries)))))


def _dot(u, v):
    """sum_a u[a] * v[a] over the leading axis of the product u * v.

    The terms are summed by folding the stack in halves, term a onto term
    a + h, h = len // 2, an odd last term onto the first, until one is
    left: a fixed order of whole-array additions, so a point gives the
    same bits alone as in a batch.  numpy's reductions pick their order
    from the shape: pairwise from eight terms on, and along a contiguous
    axis only where one exists.
    """
    terms = u * v
    while len(terms) > 1:
        half = len(terms) // 2
        folded = terms[:half] + terms[half:2 * half]
        if len(terms) % 2:
            folded[0] += terms[-1]
        terms = folded
    return terms[0]


def _side_by_side(maps: list, d: int) -> tuple:
    """Maps (A, a0), A (d, d), as one map (d, m d) and (m d,): x @ A + a0 of
    the stack holds those of the maps in order."""
    return (np.hstack([np.zeros((d, 0))] + [a for a, _ in maps]),
            np.concatenate([np.zeros(0)] + [a0 for _, a0 in maps]))


_DEPENDENT = "constraint gradients are linearly dependent"


def _gradient_volume(grads: np.ndarray) -> np.ndarray:
    """sqrt det(G G^T), the product of the singular values, of gradient planes
    G (k, d, N), k >= 1: the norm for k = 1 (see _gram_root).  Raises
    DegenerateFrameError where sigma_min <= 1e-10 sigma_max."""
    if len(grads) == 1:
        return _gram_root(_dot(grads[0], grads[0]))
    sv = np.linalg.svd(grads.transpose(2, 0, 1), compute_uv=False)
    if np.any(sv[:, -1] <= 1e-10 * sv[:, 0]):
        raise DegenerateFrameError(_DEPENDENT)
    return math.prod(sv.T)


def _gram_root(gram: np.ndarray) -> np.ndarray:
    """The norms (N,) of one constraint's gradient from its Gram entries
    |grad g|^2; a negative entry, which only rounding can give, counts as 0.
    Raises DegenerateFrameError as _gradient_volume does, where
    sigma <= 1e-10 sigma: where a norm is zero or infinite."""
    norm = np.sqrt(np.maximum(gram, 0.0))
    if np.any(norm <= 1e-10 * norm):
        raise DegenerateFrameError(_DEPENDENT)
    return norm


def _normal_part(grads: np.ndarray, b: np.ndarray) -> np.ndarray:
    """G^T (G G^T)^{-1} b for gradients G (N, k, d) and b (N, k): the vector
    in the span of the gradients whose pairings with them are b.  For k = 1
    it divides by the Gram entry, the bits np.linalg.solve gives for a 1 x 1
    system without its per-call checks."""
    gram = np.einsum("nia,nja->nij", grads, grads)
    if grads.shape[1] == 1:
        return grads[:, 0] * (b / gram[:, 0])
    return np.einsum("ni,nia->na", np.linalg.solve(gram, b[..., None])[..., 0], grads)


def _tangent_project(grads: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The orthogonal projection v - G^T (G G^T)^-1 G v of vectors v (N, d)
    onto the tangent spaces of gradients G (N, k, d), v itself for k = 0."""
    if not grads.shape[1]:
        return v
    return v - _normal_part(grads, np.einsum("nka,na->nk", grads, v))


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
    # (mapped, A, a0, c0): the indices of the constraints with a gradient_map,
    # their maps side by side, A (d, m d) and a0 (m d,), and their values
    # c0 (m,) at the origin; set by __post_init__
    _level_maps: tuple = field(default=(), init=False, repr=False, compare=False)
    # (rows, A, a0): the rows of B = [G; alpha] with a map, the mapped
    # constraints and then alpha where the form has a coefficient_map, and
    # their maps side by side; set by __post_init__ for _ambient_rows
    _row_maps: tuple = field(default=(), init=False, repr=False, compare=False)
    # (monomials, entries, gram) on the Schur route, () elsewhere: the
    # polynomials in x of _ambient_density, set by __post_init__ (see
    # _schur_polynomials)
    _schur_polys: tuple = field(default=(), init=False, repr=False, compare=False)

    def __post_init__(self):
        """Stack the constraints' gradient maps once, taking each mapped
        constraint's value at the origin by one call of its fn, and again
        with the form's coefficient_map after them; on the Schur route, build
        the density's polynomials from them.  A quadratic's Hessian is
        symmetric, so a map (G, g0) with G != G^T is a ValueError."""
        d = self.ambient_dim
        mapped = [i for i, c in enumerate(self.constraints) if c.gradient_map is not None]
        maps = [self.constraints[i].gradient_map for i in mapped]
        for i, (mat, _) in zip(mapped, maps):
            if not np.array_equal(mat, mat.T):
                raise ValueError(f"constraint {self.constraints[i].name!r} has a gradient "
                                 "map with a non-symmetric matrix")
        origin = np.zeros(d)
        object.__setattr__(self, "_level_maps", (mapped,) + _side_by_side(maps, d) + (
            np.array([self.constraints[i](origin) for i in mapped], dtype=float),))
        if self.form.coefficient_map is not None:
            mapped, maps = mapped + [len(self.constraints)], maps + [self.form.coefficient_map]
        object.__setattr__(self, "_row_maps", (mapped,) + _side_by_side(maps, d))
        if _schur_route(self):
            object.__setattr__(self, "_schur_polys", _schur_polynomials(self))

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
        """Constraint values (N, k): a mapped constraint's from its map (see
        _mapped_values), the others' from one plain evaluation."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        vals = np.empty((pts.shape[0], len(self.constraints)))
        mapped = self._level_maps[0]
        if mapped:
            vals[:, mapped] = self._mapped_values(pts, self._mapped_gradients(pts))
        coords = list(pts.T)
        for i, c in enumerate(self.constraints):
            if c.gradient_map is None:
                vals[:, i] = c.fn(coords)
        return vals

    def constraint_gradients(self, pts) -> np.ndarray:
        """Constraint gradients (N, k, d): a mapped constraint's from its map
        (see _mapped_gradients), one seeded pass shared by the others."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        grads = np.empty((pts.shape[0], len(self.constraints), self.ambient_dim))
        mapped = self._level_maps[0]
        if mapped:
            grads[:, mapped] = self._mapped_gradients(pts)
        coords = None
        for i, c in enumerate(self.constraints):
            if c.gradient_map is not None:
                continue
            if coords is None:
                coords = seed(list(pts.T))
            grads[:, i, :] = np.transpose(epsilon(c.fn(coords)))
        return grads

    def _mapped_gradients(self, pts: np.ndarray) -> np.ndarray:
        """Gradients (N, m, d) of the m mapped constraints at points (N, d):
        one x @ A + a0 with the stacked maps."""
        _, mat, shift, _ = self._level_maps
        return np.add(pts @ mat, shift).reshape(pts.shape[0], -1, self.ambient_dim)

    def _mapped_values(self, pts: np.ndarray, grads: np.ndarray) -> np.ndarray:
        """Values (N, m) of the mapped constraints at points (N, d) from their
        gradients there: a map (G, g0) with symmetric G belongs to the
        quadratic c(x) = x . (grad c(x) + g0) / 2 + c(0).  The products are
        summed by _dot, so a point gives the same bits alone as in a batch."""
        _, _, shift, origin = self._level_maps
        planes = (grads + shift.reshape(-1, self.ambient_dim)).transpose(2, 0, 1)
        return 0.5 * _dot(pts.T[:, :, None], planes) + origin

    def _constraint_pass(self, pts) -> tuple:
        """Constraint values (N, k) and gradients (N, k, d).  Where every
        constraint has a map, both come from one product with the stacked
        maps and no constraint function is called; otherwise from
        constraint_values and constraint_gradients."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        if len(self._level_maps[0]) < len(self.constraints):
            return self.constraint_values(pts), self.constraint_gradients(pts)
        grads = self._mapped_gradients(pts)
        return self._mapped_values(pts, grads), grads

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
        """Orthogonal Newton projection onto the constraint set.

        One constraint pass gives the values and the Jacobian at the input,
        and Newton continues from it (see _newton): where every constraint
        has a map, no constraint function is called.  Raises ProjectionError
        when max_iter updates leave a residual above tol.
        """
        pts = np.asarray(pts, dtype=float)
        scalar = pts.ndim == 1
        q = np.atleast_2d(pts).copy()
        if self.constraints:
            vals, jac = self._constraint_pass(q)
            q = self._newton(q, vals, jac, float(np.abs(vals).max()), tol, max_iter)
        return q[0] if scalar else q

    def _newton(self, q, vals, jac, res: float, tol: float = 1e-13,
                max_iter: int = 12) -> np.ndarray:
        """Newton projection of q (N, d), updated in place, starting from
        the constraint values at q, their largest magnitude res and the
        Jacobian at q.  Where every constraint has a map, one constraint
        pass after each update gives the new values and Jacobian; otherwise
        a plain evaluation gives the values, and the Jacobian is taken again
        only when another update is needed.  The residual after the last
        allowed update is tested before ProjectionError is raised."""
        mapped = len(self._level_maps[0]) == len(self.constraints)
        for i in range(max_iter + 1):
            if res <= tol:
                return q
            if i == max_iter:
                break
            if jac is None:
                jac = self.constraint_gradients(q)
            q -= _normal_part(jac, vals)
            vals, jac = self._constraint_pass(q) if mapped else (self.constraint_values(q), None)
            res = float(np.abs(vals).max())
        raise ProjectionError(f"projection stalled at residual {res:.3e}")

    def point(self, coords) -> np.ndarray:
        """Validated point constructor: coords must satisfy the constraints."""
        p = np.asarray(coords, dtype=float)
        res = float(np.max(self.constraint_residual(p)))
        if res > 1e-12:
            raise ValueError(f"point violates constraints by {res:.3e}")
        return self.wrap(p) if self.periodic else p

    # frames and the contact structure

    def tangent_frame(self, pts) -> np.ndarray:
        """Positive orthonormal tangent frames, shape (N, 2n+1, d), or
        (2n+1, d) at a point (d,): a reference for tests, which no
        computation of the package uses.

        The rows k... of Q^T in the complete QR factorisation G^T = Q R of
        the constraint gradients are the frame, the identity on a free
        chart; the last row is flipped where det [G; frame] frame_sign < 0.
        Raises DegenerateFrameError when the constraint gradients lose rank
        (see _gradient_volume).
        """
        pts = np.asarray(pts, dtype=float)
        scalar = pts.ndim == 1
        q = np.atleast_2d(pts)
        k, d = len(self.constraints), q.shape[1]
        if k == 0 and d != self.dim:
            raise GeometryError("free chart dimension mismatch")
        grads = self.constraint_gradients(q)
        if k:
            _gradient_volume(grads.transpose(1, 2, 0))
            frame = np.linalg.qr(grads.swapaxes(1, 2), mode="complete")[0][..., k:].swapaxes(1, 2)
        else:
            frame = np.repeat(np.eye(d)[None], len(q), axis=0)
        flip = np.linalg.det(np.concatenate([grads, frame], axis=1)) * self.frame_sign < 0.0
        frame[flip, -1] *= -1.0
        return frame[0] if scalar else frame

    def contact_defect(self, pts) -> np.ndarray:
        """alpha ^ (d alpha)^n on a positive orthonormal tangent basis, from
        ambient Pfaffians (see _ambient_density).

        Positive everywhere for a contact form; the caller decides what
        to do with non-positive values.  Raises DegenerateFrameError where
        the constraint gradients lose rank; other evaluation failures map to NaN.
        """
        pts = np.asarray(pts, dtype=float)
        scalar = pts.ndim == 1
        q = np.atleast_2d(pts)
        try:
            out = self._ambient_density(q)
        except GeometryError:
            raise
        except (FloatingPointError, ValueError, ZeroDivisionError, OverflowError):
            out = np.full(q.shape[0], np.nan)
        return float(out[0]) if scalar else out

    def _ambient_density(self, q: np.ndarray) -> np.ndarray:
        """alpha ^ (d alpha)^n at points q (N, d) from ambient data.

        With gradients G, B = [G; alpha] and M = [[0, B], [-B^T, Omega]],
        Omega = d alpha, it is (-1)^(k(k+1)/2) frame_sign n! Pf(M) /
        sqrt det(G G^T), sqrt det = 1 for k = 0.  The sign: the power k+1+n
        of sum_i dt_i ^ B_i + d alpha on R^(k+1) x R^d gives
        dg_1 ^ ... ^ dg_k ^ alpha ^ (d alpha)^n = (-1)^(k(k+1)/2) n! Pf(M) dx.
        On [N; F], N orthonormal rows spanning G's and F a positive
        orthonormal tangent basis, that d-form reads det(G N^T) times the
        density and det[N; F] = +-1 times Pf(M)'s coefficient; as
        G = (G N^T) N, det[G; F] = det(G N^T) det[N; F], and F is positive,
        det[G; F] = frame_sign sqrt det(G G^T), so the density is the
        coefficient times frame_sign / sqrt det(G G^T).

        Where _schur_route holds, Omega^-1 and Pf(Omega) are the form's,
        taken once when it is built, and with S = B Omega^-1 B^T, moving
        the border last, of sign (-1)^((k+1)d) = (-1)^(k+1), and the Schur
        complement make Pf(M) = (-1)^(k+1) Pf(Omega) Pf(S), and k is odd as
        d is even.  Everywhere else Pf(M) is summed over the matchings of
        the square system K of _ambient_data (values only): its indices in
        the order constraints, alpha, ambient coordinates read M, a
        permutation of sign -1, so Pf(M) = -Pf(K).  For k = 0, M is the
        bordered matrix [[0, alpha], [-alpha^T, Omega]].

        On the Schur route, an entry S_rc between two mapped rows, and
        |grad g|^2 for k = 1 with a mapped constraint and a diagonal G G^T,
        are the polynomials of _schur_polynomials, evaluated on the shared
        monomial planes y_a y_b of y = x - x0; the k = 1 volume is then the
        root of the Gram polynomial under _gradient_volume's test (see
        _gram_root), so zero and overflowed gradients raise
        DegenerateFrameError.  Planes remain for the rest: a pair with a
        planar row (seeded, or shifted with no centre) takes
        S_rc = B_r . Omega^-1 B_c^T from its rows' planes, and the volume
        for k = 3, or for a Gram entry with cross terms, comes from the
        gradient planes y G (see _gradient_volume).  Each step is
        elementwise on planes or a fixed-order whole-plane sum, so a point
        keeps its bits alone and in a batch.
        """
        form, k, d = self.form, len(self.constraints), self.ambient_dim
        sign = (-1) ** (k * (k + 1) // 2) * self.frame_sign * math.factorial(self.n)
        if not _schur_route(self):
            if k == 0 and q.shape[1] != self.dim:
                raise GeometryError("free chart dimension mismatch")
            planes = np.ascontiguousarray(_ambient_data(self, q, None)[0].val.transpose(1, 2, 0))
            volume = _gradient_volume(planes[d + 1:, :d]) if k else 1.0
            order = tuple(range(d + 1, d + 1 + k)) + (d,) + tuple(range(d))
            return sign * _pfaffian(lambda r, c: planes[r, c], order) / volume
        inv, (centre, planar, monomials, entries, gram) = form.omega_inv, self._schur_polys
        # coordinate rows (d, N), read in place where they are contiguous, as
        # in a chunk of the toric rules' planes, and copied otherwise
        x = q.T if q.strides[0] == q.itemsize else np.ascontiguousarray(q.T)
        y = x if centre is None else x - centre[:, None]
        # gradient planes, about the centre, for the k = 3 rank test, a Gram
        # entry with no polynomial and the pairs with a planar row
        rows, coords = [None] * (k + 1), None
        if gram is None:
            for r, c in enumerate(self.constraints):
                if c.gradient_map is None:
                    coords = seed(list(x)) if coords is None else coords
                    rows[r] = _filled(epsilon(c.fn(coords)), x.shape)
                else:
                    mat, shift = c.gradient_map
                    rows[r] = _affine_planes((mat, np.zeros(d) if centre is not None else shift), y)
        if planar:
            rows[k] = _affine_planes(form.coefficient_map, x)
        planes = {(a, b): y[a] * y[b] for a, b in monomials}
        volume = (_gradient_volume(np.stack(rows[:k])) if gram is None
                  else _gram_root(_polynomial_planes(gram, y, planes)))
        # a pair with a planar row takes S = P B^T, P = B Omega^-1 as in
        # _schur_factor, on planes, where whole-plane multiply-adds keep a
        # point's bits alone and in a batch
        schur, solved = {}, {}
        for c in range(1, k + 1):
            for r in range(c):
                if (r, c) in entries:
                    schur[r, c] = _polynomial_planes(entries[r, c], y, planes)
                    continue
                if c not in solved:
                    solved[c] = _affine_planes((inv.T, np.zeros(len(inv))), rows[c])
                schur[r, c] = _dot(rows[r], solved[c])
        pf = _pfaffian(lambda r, c: schur[r, c], tuple(range(k + 1)))
        return sign * form.omega_pfaffian * pf / volume

    def reeb_field(self, pts) -> np.ndarray:
        """Reeb vector field: alpha(R) = 1 and d alpha(R, .) = 0 on TM,
        from the ambient contact system (see _contact_solve)."""
        q = np.atleast_2d(np.asarray(pts, dtype=float))
        reeb = _contact_solve(self, q, None)[0]
        return reeb[0] if np.ndim(pts) == 1 else reeb

    def reeb_residuals(self, pts) -> dict:
        """Defining-equation residuals of the computed Reeb field: (N,)
        arrays, or floats at a point (d,).  The pairing is the largest entry
        of the tangent part of R _| d alpha (see _tangent_project), d alpha
        from one seeded pass of the form's coefficient function (see
        OneForm.dmatrix), independently of the ambient solve; one gradient
        pass serves it and the tangency."""
        q = np.atleast_2d(np.asarray(pts, dtype=float))
        reeb, grads = self.reeb_field(q), self.constraint_gradients(q)
        alpha_res = np.abs(self.form(q, reeb) - 1.0)
        d = q.shape[1]
        dmat = self.form.dmatrix(q, np.broadcast_to(np.eye(d), (len(q), d, d)))
        pairing = _tangent_project(grads, np.einsum("na,nab->nb", reeb, dmat))
        pair_res = np.max(np.abs(pairing), axis=1)
        tang_res = np.zeros(q.shape[0])
        if self.constraints:
            tang_res = np.max(np.abs(np.einsum("nka,na->nk", grads, reeb)), axis=1)
        res = {"alpha": alpha_res, "pairing": pair_res, "tangency": tang_res}
        return {name: float(v[0]) for name, v in res.items()} if np.ndim(pts) == 1 else res

    # sampling

    def random_points(self, count: int, rng) -> np.ndarray:
        """Reference random points for tests and diagnostics."""
        if self.test_sampler is None:
            raise GeometryError(f"{self.name} has no point sampler")
        return self.test_sampler(self, count, rng)

    def random_tangents(self, pts, rng) -> np.ndarray:
        """Unit tangent vectors at pts: Gaussian draws from rng projected to
        TM (see _tangent_project).  A row whose tangent part is at most 1e-8
        of its draw, a draw normal to M up to rounding, is drawn again.
        Raises DegenerateFrameError where the constraint gradients lose rank
        (see _gradient_volume)."""
        q = np.atleast_2d(np.asarray(pts, dtype=float))
        grads = self.constraint_gradients(q)
        if self.constraints:
            _gradient_volume(grads.transpose(1, 2, 0))
        draw = rng.normal(size=q.shape)
        v = _tangent_project(grads, draw)
        norm = np.linalg.norm(v, axis=1)
        normal = norm <= 1e-8 * np.linalg.norm(draw, axis=1)
        norm[normal] = 1.0
        v /= norm[:, None]
        if normal.any():
            v[normal] = self.random_tangents(q[normal], rng)
        return v if np.asarray(pts).ndim > 1 else v[0]


@lru_cache(maxsize=None)
def _matchings(idx: tuple) -> tuple:
    """The (len - 1)!! perfect matchings of the indices idx as (sign, pairs),
    pairs ((idx[0], j), ...) in a Pfaffian's expansion along idx[0]."""
    if not idx:
        return ((1.0, ()),)
    return tuple(((-1.0) ** (p + 1) * sign, ((idx[0], idx[p]),) + pairs)
                 for p in range(1, len(idx))
                 for sign, pairs in _matchings(idx[1:p] + idx[p + 1:]))


def _pfaffian(entry: Callable, idx: tuple):
    """Pf of the antisymmetric matrix over the indices idx, of even length, in
    their order, from its entries entry(r, c), r before c in idx, numbers or
    planes, summed over its matchings, products in pair order; 1.0 for no
    indices.  The first matching's sign is +1, and the sum starts from its
    term."""
    total = None
    for sign, pairs in _matchings(idx):
        term = entry(*pairs[0]) if pairs else 1.0
        for pair in pairs[1:]:
            term = term * entry(*pair)
        total = term if total is None else total + term if sign > 0 else total - term
    return total


# the ambient contact solve, differentiable through dual seeding.  Batched
# over points: p (N, d) with dp (N, d), or (k, N, d) for k seeds at once,
# gives Duals with values (N, ...) and eps parts (N, ...) or (k, N, ...);
# dp None gives the values alone, as plain arrays.


def _columns(x: np.ndarray, dx: Optional[np.ndarray] = None) -> list:
    """The coordinate columns of points x (N, d), seeded along dx if it
    carries a direction: one dual layer for a derivative and none for values
    alone, so that a value-only solve seeds its fields once."""
    cols = [x[:, a] for a in range(x.shape[-1])]
    if dx is None or not dx.size:
        return cols
    return seed(cols, [dx[..., a] for a in range(x.shape[-1])])


def _affine(amap: tuple, x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """x @ A + a0, into out if given, for a gradient_map or coefficient_map (A, a0)."""
    return np.add(x @ amap[0], amap[1], out=out)


def _affine_planes(amap: tuple, x: np.ndarray) -> np.ndarray:
    """x @ A + a0 for a map (A, a0) on planes x (d, N), plane b summed over the
    non-zero A[e, b] in index order: whole-plane multiply-adds, as in
    OneForm.dmatrix, give the same bits alone as in a batch; BLAS need not."""
    mat, shift = amap
    out = np.repeat(shift[:, None], x.shape[1], axis=1)
    for b, column in enumerate(mat.T):
        for e in np.flatnonzero(column):
            out[b] += column[e] * x[e]
    return out


def _schur_polynomials(m: ContactManifold) -> tuple:
    """The polynomials of m's Schur density, m on the Schur route, in
    y = x - x0 about a centre x0 where its constraints' gradients vanish.

    The centre is the origin where no mapped constraint has a shift, and
    for k = 1 with an invertible G the critical point of the constraint,
    x0 G = -g0.  The other constraints with a shift, and the seeded ones,
    keep their rows as planes (planar).  Each other mapped row of
    B = [G; alpha] is B_r = y A_r + b_r, with b_r = 0 for a constraint and
    b = x0 A + a0 for alpha, so the Schur entry S_rc = B_r Omega^-1 B_c^T
    of two of them is y A_r Omega^-1 A_c^T y^T + y . A_r Omega^-1 b_c, and
    the Gram entry |grad g|^2 of one constraint is y G G^T y^T.  Their
    terms are then of the size of their values, where about the origin a
    quadric centred at c would sum terms of size |x|^2 into values of size
    |x - c|^2.  Taking b = 0 drops x0 G + g0, the rounding of the centre,
    which moves the gradient as much as forming x G + g0 does.

    The Gram polynomial is kept only where G G^T is diagonal, so that its
    terms are non-negative: with cross terms they can be kappa(G)^2 times
    its value, where the norm of the gradient planes y G loses kappa(G).

    Returns (centre or None for the origin, planar, monomials, entries,
    gram): the planar constraint rows; the pairs (a, b), a <= b, that the
    quadratic terms read, in order; the entries by (r, c), r < c, neither
    row planar; and the Gram entry for k = 1 with a constraint that is not
    planar and a diagonal G G^T, else None.  Each polynomial is kept as
    _quadratic_terms gives it."""
    k, inv, d = len(m.constraints), m.form.omega_inv, m.ambient_dim
    maps = [c.gradient_map for c in m.constraints]
    centre = None
    if k == 1 and maps[0] is not None and np.any(maps[0][1]):
        try:
            centre = -np.linalg.solve(*maps[0])
        except np.linalg.LinAlgError:
            pass
    mats = [None if a is None or (centre is None and np.any(a[1])) else a[0] for a in maps]
    planar = tuple(r for r, mat in enumerate(mats) if mat is None)
    form_mat, form_shift = m.form.coefficient_map
    mats.append(form_mat)
    shifts = [np.zeros(d)] * k + [form_shift if centre is None else centre @ form_mat + form_shift]
    entries = {(r, c): _quadratic_terms(mats[r] @ inv @ mats[c].T, mats[r] @ (inv @ shifts[c]))
               for c in range(1, k + 1) for r in range(c)
               if mats[r] is not None and mats[c] is not None}
    gram = (_quadratic_terms(mats[0] @ mats[0].T, np.zeros(d))
            if k == 1 and mats[0] is not None else None)
    if gram is not None and any(a != b for (a, b), _ in gram[0]):
        gram = None
    polys = list(entries.values()) + ([] if gram is None else [gram])
    monomials = sorted({ab for poly in polys for ab, _ in poly[0]})
    return centre, planar, monomials, entries, gram


def _polynomial_planes(poly: tuple, y: np.ndarray, planes: dict) -> np.ndarray:
    """A polynomial of _quadratic_terms on planes y (d, N), with the monomial
    planes y_a y_b by (a, b): its terms times their planes, quadratic then
    linear, added in order onto the first.  Whole-plane multiply-adds give
    the same bits alone as in a batch."""
    quad, lin = poly
    terms = [(coef, planes[ab]) for ab, coef in quad] + [(coef, y[a]) for a, coef in lin]
    if not terms:
        return np.zeros(y.shape[1])
    out = terms[0][0] * terms[0][1]
    for coef, plane in terms[1:]:
        out += coef * plane
    return out


def _schur_route(m: ContactManifold) -> bool:
    """Whether m's contact fields and density come from the Schur complement
    of the ambient system: k = 1 or 3 constraints, whose Schur complement
    _pfaffian_inverse inverts, and a form with a coefficient_map whose
    Omega = W - W^T passes _checked_inv."""
    return len(m.constraints) in (1, 3) and m.form.omega_inv is not None


def _run(indices: list):
    """Increasing indices as a slice where they are consecutive, which numpy
    fills faster than an index list."""
    if indices[-1] - indices[0] == len(indices) - 1:
        return slice(indices[0], indices[-1] + 1)
    return indices


def _ambient_rows(m: ContactManifold, p: np.ndarray, dp: Optional[np.ndarray],
                  h=None) -> tuple:
    """The rows of the ambient contact system at p with their derivatives along dp.

    Mapped fields give theirs in closed form, each with the derivative
    dp @ A: the constraint gradients and alpha from one product with the
    manifold's maps of B's rows side by side (see ContactManifold._row_maps),
    h's gradient from its gradient_map (see _affine), and h's value from one
    plain evaluation.  The others take one pass: p seeded along dp (see
    _columns), the d unit directions in front.  Returns (rows, jac, hval),
    Duals of arrays whose eps part is the dp-derivative, None where dp is
    None: rows (N, k+1, d) = [G; alpha], with h's gradient as a last row
    (N, k+2, d); jac (N, d, d) with jac[b, a] = d_a w_b, or None for a
    mapped form, whose d alpha is the constant Omega; hval (N,), None
    without h.
    """
    d, n_pts, k = m.ambient_dim, p.shape[0], len(m.constraints)
    lead = () if dp is None else dp.shape[:-2]
    scalars, form_map = list(m.constraints) + ([] if h is None else [h]), m.form.coefficient_map
    mapped, stacked, shift = m._row_maps
    size = len(scalars) + 1
    if mapped:
        product = Dual(np.add(p @ stacked, shift).reshape(n_pts, len(mapped), d), None if dp is None
                       else (dp @ stacked).reshape(lead + (n_pts, len(mapped), d)))
    if len(mapped) == size:
        # B alone, every row mapped: the product is the array of rows
        rows = product
    else:
        rows = Dual(np.empty((n_pts, size, d)),
                    None if dp is None else np.empty(lead + (n_pts, size, d)))
        if mapped:
            at = _run(mapped)
            rows.val[:, at] = product.val
            if dp is not None:
                rows.eps[..., at, :] = product.eps
    if h is not None and h.gradient_map is not None:
        _affine(h.gradient_map, p, out=rows.val[:, k + 1])
        if dp is not None:
            rows.eps[..., k + 1, :] = dp @ h.gradient_map[0]
    seeded = [i for i, f in enumerate(scalars) if f.gradient_map is None]
    jac = hval = None
    if form_map is None or seeded:
        coords = seed(_columns(p, dp))
        out = [] if form_map is not None else list(m.form.coef_fn(coords))
        out += [scalars[i].fn(coords) for i in seeded]
        outer = [(x.val, x.eps) if isinstance(x, Dual) else (x, 0.0) for x in out]
        vals = Dual(_stack([value(v) for v, _ in outer], (n_pts,)), None)
        # gradients carry the direction axis in front of dp's axes; their
        # values do not vary along dp's axes, which a value-only pass lacks
        inner = (1,) * len(lead) if dp is not None and dp.size else ()
        grad_val = _stack([value(g) for _, g in outer], (d,) + inner + (n_pts,))
        # one gradient row (N, d) per function, the functions in order
        grads = Dual(np.moveaxis(grad_val.reshape(d, n_pts, -1), 0, -1), None)
        if dp is not None:
            vals.eps = _stack([epsilon(v) for v, _ in outer], lead + (n_pts,))
            grads.eps = np.moveaxis(_stack([epsilon(g) for _, g in outer], (d,) + lead + (n_pts,)),
                                    0, -1)
        start = 0
        if form_map is None:
            rows.val[:, k] = vals.val[:, :d]
            jac, start = Dual(grads.val[:, :d], None), d
            if dp is not None:
                rows.eps[..., k, :] = vals.eps[..., :d]
                jac.eps = grads.eps[..., :d, :]
        if seeded:
            # the constraints' rows come first, then alpha's, then h's
            at = _run([i if i < k else k + 1 for i in seeded])
            rows.val[:, at] = grads.val[:, start:]
            if dp is not None:
                rows.eps[..., at, :] = grads.eps[..., start:, :]
        if h is not None and h.gradient_map is None:
            hval = Dual(vals.val[:, -1], None if dp is None else vals.eps[..., -1])
    if hval is None and h is not None:
        hval = Dual(_filled(h.fn([p[:, a] for a in range(d)]), (n_pts,)),
                    None if dp is None else np.sum(rows.val[:, -1] * dp, -1))
    return rows, jac, hval


def _ambient_data(m: ContactManifold, p: np.ndarray, dp: Optional[np.ndarray],
                  h=None) -> tuple:
    """The square ambient system of _contact_solve at p with its derivative
    along dp, assembled from _ambient_rows.

    Returns (K, r): K (N, d+1+k, d+1+k) has rows [Omega, -alpha^T, -G^T],
    [alpha, 0, 0], [G, 0, 0] with Omega[a, b] = d_a w_b - d_b w_a, and
    r (N, d+1+k) is (dH, H, 0), with H = 1 without h: the Reeb field is the
    contact field of 1.  Each is a Dual of arrays whose eps part is the
    dp-derivative, None where dp is None.
    """
    d, k = m.ambient_dim, len(m.constraints)
    size = d + 1 + k
    rows, jac, hval = _ambient_rows(m, p, dp, h)

    def assemble(r, j, omega):
        s = np.zeros(r.shape[:-2] + (size, size))
        if j is not None:
            s[..., :d, :d] = j.swapaxes(-1, -2) - j
        elif omega is not None:
            s[..., :d, :d] = omega
        s[..., :d, d] = -r[..., k, :]
        s[..., :d, d + 1:] = -r[..., :k, :].swapaxes(-1, -2)
        s[..., d, :d] = r[..., k, :]
        s[..., d + 1:, :d] = r[..., :k, :]
        return s

    def right(r, hv):
        out = np.zeros(r.shape[:-2] + (size,))
        if hv is not None:
            out[..., :d], out[..., d] = r[..., k + 1, :], hv
        return out

    system = Dual(assemble(rows.val, None if jac is None else jac.val, m.form.omega), None)
    rhs = Dual(right(rows.val, None if hval is None else hval.val), None)
    if hval is None:
        rhs.val[..., d] = 1.0
    if dp is not None:
        system.eps = assemble(rows.eps, None if jac is None else jac.eps, None)
        rhs.eps = right(rows.eps, None if hval is None else hval.eps)
    return system, rhs


@lru_cache(maxsize=None)
def _cofactor_table(size: int, width: int, step: int) -> tuple:
    """The flat indices and signs of S^-T's cofactors for _pfaffian_inverse,
    S[r, c] read at r * width + c * step.

    For size 4 the index of (r, c) points at the entry (i, j), i < j, of
    the other two indices: Pf of S without rows and columns r and c.  For
    size 2 that Pfaffian is 1 and the index is None.  The signs are
    (-1)^(r+c+1) for r < c, their negatives below the diagonal, where the
    cofactor is the same entry, and 0 on it.
    """
    index = np.zeros((size, size), dtype=np.intp)
    signs = np.zeros((size, size))
    for r in range(size):
        for c in range(size):
            if r != c:
                rest = [i for i in range(size) if i not in (r, c)]
                index[r, c] = rest[0] * width + rest[1] * step if rest else 0
                signs[r, c] = (-1.0) ** (r + c + 1) * (1.0 if r < c else -1.0)
    # every call shares them
    index.flags.writeable = signs.flags.writeable = False
    return (index if size == 4 else None), signs


def _pfaffian_inverse(rows: np.ndarray, size: int, step: int = 1) -> tuple:
    """Pf(S) and Y = S^-T for the antisymmetric S[:, r, c] = rows[:, r, c * step]
    of size 2 or 4, from its entries r < c alone.

    Y is the Pfaffian adjugate, Y[r, c] = (-1)^(r+c+1) Pf(S without rows and
    columns r, c) / Pf(S) for r < c and Y[c, r] = -Y[r, c]: 1/s for size 2,
    and an entry of S over Pf(S) for size 4, all taken by one gather with
    the index and sign arrays of _cofactor_table.  Pf(S) is summed over
    S's matchings in the order of _pfaffian, so both have its bits.  Raises
    ContactDegeneracyError where Pf(S) is zero or below the smallest normal
    number.
    """
    index, signs = _cofactor_table(size, rows.shape[-1], step)
    if index is None:
        pf = rows[:, 0, step]
    else:
        cofactors = rows.reshape(len(rows), -1)[:, index]
        # s01 s23 - s02 s13 + s03 s12, each cofactor of row 0 its pair's partner
        terms = rows[:, 0, step:step * size:step] * cofactors[:, 0, 1:]
        pf = terms[:, 0] - terms[:, 1] + terms[:, 2]
    if not (abs(pf) >= _TINY).all():
        raise ContactDegeneracyError(_SINGULAR)
    y_mat = signs * (1.0 / pf)[:, None, None]
    return pf, y_mat if index is None else cofactors * y_mat


def _schur_factor(form: OneForm, b: np.ndarray) -> tuple:
    """P = B Omega^-1, Y = S^-T for S = P B^T, and |K|_F |K^-1|_F, for rows
    B = [G; alpha] (N, k+1, d) of a form with omega_inv (see _schur_solve);
    ContactManifold._ambient_density reads S from polynomials instead.

    One product with the form's omega_powers [I | Omega^-1 | Omega^-1 Omega^-1]
    holds B, P and X = P Omega^-1 side by side; read as the 3(k+1) rows
    B_0, P_0, X_0, B_1, ..., one product with P gives S, Q = P P^T and
    -T = P X^T, T = P Omega^-1 P^T, interleaved in the columns of one array,
    and _pfaffian_inverse gathers Pf(S) and Y from it.

    The Frobenius product of the ambient system K = [[Omega, -B^T], [B, 0]]
    comes from the blocks.  |K|^2 = |Omega|^2 + 2 |B|^2.  With
    Omega^-1 B^T = -P^T, block elimination gives
    K^-1 = [[Omega^-1 + P^T S^-1 P, -P^T S^-1], [-S^-1 P, S^-1]], so with
    all but Q antisymmetric,
    |K^-1|^2 = |Omega^-1|^2 + 2 <S^-1, T> - tr((S^-1 Q)^2) + 2 |S^-1 P|^2
    + |S^-1|^2: <Omega^-1, P^T S^-1 P> = tr(S^-1 P Omega^-T P^T) and
    |P^T S^-1 P|^2 = tr(S^-T Q S^-1 Q).  In Y, <S^-1, T> = -<Y, T> and
    the other terms read alike; |Omega|^2 and |Omega^-1|^2 are the form's.
    Raises ContactDegeneracyError where Pf(S) is zero or below the smallest
    normal number, or where DEGENERACY_RTOL |K|_F |K^-1|_F >= 1, as
    _checked_inv does for K.
    """
    n_pts, size, d = b.shape
    stacked = b @ form.omega_powers
    p_mat = stacked[..., d:2 * d]
    blocks = p_mat @ stacked.reshape(n_pts, 3 * size, d).swapaxes(-1, -2)
    _, y_mat = _pfaffian_inverse(blocks, size, 3)
    # with Z = Y Q: |Y P|^2 = <Z, Y> and tr((Y Q)^2) = <Z, Z^T>
    z = y_mat @ blocks[..., 1::3]
    terms = y_mat * (y_mat + 2.0 * (z + blocks[..., 2::3])) - z * z.swapaxes(-1, -2)
    inv_norm2 = form.omega_inv_norm2 + terms.sum(axis=(-2, -1))
    fro = np.sqrt((form.omega_norm2 + 2.0 * (b * b).sum(axis=(-2, -1))) * inv_norm2)
    if not (DEGENERACY_RTOL * fro < 1.0).all():
        raise ContactDegeneracyError(_SINGULAR)
    return p_mat, y_mat, fro


def _schur_solve(m: ContactManifold, rows: Dual, hval: Optional[Dual], tol: float) -> tuple:
    """_contact_solve through the (k+1) x (k+1) Schur complement of K, from
    the rows of _ambient_rows.

    Write K's unknowns as (X, -y) with y's entries for the constraints,
    then alpha, B = [G; alpha], P = B Omega^-1 and S = P B^T (see
    _schur_factor).  The first block row Omega X + B^T y = dH^T gives
    X = P0 + y P with P0 = -dH Omega^-1, as Omega^-1 B^T = -P^T, and the
    second, B X^T = (0, ..., 0, H), then reads S^T y = (0, ..., 0, H) - B P0^T.
    So the Reeb field, dH = 0 and H = 1, is y P with S^T y = e_last, and
    y's last entry, -nu in K, is dH(R).  Along dp, dB comes from the rows,
    dP = dB Omega^-1, dS = dP B^T + P dB^T and dP0 = -d(dH) Omega^-1; dy
    solves the same S^T with the right-hand side's derivative minus
    dS^T y, and dX = dP0 + y dP + dy P.  Returns (X, dH(R)) as
    _contact_solve: plain arrays where the rows carry no derivative.
    """
    k, inv = len(m.constraints), m.form.omega_inv
    b = rows.val[:, :k + 1]
    p_mat, y_mat, _ = _schur_factor(m.form, b)
    if hval is None:
        y = y_mat[..., -1]
        x = (y[:, None] @ p_mat)[:, 0]
    else:
        p0 = -(rows.val[:, k + 1, None] @ inv)[:, 0]
        c = -(b @ p0[..., None])[..., 0]
        c[:, -1] += hval.val
        y = (y_mat @ c[..., None])[..., 0]
        x = p0 + (y[:, None] @ p_mat)[:, 0]
    if tol < math.inf:
        # Omega X + B^T y = dH^T and B X^T = (0, ..., 0, H)
        first = (y[:, None] @ b)[:, 0] - (x[:, None] @ m.form.omega)[:, 0]
        second = (b @ x[..., None])[..., 0]
        if hval is None:
            second[:, -1] -= 1.0
        else:
            first -= rows.val[:, k + 1]
            second[:, -1] -= hval.val
        residual = max(np.max(np.abs(first)), np.max(np.abs(second)))
        if residual > tol:
            raise GeometryError(f"contact field solve residual {residual:.3e} exceeds {tol:.0e}")
    if rows.eps is None:
        return x, y[:, -1]
    db = rows.eps[..., :k + 1, :]
    dp_mat = db @ inv
    ds = dp_mat @ b.swapaxes(-1, -2) + p_mat @ db.swapaxes(-1, -2)
    rhs = -(ds.swapaxes(-1, -2) @ y[..., None])[..., 0]
    if hval is not None:
        dp0 = -(rows.eps[..., k + 1, None, :] @ inv)[..., 0, :]
        rhs -= (db @ p0[..., None])[..., 0] + (b @ dp0[..., None])[..., 0]
        rhs[..., -1] += hval.eps
    dy = (y_mat @ rhs[..., None])[..., 0]
    dx = (y[:, None] @ dp_mat)[..., 0, :] + (dy[..., None, :] @ p_mat)[..., 0, :]
    if hval is not None:
        dx += dp0
    return Dual(x, dx), Dual(y[:, -1], dy[..., -1])


def _contact_solve(m: ContactManifold, p: np.ndarray, dp: Optional[np.ndarray], h=None,
                   tol: float = math.inf):
    """Reeb field, or h's contact field, at p with its dp-derivative.

    The unknowns are the field X, a multiplier nu for alpha and one per
    constraint, mu.  The square system K (X, nu, mu) = r of _ambient_data
    has rows Omega X - nu alpha^T - grads^T mu = dH, alpha . X = H and
    grads . X = 0: since d alpha(X, e_a) = -(Omega X)_a, X is h's contact
    field, i_X alpha = H and i_X d alpha = -dH + (i_R dH) alpha on TM, with
    nu = -dH(R).  K is antisymmetric, of even size d+1+k, and invertible
    exactly where the form is contact.  One pass gives K's rows (see
    _ambient_rows).  Where _schur_route holds (k = 1 or 3 and a mapped form
    with invertible Omega) the field solves the (k+1) x (k+1) Schur
    complement S = B Omega^-1 B^T of K (see _schur_solve).  Elsewhere K
    is inverted once (see _checked_inv): value x0 = K^-1 r and derivative
    x1 = K^-1 (r_eps - K_eps x0).  Returns (X, dH(R)) as Duals of arrays
    (N, d) and (N,), dH(R) = 0 without h, or as their values alone where
    dp is None.  Raises ContactDegeneracyError where K is singular, and
    GeometryError where an entry of K x - r exceeds tol.
    """
    if _schur_route(m):
        rows, _, hval = _ambient_rows(m, p, dp, h)
        return _schur_solve(m, rows, hval, tol)
    d = p.shape[1]
    system, rhs = _ambient_data(m, p, dp, h)
    inv = _checked_inv(system.val)
    x0 = inv @ rhs.val[..., None]
    if tol < math.inf:
        residual = np.max(np.abs(system.val @ x0 - rhs.val[..., None]))
        if residual > tol:
            raise GeometryError(f"contact field solve residual {residual:.3e} exceeds {tol:.0e}")
    if dp is None:
        return x0[:, :d, 0], -x0[:, d, 0]
    x1 = inv @ (rhs.eps[..., None] - system.eps @ x0)
    return Dual(x0[:, :d, 0], x1[..., :d, 0]), Dual(-x0[:, d, 0], -x1[..., d, 0])


def _field_with_derivative(m: ContactManifold, p, dp, h=None) -> tuple:
    """The Reeb field, or h's contact field, with its derivative along dp."""
    p, dp = np.asarray(p, dtype=float), np.asarray(dp, dtype=float)
    q, dq = (p[None], dp[..., None, :]) if p.ndim == 1 else (p, dp)
    if q.ndim != 2 or dq.shape[-2:] != q.shape:
        raise ValueError(f"directions of shape {dp.shape} do not fit points of shape {p.shape}")
    out = _contact_solve(m, q, dq, h)[0]
    return (out.val[0], out.eps[..., 0, :]) if p.ndim == 1 else (out.val, out.eps)


def reeb_with_derivative(m: ContactManifold, p, dp):
    """Reeb field and its derivative along dp: p (d,) or (N, d), dp shaped
    like p or with a leading axis of k directions, as the result's eps."""
    return _field_with_derivative(m, p, dp)


def hamiltonian_field_with_derivative(m: ContactManifold, h: ScalarField, p, dp):
    """Contact field of a Hamiltonian and its derivative along dp, as reeb_with_derivative.

    Solves i_X alpha = H, i_X d alpha = -dH + (i_R dH) alpha on TM in
    ambient form with constraint multipliers.
    """
    return _field_with_derivative(m, p, dp, h)
