"""The contact-Hamiltonian correspondence, bracket, and adjoint action.

A contact vector field X determines the Hamiltonian H = alpha(X); the
inverse direction solves i_X alpha = H, i_X dalpha = -dH + (i_R dH) alpha
on TM pointwise, as one square ambient system with multipliers for alpha
and the constraints (see manifold._contact_solve), which gives dH(R)
with the field.  On the spheres, the ellipsoids and the cotangent
bundles that system is solved through its (k+1) x (k+1) Schur
complement in closed form (see manifold._schur_solve).  The bracket

    [H1, H2] = dH1(R) H2 - dH2(X1)

makes the correspondence a Lie algebra map onto contact fields with
minus the standard vector-field bracket.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .dual import Dual, epsilon, seed, value
from .fields import ScalarField, _stack
from .manifold import ContactManifold, _columns, _contact_solve

REEB_INVARIANCE_TOL = 1e-8
FIELD_SOLVE_TOL = 1e-9


@dataclass(frozen=True)
class Hamiltonian:
    """A scalar function on a contact manifold, optionally tagged as
    invariant under the Reeb flow (the strict-contactomorphism algebra)."""

    field: ScalarField
    manifold: ContactManifold
    reeb_invariant: Optional[bool] = None
    name: str = ""

    def __call__(self, pts):
        return self.field(pts)

    def values(self, pts) -> np.ndarray:
        return np.asarray(self.field(pts), dtype=float)

    def tagged(self, samples: int = 1000, seed: int = 0) -> "Hamiltonian":
        """Copy with the invariance flag resolved by sampling."""
        flag, _ = is_reeb_invariant(self, samples=samples, seed=seed)
        return replace(self, reeb_invariant=flag)


def hamiltonian(m: ContactManifold, fn, name: str = "",
                reeb_invariant: Optional[bool] = None) -> Hamiltonian:
    """Wrap a coordinate function (or ScalarField) as a Hamiltonian on m."""
    field = fn if isinstance(fn, ScalarField) else ScalarField(fn, m.ambient_dim, name)
    return Hamiltonian(field, m, reeb_invariant, name or field.name)


def constant_hamiltonian(m: ContactManifold, c: float) -> Hamiltonian:
    cc = float(c)
    return hamiltonian(m, lambda coords: 0.0 * coords[0] + cc,
                       name=f"const({cc:g})", reeb_invariant=True)


def field_to_hamiltonian(m: ContactManifold, x, name: str = "") -> Hamiltonian:
    """The Hamiltonian alpha(X) of a vector field tangent to m."""
    comp = x.comp_fn if hasattr(x, "comp_fn") else x

    def fn(coords):
        coefs = m.form.coef_fn(coords)
        comps = comp(coords)
        total = coefs[0] * comps[0]
        for a in range(1, m.ambient_dim):
            total = total + coefs[a] * comps[a]
        return total

    return hamiltonian(m, fn, name=name or "alpha(X)")


def hamiltonian_to_field(h: Hamiltonian, pts, tol: float = FIELD_SOLVE_TOL):
    """The contact vector field of h at pts, shape matching the input.

    One square ambient solve of alpha(X) = H and
    dalpha(X, .) = -dH + dH(R) alpha on TM (see manifold._contact_solve);
    GeometryError where the residual of the solved system exceeds tol.
    """
    pts_arr = np.asarray(pts, dtype=float)
    q = np.atleast_2d(pts_arr)
    out = _contact_solve(h.manifold, q, None, h.field, tol)[0]
    return out[0] if pts_arr.ndim == 1 else out


def is_reeb_invariant(h: Hamiltonian, samples: int = 1000, seed: int = 0,
                      tol: float = REEB_INVARIANCE_TOL) -> tuple:
    """(flag, max |dH(R)|) over sampled points."""
    m = h.manifold
    rng = np.random.default_rng(seed)
    pts = m.random_points(samples, rng)
    reeb = m.reeb_field(pts)
    defect = float(np.max(np.abs(h.field.directional(pts, reeb))))
    return defect <= tol, defect


def bracket(h1: Hamiltonian, h2: Hamiltonian, pts) -> np.ndarray:
    """The contact bracket dH1(R) H2 - dH2(X1) evaluated at pts."""
    return bracket_hamiltonian(h1, h2).field(pts)


class NestedDualError(TypeError):
    """Two dual layers reached a bracket Hamiltonian, whose solve differentiates one."""


def _coords_to_seeded_point(coords):
    """Split one-layer Dual coordinates into points (..., d) and seeds
    (..., d), or (k, ..., d) for coordinates that carry k seeds."""
    if any(isinstance(getattr(c, part, None), Dual) for c in coords for part in ("val", "eps")):
        raise NestedDualError("bracket Hamiltonians differentiate one dual layer, not two")
    vals = [np.asarray(value(c), dtype=float) for c in coords]
    eps = [np.asarray(epsilon(c), dtype=float) for c in coords]
    shape = np.broadcast_shapes(*(v.shape for v in vals))
    return _stack(vals, shape), _stack(eps, np.broadcast_shapes(shape, *(e.shape for e in eps)))


def bracket_hamiltonian(h1: Hamiltonian, h2: Hamiltonian) -> Hamiltonian:
    """The bracket as a Hamiltonian, differentiable through dual seeding.

    Plain float coordinates and coordinates carrying one dual layer, with
    one seed or k at once, route through one ambient solve of h1's contact
    field, which also returns dH1(R).  A value-only solve seeds h1 once, so
    nested brackets (Jacobi identity checks) stay differentiable; two dual
    layers raise NestedDualError.  GeometryError where the residual of the
    solve exceeds FIELD_SOLVE_TOL.
    """
    m = h1.manifold
    d = m.ambient_dim

    def fn(coords):
        seeded = any(isinstance(c, Dual) for c in coords)
        p, dp = (_coords_to_seeded_point(coords) if seeded
                 else (split_point_coords(coords, d)[0], None))
        single = p.ndim == 1
        q, dq = (p[None], None if dp is None else dp[..., None, :]) if single else (p, dp)
        x1, dh1_reeb = _contact_solve(m, q, dq, h1.field, FIELD_SOLVE_TOL)
        point = _columns(q, dq)
        directions = _columns(x1.val, x1.eps) if seeded else _columns(x1)
        dh2_x1 = epsilon(h2.field.fn(seed(point, directions)))
        out = dh1_reeb * h2.field.fn(point) - dh2_x1
        if not seeded:
            return float(out[0]) if single else out
        return Dual(out.val[0], out.eps[..., 0]) if single else out

    invariant = True if (h1.reeb_invariant and h2.reeb_invariant) else None
    return hamiltonian(m, fn, name=f"[{h1.name or 'H1'},{h2.name or 'H2'}]",
                       reeb_invariant=invariant)


def split_point_coords(coords, dim):
    """Stack coordinate arrays back into point rows; True flag for one point."""
    arrays = [np.asarray(c, dtype=float) for c in coords]
    shape = np.broadcast_shapes(*(a.shape for a in arrays))
    if shape == ():
        return np.array([float(a) for a in arrays]), True
    return _stack(arrays, shape), False


def adjoint(generator: Hamiltonian, flow_time: float, h: Hamiltonian,
            steps: Optional[int] = None) -> Hamiltonian:
    """The adjoint action (lambda H) o g^{-1} of the generator's time flow.

    g is the time-flow_time map of the generator's contact field; the
    conformal factor lambda is measured by transporting the Reeb vector
    and evaluating the contact form on the result (identically 1 for
    strict generators).  The returned Hamiltonian evaluates on float
    points only.
    """
    from . import flows

    m = h.manifold
    gen_field = None if generator is None else generator

    def fn(coords):
        if any(isinstance(c, Dual) for c in coords):
            raise TypeError("adjoint Hamiltonians do not support dual seeding")
        pts, scalar_flag = split_point_coords(coords, m.ambient_dim)
        q = np.atleast_2d(pts)
        if flow_time == 0.0:
            vals = np.asarray(h.field(q), dtype=float)
            return float(vals[0]) if scalar_flag else vals

        def backward(batch):
            return -np.asarray(_generator_velocity(m, gen_field, batch))

        x = flows.flow_points(m, backward, q, flow_time, steps=steps)
        lam = flows.conformal_factor(m, gen_field, flow_time, x, steps=steps)
        vals = lam * np.asarray(h.field(x), dtype=float)
        return float(vals[0]) if scalar_flag else vals

    return hamiltonian(m, fn, name=f"Ad[{generator.name or 'G'}]({h.name or 'H'})")


def _generator_velocity(m: ContactManifold, generator, pts):
    if generator is None:
        return m.reeb_field(pts)
    return hamiltonian_to_field(generator, pts)
