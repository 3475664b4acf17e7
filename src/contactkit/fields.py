"""Scalar fields, one-forms, and vector fields on ambient coordinates.

All geometric data is represented by coefficient functions of the
ambient coordinates.  A coefficient function receives a list of ``d``
coordinate entries, each of which may be a float, a numpy array (one
entry per batch point), or a :class:`~contactkit.dual.Dual`; it must be
written with numpy-compatible arithmetic so every mode works unchanged.

Public evaluation methods take points as arrays of shape ``(d,)`` or
``(N, d)`` and return scalars or ``(N,)``/``(N, d)`` arrays.

Every derivative is one evaluation of the coefficient function, seeded
along all its directions at once (see :mod:`contactkit.dual`): the
direction axis comes first in the eps parts, so ``gradient`` takes the
d unit vectors, ``dmatrix`` its m vectors and ``two_form`` the pair
``(u, w)`` in a single pass, and ``directional`` accepts vectors with
one extra leading axis of k directions.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from .dual import Dual, epsilon, seed


def split_point(pts: np.ndarray):
    """Split (d,) or (N, d) points into coordinate columns.

    Returns (columns, scalar) where scalar marks a single-point input.
    """
    pts = np.asarray(pts, dtype=float)
    if pts.ndim == 1:
        return [pts[a] for a in range(pts.shape[0])], True
    return [pts[:, a] for a in range(pts.shape[1])], False


def _real(x):
    """A number or array as an array to be assigned into a float array.

    Complex input is a TypeError at any point count, where the assignment
    would keep the real part with only a ComplexWarning.  A Dual becomes
    a 0-d object array, which the assignment refuses with a TypeError.
    """
    x = np.asarray(x)
    if x.dtype.kind == "c":
        raise TypeError("coefficient functions must return real values, not complex")
    return x


def _stack(entries, shape):
    """Numbers or arrays broadcast to shape and stacked on a last axis,
    filled entry by entry into one new array; each entry passes _real."""
    entries = list(entries)
    out = np.empty(tuple(shape) + (len(entries),))
    for i, c in enumerate(entries):
        out[..., i] = _real(c)
    return out


def _filled(x, shape):
    """A number or array as floats broadcast to shape, in a new array."""
    out = np.empty(shape)
    out[...] = _real(x)
    return out


def _quadratic_terms(q: np.ndarray, lin: np.ndarray) -> tuple:
    """The polynomial x Q x^T + lin . x by its non-zero terms, as floats:
    ((a, b), Q_ab + Q_ba) for a < b and ((a, a), Q_aa), in index order,
    then (a, lin_a)."""
    q, lin = np.asarray(q, dtype=float).tolist(), np.asarray(lin, dtype=float).tolist()
    quad = [((a, b), q[a][b] + q[b][a] if a < b else q[a][a])
            for a in range(len(lin)) for b in range(a, len(lin))]
    return tuple(t for t in quad if t[1]), tuple((a, v) for a, v in enumerate(lin) if v)


def _quadratic_fn(gradient_map: tuple) -> Callable:
    """The coefficient function of the quadratic f(x) = x . (x @ G / 2 + g0)
    of a gradient_map (G, g0), G symmetric, with f(0) = 0: Horner by rows
    of the upper triangle, f = sum_a x_a (sum_{b >= a} c_ab x_b + g0_a)
    with c_aa = G_aa / 2 and c_ab = G_ab, zero terms skipped.  It takes
    only products and sums of the coordinates, so floats, arrays and Duals
    all work."""
    mat, shift = gradient_map
    quad, lin = _quadratic_terms(0.5 * mat, shift)
    by_row, lin = {}, dict(lin)
    for (a, b), coef in quad:
        by_row.setdefault(a, []).append((b, coef))
    rows = [(a, by_row.get(a, ()), lin.get(a)) for a in sorted(set(by_row) | set(lin))]

    def fn(coords):
        total = None
        for a, terms, shift_a in rows:
            inner = None
            for b, coef in terms:
                inner = coef * coords[b] if inner is None else inner + coef * coords[b]
            if shift_a is not None:
                inner = shift_a if inner is None else inner + shift_a
            total = coords[a] * inner if total is None else total + coords[a] * inner
        return 0.0 * coords[0] if total is None else total

    return fn


class ScalarField:
    """Real function of ambient coordinates with exact derivatives.

    gradient_map, optional, is (G, g0) with grad f(x) = x @ G + g0, G (d, d)
    symmetric and g0 (d,), for a quadratic f: constraint passes and the
    ambient contact solve read such gradients from it instead of seeding
    them.  It gives the value too, f(x) = x . (grad f(x) + g0) / 2 + f(0):
    a manifold takes f(0) once, by one call of fn at the origin when it is
    built, and then reads its mapped constraints' values from the maps.
    """

    def __init__(self, fn: Callable[[Sequence], object], dim: int, name: str = "",
                 gradient_map: Optional[tuple] = None):
        self.fn = fn
        self.dim = dim
        self.name = name
        self.gradient_map = gradient_map

    def raw(self, coords):
        """Evaluate on a coordinate list (floats, arrays, or Duals)."""
        return self.fn(coords)

    def __call__(self, pts):
        coords, scalar = split_point(pts)
        out = self.fn(coords)
        if scalar:
            return float(out)
        return _filled(out, coords[0].shape)

    def directional(self, pts, vecs):
        """Derivative along vecs, shaped like pts without its last axis.

        vecs with one more leading axis, (k, d) or (k, N, d), gives the k
        directional derivatives of one pass, shape (k,) or (k, N).
        """
        pts = np.asarray(pts, dtype=float)
        vecs = np.asarray(vecs, dtype=float)
        coords, _ = split_point(pts)
        out = epsilon(self.fn(seed(coords, [vecs[..., a] for a in range(self.dim)])))
        shape = np.broadcast_shapes(vecs.shape[:-1], pts.shape[:-1])
        out = _filled(out, shape)
        return float(out) if shape == () else out

    def gradient(self, pts):
        pts = np.asarray(pts, dtype=float)
        coords, _ = split_point(pts)
        grad = np.empty(pts.shape[:-1] + (self.dim,))
        np.moveaxis(grad, -1, 0)[...] = _real(epsilon(self.fn(seed(coords))))
        return grad

    def d(self) -> "OneForm":
        """Exterior derivative as a one-form with AD coefficients."""
        def coefs(coords):
            grad = epsilon(self.fn(seed(coords)))
            if isinstance(grad, Dual):
                return [Dual(grad.val[a], grad.eps[a]) for a in range(self.dim)]
            return list(_filled(grad, (self.dim,) + np.shape(grad)[1:]))
        return OneForm(coefs, self.dim, name=f"d({self.name})" if self.name else "")

    # pointwise algebra, used to build products of Hamiltonians

    def _combine(self, other, op, sym):
        if isinstance(other, ScalarField):
            if other.dim != self.dim:
                raise ValueError("field dimensions differ")
            g = other.fn
        else:
            c = float(other)
            g = lambda coords: 0.0 * coords[0] + c
        f = self.fn
        return ScalarField(lambda coords: op(f(coords), g(coords)), self.dim,
                           name=f"({self.name}{sym}...)" if self.name else "")

    def __add__(self, other):
        return self._combine(other, lambda a, b: a + b, "+")

    __radd__ = __add__

    def __sub__(self, other):
        return self._combine(other, lambda a, b: a - b, "-")

    def __mul__(self, other):
        return self._combine(other, lambda a, b: a * b, "*")

    __rmul__ = __mul__

    def __neg__(self):
        f = self.fn
        return ScalarField(lambda coords: -f(coords), self.dim, name=self.name)


def constant_field(value: float, dim: int) -> ScalarField:
    v = float(value)
    return ScalarField(lambda coords: 0.0 * coords[0] + v, dim, name=repr(v))


class OneForm:
    """One-form given by ambient coefficient functions.

    ``coef_fn(coords)`` returns the ``d`` coefficients; the pairing with
    a vector is the coordinate dot product.  coefficient_map, optional, is
    (W, w0) with coefficients x @ W + w0, as ScalarField.gradient_map.

    A mapped form's d alpha is the constant Omega = W - W^T, kept with its
    squared Frobenius norm as omega and omega_norm2.  Where Omega passes
    manifold._checked_inv, omega_inv, omega_inv_norm2, omega_powers and
    omega_pfaffian hold Omega^-1, |Omega^-1|_F^2, the (d, 3d) matrix
    [I | Omega^-1 | Omega^-1 Omega^-1] and Pf(Omega); they are None
    otherwise, and all six are None without a map.  All are taken once
    here (see manifold._omega_factors), so a rescaled form rebuilds them.
    The ambient Schur solve and density read them (see
    manifold._schur_route).
    """

    def __init__(self, coef_fn: Callable[[Sequence], Sequence], dim: int, name: str = "",
                 coefficient_map: Optional[tuple] = None):
        self.coef_fn = coef_fn
        self.dim = dim
        self.name = name
        self.coefficient_map = coefficient_map
        factors = (None,) * 6
        if coefficient_map is not None:
            # imported here: manifold builds on this module
            from .manifold import _omega_factors
            factors = _omega_factors(coefficient_map[0])
        (self.omega, self.omega_norm2, self.omega_inv, self.omega_inv_norm2,
         self.omega_powers, self.omega_pfaffian) = factors

    def coefficients(self, pts):
        coords, scalar = split_point(pts)
        return _stack(self.coef_fn(coords), () if scalar else coords[0].shape)

    def __call__(self, pts, vecs):
        coefs = self.coefficients(pts)
        vecs = np.asarray(vecs, dtype=float)
        return np.sum(coefs * vecs, axis=-1)

    def two_form(self, pts, u, w):
        """Exterior derivative paired with two vectors: d(form)(u, w)."""
        pts = np.asarray(pts, dtype=float)
        q = np.atleast_2d(pts)
        pair = np.broadcast_arrays(np.asarray(u, dtype=float), np.asarray(w, dtype=float), q)
        out = self.dmatrix(q, np.stack(pair[:2], axis=1))[:, 0, 1]
        return float(out[0]) if pts.ndim == 1 else out

    def dmatrix(self, pts, frame):
        """Matrix d(form)(e_i, e_j) over vectors e_1, ..., e_m.

        pts (N, d) with vectors (N, m, d) gives (N, m, m); a point (d,) with
        vectors (m, d) gives (m, m).  One AD pass carries all m vectors.
        The work runs on planes, the point index last: the vectors as
        F = frame.transpose(2, 1, 0), (d, m, N), made contiguous, the
        derivatives of the d coefficients along them as E (d, m, N), and
        D = A - A^T with A = sum_b E_b (x) F_b summed in index order.  The
        result is the (N, m, m) view D.transpose(2, 0, 1) of the planes
        D (m, m, N).  On the identity, m = d, it is d alpha's matrix.
        """
        pts = np.asarray(pts, dtype=float)
        frame = np.asarray(frame, dtype=float)
        if pts.ndim == 1:
            return self.dmatrix(pts[None], frame[None])[0]
        planes = np.ascontiguousarray(frame.transpose(2, 1, 0))
        coords = [pts[:, a] for a in range(self.dim)]
        deriv = np.empty(planes.shape)
        for b, c in enumerate(self.coef_fn(seed(coords, list(planes)))):
            deriv[b] = _real(epsilon(c))
        a_mat = deriv[0][:, None] * planes[0]
        for e, f in zip(deriv[1:], planes[1:]):
            a_mat += e[:, None] * f
        return (a_mat - np.swapaxes(a_mat, 0, 1)).transpose(2, 0, 1)

    def __mul__(self, s):
        s = float(s)
        f, fmap = self.coef_fn, self.coefficient_map
        return OneForm(lambda coords: [s * c for c in f(coords)], self.dim,
                       name=f"{s}*{self.name}" if self.name else "",
                       coefficient_map=None if fmap is None else (s * fmap[0], s * fmap[1]))

    __rmul__ = __mul__


class VectorField:
    """Vector field given by ambient component functions."""

    def __init__(self, comp_fn: Callable[[Sequence], Sequence], dim: int, name: str = ""):
        self.comp_fn = comp_fn
        self.dim = dim
        self.name = name

    def raw(self, coords):
        return self.comp_fn(coords)

    def __call__(self, pts):
        coords, scalar = split_point(pts)
        return _stack(self.comp_fn(coords), () if scalar else coords[0].shape)


def lie_bracket(x: VectorField, y: VectorField) -> VectorField:
    """Standard Lie bracket [X, Y] = DY.X - DX.Y via dual seeding."""
    if x.dim != y.dim:
        raise ValueError("vector field dimensions differ")

    def comps(coords):
        xv = x.comp_fn(coords)
        yv = y.comp_fn(coords)
        dy_x = [epsilon(c) for c in y.comp_fn(seed(coords, xv))]
        dx_y = [epsilon(c) for c in x.comp_fn(seed(coords, yv))]
        return [dy_x[a] - dx_y[a] for a in range(x.dim)]

    return VectorField(comps, x.dim, name=f"[{x.name},{y.name}]")
