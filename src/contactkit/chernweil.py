"""Group actions, moment maps, and invariant-polynomial integrals.

An action enters only through its infinitesimal data: a Lie algebra
element A maps to the fundamental vector field on the manifold, and the
moment pairing is the contact form on that field.  The k-linear
invariant polynomials are integrals of Hamiltonian products against the
contact volume form; pulling back along the moment map evaluates them
on moment Hamiltonians of algebra elements.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .fields import ScalarField, VectorField, _quadratic_fn
from .hamiltonian import Hamiltonian, field_to_hamiltonian, hamiltonian
from .integrate import IntegralResult, contact_volume, integrate
from .manifold import ContactManifold, GeometryError


class PositivityError(GeometryError):
    """An integral certified positive by the theory failed its check."""


@dataclass(frozen=True)
class GroupAction:
    """Infinitesimal group action on a contact manifold.

    kind is "torus" (algebra R^k, elements are real vectors) or
    "unitary" (anti-Hermitian complex matrices).  fundamental maps an
    algebra element to its vector field on the manifold.
    """

    kind: str
    manifold: ContactManifold
    algebra_dim: int
    fundamental: Callable[[np.ndarray], VectorField]
    name: str = ""
    matrix: Optional[Callable[[np.ndarray], np.ndarray]] = None  # a -> L, X(x) = L x if linear

    def random_element(self, rng) -> np.ndarray:
        if self.kind == "torus":
            return rng.normal(size=self.algebra_dim)
        n = self.algebra_dim
        real = rng.normal(size=(n, n))
        imag = rng.normal(size=(n, n))
        a = real + 1j * imag
        return (a - a.conj().T) / 2.0

    def validate_element(self, a) -> np.ndarray:
        if self.kind == "torus":
            arr = np.asarray(a, dtype=float)
            if arr.shape != (self.algebra_dim,):
                raise ValueError(
                    f"expected a length-{self.algebra_dim} vector, got {arr.shape}")
            return arr
        arr = np.asarray(a, dtype=complex)
        if arr.shape != (self.algebra_dim, self.algebra_dim):
            raise ValueError(
                f"expected a {self.algebra_dim}x{self.algebra_dim} matrix")
        skew = np.max(np.abs(arr + arr.conj().T))
        if skew > 1e-12:
            raise ValueError(f"matrix is not anti-Hermitian: defect {skew:.3e}")
        return arr


def _real_matrix(a: np.ndarray) -> np.ndarray:
    """z -> Az in real coordinates (x_0, y_0, x_1, ...): each entry a_jk is
    the 2x2 block [[Re, -Im], [Im, Re]], filled as four strided quarters."""
    out = np.empty((2 * len(a),) * 2)
    out[0::2, 0::2] = out[1::2, 1::2] = a.real
    out[0::2, 1::2], out[1::2, 0::2] = -a.imag, a.imag
    return out


def torus_shift_action(m: ContactManifold) -> GroupAction:
    """Translation action of the 2-torus in the two base angles."""

    def fundamental(a):
        a = np.asarray(a, dtype=float)

        def comp(coords):
            zero = 0.0 * coords[0]
            return [zero + a[0], zero + a[1], zero]

        return VectorField(comp, 3, name=f"shift{tuple(np.round(a, 6))}")

    return GroupAction("torus", m, 2, fundamental, name="torus-shift")


def diagonal_torus_action(m: ContactManifold) -> GroupAction:
    """Diagonal phase rotations of the complex coordinates.

    Element a in R^{n+1} acts by z_j -> e^{i a_j t} z_j; defined on round
    spheres and on weighted-sphere level sets, both preserved by phases.
    """
    pairs = m.ambient_dim // 2

    def fundamental(a):
        a = np.asarray(a, dtype=float)

        def comp(coords):
            out = []
            for j in range(pairs):
                out.append(-a[j] * coords[2 * j + 1])
                out.append(a[j] * coords[2 * j])
            return out

        return VectorField(comp, m.ambient_dim, name="diag-phase")

    return GroupAction("torus", m, pairs, fundamental, name="diagonal-torus",
                       matrix=lambda a: _real_matrix(1j * np.diag(a)))


def unitary_action(m: ContactManifold) -> GroupAction:
    """Action of the full unitary group on a round sphere.

    An anti-Hermitian matrix A acts by z -> Az in the complex ambient
    coordinates; the flow e^{tA} is unitary, hence preserves the sphere
    and the standard form.
    """
    pairs = m.ambient_dim // 2

    def fundamental(mat):
        mat = np.asarray(mat, dtype=complex)
        p = mat.real
        q = mat.imag

        def comp(coords):
            xs = [coords[2 * j] for j in range(pairs)]
            ys = [coords[2 * j + 1] for j in range(pairs)]
            out = []
            for j in range(pairs):
                re = sum(p[j, k] * xs[k] - q[j, k] * ys[k] for k in range(pairs))
                im = sum(q[j, k] * xs[k] + p[j, k] * ys[k] for k in range(pairs))
                out.append(re)
                out.append(im)
            return out

        return VectorField(comp, m.ambient_dim, name="unitary")

    return GroupAction("unitary", m, pairs, fundamental, name="unitary",
                       matrix=_real_matrix)


def moment(action: GroupAction, pts, a) -> np.ndarray:
    """The moment pairing: the contact form on the fundamental field of a."""
    a = action.validate_element(a)
    m = action.manifold
    field = action.fundamental(a)
    return m.form(pts, field(pts))


def moment_field(action: GroupAction, a, name: str = "") -> Hamiltonian:
    """The moment Hamiltonian of an algebra element, tagged Reeb-invariant.

    All bundled actions commute with the Reeb flow, so their moments are
    invariant; tests confirm the tag by sampling.  The moment is alpha(X),
    the form summed against the fundamental field.  For a linear action,
    X(x) = L x, and a form x @ W + w0 it is quadratic, with gradient map
    (M, g0) = (WL + (WL)^T, w0 @ L).  The ambient contact solve reads dH
    from the map, and the field's fn is built from it too: Horner by rows
    of M's upper triangle on the coordinate list, with H(0) = 0 since X
    vanishes at the origin (see fields._quadratic_fn), so floats, arrays
    and Duals all work.  pullback_polynomial's integrands and the value of
    H in a field solve read it.
    """
    a = action.validate_element(a)
    m, form_map = action.manifold, action.manifold.form.coefficient_map
    name = name or f"moment({action.name})"
    field = field_to_hamiltonian(m, action.fundamental(a), name=name).field
    if action.matrix is not None and form_map is not None:
        wl = form_map[0] @ (lin := action.matrix(a))
        gradient_map = (wl + wl.T, form_map[1] @ lin)
        # X(0) = L 0 = 0, so alpha(X) vanishes at the origin
        field = ScalarField(_quadratic_fn(gradient_map), field.dim, name, gradient_map=gradient_map)
    return Hamiltonian(field, m, reeb_invariant=True, name=name)


def action_strictness(action: GroupAction, elements=None, t: float = 0.5,
                      samples: int = 8, seed: int = 0) -> float:
    """Max form-preservation defect of the action's generator flows."""
    from .flows import strictness_check

    if elements is None:
        rng = np.random.default_rng(seed)
        elements = [action.random_element(rng) for _ in range(3)]
    worst = 0.0
    for a in elements:
        h = moment_field(action, a)
        worst = max(worst, strictness_check(action.manifold, h, t,
                                            samples=samples, seed=seed))
    return worst


def _product_field(m: ContactManifold, hams: Sequence[Hamiltonian]) -> ScalarField:
    """The product of the Hamiltonians' fields.  Each distinct field object
    is evaluated once per call, and the values are multiplied left to
    right, so a repeated factor costs one evaluation and the product keeps
    the bits of one evaluation per factor."""
    fields = [h.field if isinstance(h, Hamiltonian) else h for h in hams]
    if len(fields) == 1:
        return fields[0]
    if any(f.dim != fields[0].dim for f in fields):
        raise ValueError("field dimensions differ")
    fns, keys = {id(f): f.fn for f in fields}, [id(f) for f in fields]

    def fn(coords):
        vals = {key: g(coords) for key, g in fns.items()}
        out = vals[keys[0]]
        for key in keys[1:]:
            out = out * vals[key]
        return out

    name = f"({fields[0].name}*...)" if fields[0].name else ""
    return ScalarField(fn, fields[0].dim, name=name)


def invariant_polynomial_I(m: ContactManifold, hams: Sequence[Hamiltonian],
                           budget: int = 1 << 17, seed: int = 0,
                           threads: Optional[int] = None) -> IntegralResult:
    """The k-linear invariant polynomial: integral of the product of the
    Hamiltonians against the contact volume form.

    Symmetric in its arguments by construction.  Warns when an argument
    is tagged non-invariant; the integral is still defined.
    """
    if not hams:
        raise ValueError("need at least one Hamiltonian")
    for h in hams:
        if isinstance(h, Hamiltonian) and h.reeb_invariant is False:
            warnings.warn(f"{h.name or 'argument'} is not Reeb-invariant; "
                          "the integral is defined but not an invariant value",
                          stacklevel=2)
    product = _product_field(m, hams)
    return integrate(m, product, budget=budget, seed=seed, threads=threads)


def pullback_polynomial(action: GroupAction, elements: Sequence,
                        budget: int = 1 << 17, seed: int = 0,
                        threads: Optional[int] = None) -> IntegralResult:
    """Invariant polynomial evaluated on moment Hamiltonians of elements;
    seed is ignored, since every rule is deterministic.  One moment
    Hamiltonian is built per distinct element object, so a repeated
    element, as in [a] * k, is evaluated once per chunk (see
    _product_field)."""
    built = {}
    for a in elements:
        if id(a) not in built:
            built[id(a)] = moment_field(action, a)
    hams = [built[id(a)] for a in elements]
    return invariant_polynomial_I(action.manifold, hams, budget=budget,
                                  seed=seed, threads=threads)


def even_positivity_check(action: GroupAction, a, l: int,
                          budget: int = 1 << 17, seed: int = 0,
                          threads: Optional[int] = None) -> IntegralResult:
    """The 2l-fold moment power integral, certified strictly positive.

    Raises PositivityError when the value minus three standard errors
    fails to clear zero (with a tiny absolute guard for exact
    quadrature results).
    """
    a = action.validate_element(a)
    if not np.any(np.abs(a) > 0):
        raise ValueError("the zero algebra element is excluded")
    result = pullback_polynomial(action, [a] * (2 * l), budget=budget,
                                 seed=seed, threads=threads)
    if result.value - 3.0 * result.std_error <= 0.0:
        raise PositivityError(
            f"even moment power failed positivity: value {result.value:.6e}, "
            f"std_error {result.std_error:.3e}")
    return result


def reeb_circle_pullback(m: ContactManifold, k: int, t: float,
                         budget: int = 1 << 17, seed: int = 0,
                         threads: Optional[int] = None) -> dict:
    """Pullback along the Reeb circle action: constants integrate to
    t^k times the contact volume.

    Returns the raw value and the value after rescaling the form so the
    Reeb circle has period 2 pi (possible only when the manifold records
    a finite Reeb period).
    """
    def pullback(target: ContactManifold) -> IntegralResult:
        if k == 0:
            return contact_volume(target, budget=budget, seed=seed, threads=threads)
        const = hamiltonian(target, lambda coords, tt=float(t): 0.0 * coords[0] + tt,
                            name=f"const({t:g})", reeb_invariant=True)
        return invariant_polynomial_I(target, [const] * k, budget=budget,
                                      seed=seed, threads=threads)

    report = {"raw": pullback(m), "normalized": None, "scale": None}
    if m.reeb_period is not None:
        report["scale"] = 2.0 * np.pi / m.reeb_period
        report["normalized"] = pullback(m.scaled(report["scale"]))
    return report
