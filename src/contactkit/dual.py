"""Forward-mode automatic differentiation with dual numbers.

A ``Dual`` carries a value and the coefficient of an infinitesimal
epsilon (eps**2 == 0), so arithmetic on Duals propagates exact first
derivatives.  Both parts may be floats, numpy arrays of matching shape
(batched evaluation), or Duals again (nested seeding gives second
derivatives).  numpy ufuncs such as ``np.sin`` dispatch to the methods
defined here, so scalar field code written with numpy works unchanged
on Dual inputs.

One pass can carry many seeds.  A seed with a leading direction axis,
``eps`` of shape ``(k,)`` at a single point or ``(k, N)`` on a batch,
gives k directional derivatives at once: the eps part of every result
has that axis in front.  numpy broadcasting carries it through the
arithmetic below unchanged.  A nested layer puts its own axis in front
of the inner one's, so its eps parts, Duals again, carry both.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


class Dual:
    __slots__ = ("val", "eps")

    # make ndarray <op> Dual defer to the reflected Dual method instead
    # of broadcasting Dual as a 0-d object
    __array_priority__ = 1000.0

    def __init__(self, val, eps):
        self.val = val
        self.eps = eps

    def __repr__(self):
        return f"Dual({self.val!r}, {self.eps!r})"

    # arithmetic

    def __add__(self, other):
        if isinstance(other, Dual):
            return Dual(self.val + other.val, self.eps + other.eps)
        return Dual(self.val + other, self.eps)

    __radd__ = __add__

    def __neg__(self):
        return Dual(-self.val, -self.eps)

    def __sub__(self, other):
        if isinstance(other, Dual):
            return Dual(self.val - other.val, self.eps - other.eps)
        return Dual(self.val - other, self.eps)

    def __rsub__(self, other):
        return Dual(other - self.val, -self.eps)

    def __mul__(self, other):
        if isinstance(other, Dual):
            return Dual(self.val * other.val,
                        self.eps * other.val + self.val * other.eps)
        return Dual(self.val * other, self.eps * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Dual):
            inv = 1.0 / other.val
            return Dual(self.val * inv,
                        (self.eps - self.val * inv * other.eps) * inv)
        return Dual(self.val / other, self.eps / other)

    def __rtruediv__(self, other):
        inv = 1.0 / self.val
        return Dual(other * inv, -other * inv * inv * self.eps)

    def __pow__(self, k):
        if isinstance(k, Dual):
            raise TypeError("dual exponents are not supported")
        if isinstance(k, int) or (isinstance(k, float) and k == int(k)):
            k = int(k)
            if k == 0:
                return Dual(self.val ** 0, 0.0 * self.eps)
            return Dual(self.val ** k, k * self.val ** (k - 1) * self.eps)
        return Dual(self.val ** k, k * self.val ** (k - 1.0) * self.eps)

    # comparisons act on the value part; used for pivoting and branching

    def __lt__(self, other):
        return self.val < (other.val if isinstance(other, Dual) else other)

    def __le__(self, other):
        return self.val <= (other.val if isinstance(other, Dual) else other)

    def __gt__(self, other):
        return self.val > (other.val if isinstance(other, Dual) else other)

    def __ge__(self, other):
        return self.val >= (other.val if isinstance(other, Dual) else other)

    def __abs__(self):
        s = np.sign(self.val)
        return Dual(abs(self.val), s * self.eps)

    # elementary functions; numpy ufuncs call these on object input

    def sin(self):
        return Dual(np.sin(self.val), np.cos(self.val) * self.eps)

    def cos(self):
        return Dual(np.cos(self.val), -np.sin(self.val) * self.eps)

    def tan(self):
        c = np.cos(self.val)
        return Dual(np.tan(self.val), self.eps / (c * c))

    def exp(self):
        e = np.exp(self.val)
        return Dual(e, e * self.eps)

    def log(self):
        return Dual(np.log(self.val), self.eps / self.val)

    def sqrt(self):
        r = np.sqrt(self.val)
        return Dual(r, 0.5 * self.eps / r)

    def arctan2(self, other):
        ov = other.val if isinstance(other, Dual) else other
        oe = other.eps if isinstance(other, Dual) else 0.0
        den = self.val * self.val + ov * ov
        return Dual(np.arctan2(self.val, ov),
                    (ov * self.eps - self.val * oe) / den)


def value(x):
    """Value part of x, recursing through nested Duals."""
    while isinstance(x, Dual):
        x = x.val
    return x


def epsilon(x):
    """Epsilon part of x, or 0.0 for a plain number."""
    return x.eps if isinstance(x, Dual) else 0.0


def _ndim(x):
    """Largest number of array axes anywhere in x."""
    if isinstance(x, Dual):
        return max(_ndim(x.val), _ndim(x.eps))
    return np.ndim(x)


@lru_cache(maxsize=None)
def _unit_seeds(d: int, depth: int) -> np.ndarray:
    """np.eye(d) with depth trailing unit axes, built once per shape and
    read-only, since every default seed of that shape shares it."""
    units = np.eye(d).reshape((d, d) + (1,) * depth)
    units.flags.writeable = False
    return units


def seed(coords, directions=None):
    """Coordinate list seeded for derivatives along directions, in one pass.

    directions[a] is the seed of coordinate a: shaped like it for one
    directional derivative, or with a leading axis of k entries for k
    at once.  Without directions every coordinate is seeded along its
    unit vector, so the eps part of a result is the gradient, direction
    axis first and in front of any axes the coordinates already carry.
    Entries of coords may be floats, arrays, or Duals (nesting).
    """
    if directions is None:
        directions = _unit_seeds(len(coords), max(_ndim(c) for c in coords))
    return [Dual(c, e) for c, e in zip(coords, directions)]
