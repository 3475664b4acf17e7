from dataclasses import replace

import numpy as np
import pytest

from contactkit import zoo
from contactkit.fields import ScalarField


@pytest.fixture(scope="session")
def sphere():
    return zoo.standard_sphere(1)


@pytest.fixture(scope="session")
def sphere5():
    return zoo.standard_sphere(2)


@pytest.fixture(scope="session")
def torus():
    return zoo.torus3(1)


@pytest.fixture(scope="session")
def torus2():
    return zoo.torus3(2)


@pytest.fixture(scope="session")
def golden():
    return zoo.weighted_sphere([1.0, (1.0 + np.sqrt(5.0)) / 2.0])


@pytest.fixture(scope="session")
def cotangent():
    return zoo.unit_cotangent_sphere()


def sample(m, count, seed=0):
    """Random points on m with a fixed seed."""
    return m.random_points(count, np.random.default_rng(seed))


def counting_constraints(m):
    """m with each constraint function wrapped to count its evaluations.

    Returns (manifold, calls); calls gains the constraint's name on each
    evaluation of any constraint, plain or seeded.  Gradient maps are
    kept, so the count is that of m itself: building the manifold takes
    each mapped constraint's value at the origin, one call each.
    """
    calls = []

    def counted(c):
        def fn(coords):
            calls.append(c.name)
            return c.fn(coords)
        return ScalarField(fn, c.dim, c.name, c.gradient_map)

    return replace(m, constraints=tuple(counted(c) for c in m.constraints)), calls
