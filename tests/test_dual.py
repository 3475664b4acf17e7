"""Dual-number forward differentiation against hand and finite differences."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from contactkit.dual import Dual, epsilon, seed, value

finite = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
nonzero = st.floats(min_value=0.1, max_value=10.0)


def test_polynomial_derivative():
    x = Dual(3.0, 1.0)
    y = x ** 3 - 2.0 * x + 5.0
    assert value(y) == 3.0 ** 3 - 6.0 + 5.0
    assert epsilon(y) == 3 * 3.0 ** 2 - 2.0


def test_trig_chain_rule():
    x = Dual(0.7, 1.0)
    y = np.sin(x * x)
    assert math.isclose(epsilon(y), 2 * 0.7 * math.cos(0.49), rel_tol=1e-15)


def test_quotient_and_sqrt():
    x = Dual(2.0, 1.0)
    y = np.sqrt(x) / (1.0 + x)
    h = 1e-7
    fd = (math.sqrt(2 + h) / (3 + h) - math.sqrt(2 - h) / (3 - h)) / (2 * h)
    assert abs(epsilon(y) - fd) < 1e-9


@given(a=finite, b=finite, da=finite, db=finite)
def test_product_rule(a, b, da, db):
    x, y = Dual(a, da), Dual(b, db)
    assert epsilon(x * y) == pytest.approx(a * db + b * da, rel=1e-12, abs=1e-12)


@given(a=nonzero, da=finite)
def test_log_exp_inverse(a, da):
    x = Dual(a, da)
    y = np.log(np.exp(x))
    assert value(y) == pytest.approx(a, rel=1e-12)
    assert epsilon(y) == pytest.approx(da, rel=1e-9, abs=1e-12)


def test_array_payload_broadcasts():
    x = Dual(np.array([1.0, 2.0, 3.0]), np.ones(3))
    y = x * x
    assert np.array_equal(value(y), np.array([1.0, 4.0, 9.0]))
    assert np.array_equal(epsilon(y), np.array([2.0, 4.0, 6.0]))


def test_ndarray_left_operand_defers_to_dual():
    # without the priority hint numpy would wrap the Dual elementwise
    arr = np.array([1.0, 2.0])
    y = arr * Dual(np.zeros(2), np.ones(2))
    assert isinstance(y, Dual)
    assert np.array_equal(epsilon(y), arr)


def test_nested_duals_give_second_derivative():
    # f(x) = x**4, f''(3) = 108
    inner = Dual(Dual(3.0, 1.0), Dual(1.0, 0.0))
    y = inner ** 4
    assert epsilon(epsilon(y)) == pytest.approx(108.0, rel=1e-14)


def test_arctan2_matches_finite_difference():
    x, y = 0.8, -1.3
    h = 1e-7
    fn = lambda u, v: float(value(np.arctan2(Dual(u, 1.0), Dual(v, 0.5))))
    d = epsilon(np.arctan2(Dual(x, 1.0), Dual(y, 0.5)))
    fd = (math.atan2(x + h, y + 0.5 * h) - math.atan2(x - h, y - 0.5 * h)) / (2 * h)
    assert abs(d - fd) < 1e-9
    assert fn(x, y) == pytest.approx(math.atan2(x, y))


def test_gradient_and_directional_helpers():
    fn = lambda c: c[0] * c[0] * c[1] + np.sin(c[2])
    at = [1.5, -2.0, 0.3]
    g = epsilon(fn(seed(at)))
    assert g == pytest.approx([2 * 1.5 * -2.0, 1.5 ** 2, math.cos(0.3)], rel=1e-14)
    d = epsilon(fn(seed(at, [1.0, 2.0, -1.0])))
    assert d == pytest.approx(g[0] + 2 * g[1] - g[2], rel=1e-14)


def test_seed_keeps_unrelated_entries_plain():
    coords = seed([1.0, 2.0], [0.0, 1.0])
    assert all(isinstance(c, Dual) for c in coords)
    assert epsilon(coords[0]) == 0.0 and epsilon(coords[1]) == 1.0


def test_direction_axis_pass_equals_single_seed_passes():
    fn = lambda c: np.exp(c[0] * c[1]) / (1.0 + c[2] * c[2]) + np.sqrt(c[1] * c[1] + 1.0)
    rng = np.random.default_rng(3)
    pts = [rng.normal(size=9) for _ in range(3)]
    dirs = rng.normal(size=(4, 3, 9))
    many = epsilon(fn(seed(pts, [dirs[:, a] for a in range(3)])))
    assert many.shape == (4, 9)
    for i in range(4):
        assert np.array_equal(many[i], epsilon(fn(seed(pts, list(dirs[i])))))
    grad = epsilon(fn(seed(pts)))
    for a in range(3):
        unit = [np.full(9, 1.0 if b == a else 0.0) for b in range(3)]
        assert np.array_equal(grad[a], epsilon(fn(seed(pts, unit))))


def test_nested_seed_puts_its_axis_in_front():
    # f(x, y) = x^2 y at (1.5, -2) with an inner layer of two seeds
    inner = seed([np.array([1.5]), np.array([-2.0])], [np.array([[1.0], [0.0]]),
                                                       np.array([[0.0], [1.0]])])
    out = epsilon((lambda c: c[0] * c[0] * c[1])(seed(inner)))
    assert np.shape(out.val) == (2, 1, 1) and np.shape(out.eps) == (2, 2, 1)
    assert out.val[:, 0, 0] == pytest.approx([2 * 1.5 * -2.0, 1.5 ** 2])
    # the Hessian, outer direction first
    assert out.eps[:, :, 0] == pytest.approx(np.array([[-4.0, 3.0], [3.0, 0.0]]))


def _no_warnings(call):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return call()


near_zero = st.one_of(st.just(0.0), st.just(-0.0),
                      st.floats(min_value=-1e-3, max_value=1e-3, allow_nan=False))
exponents = st.integers(min_value=0, max_value=6)


def test_pow_zero_exponent_has_zero_derivative():
    for k in (0, 0.0):
        y = _no_warnings(lambda: Dual(0.0, 1.0) ** k)
        assert value(y) == 1.0 and epsilon(y) == 0.0
    y = _no_warnings(lambda: Dual(np.array([0.0, 2.0]), np.ones(2)) ** 0)
    assert np.array_equal(value(y), [1.0, 1.0]) and np.array_equal(epsilon(y), [0.0, 0.0])


@given(x=near_zero, k=exponents, e=finite)
def test_pow_integer_exponent_near_zero_float(x, k, e):
    y = _no_warnings(lambda: Dual(x, e) ** k)
    expected = 0.0 if k == 0 else k * x ** (k - 1) * e
    assert math.isfinite(epsilon(y))
    assert epsilon(y) == pytest.approx(expected, rel=1e-12, abs=1e-300)


@given(x=near_zero, k=exponents)
def test_pow_integer_exponent_near_zero_array_and_axis(x, k):
    val = np.array([x, 0.0, 0.5])
    seeds = np.array([[1.0, 1.0, 1.0], [2.0, -1.0, 0.0]])
    for eps, scale in ((np.ones(3), 1.0), (seeds, seeds)):
        y = _no_warnings(lambda: Dual(val, eps) ** k)
        expected = np.zeros(3) if k == 0 else k * val ** (k - 1)
        assert np.all(np.isfinite(epsilon(y)))
        assert np.allclose(epsilon(y), expected * scale, rtol=1e-12, atol=1e-300)


@given(e=finite)
def test_abs_at_zero_has_zero_derivative(e):
    assert epsilon(abs(Dual(0.0, e))) == 0.0
    y = abs(Dual(np.zeros(3), np.array([[e, 1.0, -1.0], [2.0, e, 0.5]])))
    assert np.array_equal(epsilon(y), np.zeros((2, 3)))


unit_interval = st.floats(min_value=1e-6, max_value=1.0, exclude_min=True)


@given(x=unit_interval)
def test_sqrt_and_log_match_central_differences(x):
    h = 1e-4 * x
    for fn, ref in ((np.sqrt, math.sqrt), (np.log, math.log)):
        fd = (ref(x + h) - ref(x - h)) / (2 * h)
        assert epsilon(fn(Dual(x, 1.0))) == pytest.approx(fd, rel=1e-7)
        axis = epsilon(fn(Dual(np.array([x, x]), np.array([[1.0, 2.0], [-1.0, 0.5]]))))
        assert axis == pytest.approx(np.array([[1.0, 2.0], [-1.0, 0.5]]) * fd, rel=1e-7)


def test_abs_and_comparisons_use_value_part():
    x = Dual(-2.0, 3.0)
    assert value(abs(x)) == 2.0
    assert epsilon(abs(x)) == -3.0
    assert (x < 0.0) and (x <= -2.0) and not (x > 0.0)


def test_dual_exponent_rejected():
    with pytest.raises(TypeError):
        Dual(2.0, 1.0) ** Dual(1.0, 0.0)


def test_reflected_subtraction_and_division():
    # user fields reach 1 - x and 1 / x with a number on the left
    x = Dual(4.0, 3.0)
    diff = 1.0 - x
    assert (value(diff), epsilon(diff)) == (-3.0, -3.0)
    quot = 2.0 / x
    # d(2 / x) = -2 dx / x^2
    assert (value(quot), epsilon(quot)) == (0.5, -2.0 * 3.0 / 16.0)
    xs = Dual(np.array([0.5, 2.0]), np.array([[1.0, 0.0], [0.0, 1.0]]))
    inv = 1.0 / xs
    assert np.array_equal(inv.val, [2.0, 0.5])
    assert np.array_equal(inv.eps, [[-4.0, 0.0], [0.0, -0.25]])
    assert np.array_equal((1.0 - xs).eps, -xs.eps)


@given(st.floats(min_value=-1.4, max_value=1.4))
def test_tan_derivative_is_secant_squared(x):
    y = np.tan(Dual(x, 1.0))
    assert value(y) == np.tan(x)
    assert math.isclose(epsilon(y), 1.0 / math.cos(x) ** 2, rel_tol=1e-14)


def test_greater_or_equal_and_repr():
    x = Dual(2.0, -1.0)
    assert (x >= 2.0) and (x >= Dual(1.0, 5.0)) and not (x >= 2.5)
    assert repr(x) == "Dual(2.0, -1.0)"
    assert repr(Dual(np.array([1.0]), 0.0)) == "Dual(array([1.]), 0.0)"
