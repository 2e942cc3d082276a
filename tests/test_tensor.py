import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bnsens import AxisCardinalityMismatchError, Factor, TensorNetwork, UnknownAxisError
from bnsens.tensor import factor_div, factor_product, factor_sum_out
from helpers import quotient, tn_table


@pytest.mark.parametrize(
    "build",
    [
        lambda: Factor((0, 1), np.zeros(2)),
        lambda: Factor((0,), np.zeros((2, 2))),
        lambda: Factor((), np.zeros(2)),
    ],
    ids=["2-axes-1d", "1-axis-2d", "scalar-1d"],
)
def test_values_must_have_one_dimension_per_axis(build):
    with pytest.raises(ValueError, match="-d values for"):
        build()


def test_axes_must_be_ascending():
    with pytest.raises(ValueError):
        Factor((1, 0), np.zeros((2, 2)))
    with pytest.raises(ValueError):
        Factor((0, 0), np.zeros((2, 2)))


def test_product_with_scalar_one_is_identity():
    f = Factor((0,), [2.0, 3.0])
    out = factor_product(f, Factor((), 1.0))
    assert out.axes == (0,)
    np.testing.assert_array_equal(out.values, [2.0, 3.0])


def test_product_same_axis_elementwise():
    a = Factor((1,), [2.0, 3.0])
    b = Factor((1,), [5.0, 7.0])
    np.testing.assert_array_equal(factor_product(a, b).values, [10.0, 21.0])


def test_product_disjoint_axes_outer():
    a = Factor((1,), [2.0, 3.0])
    b = Factor((2,), [5.0, 7.0])
    out = factor_product(a, b)
    assert out.axes == (1, 2)
    np.testing.assert_array_equal(out.values.reshape(-1), [10.0, 14.0, 15.0, 21.0])


def test_product_cardinality_mismatch():
    with pytest.raises(AxisCardinalityMismatchError):
        factor_product(Factor((0,), [1.0, 2.0]), Factor((0,), [1.0, 2.0, 3.0]))


def test_sum_out_examples():
    root = Factor((0,), [0.4, 0.6])
    assert float(factor_sum_out(root, {0}).values) == pytest.approx(1.0)
    f = Factor((1, 2), [[1.0, 2.0], [3.0, 4.0]])
    assert factor_sum_out(f, set()) is f
    out = factor_sum_out(f, {2})
    assert out.axes == (1,)
    np.testing.assert_array_equal(out.values, [3.0, 7.0])


def test_sum_out_unknown_axis():
    with pytest.raises(UnknownAxisError):
        factor_sum_out(Factor((0,), [1.0, 1.0]), {3})


def test_div_basic_and_zero_conventions():
    a = Factor((0,), [0.2, 0.8])
    np.testing.assert_allclose(factor_div(a, a).values, [1.0, 1.0])
    z = Factor((0,), [0.0, 0.8])
    out = factor_div(z, z)
    np.testing.assert_array_equal(out.values, [0.0, 1.0])
    # a nonzero numerator over zero divides to 0, as in a quotient network
    out = factor_div(Factor((0,), [0.5, 0.5]), Factor((0,), [0.0, 1.0]))
    np.testing.assert_array_equal(out.values, [0.0, 0.5])


def test_div_is_zero_safe_as_quotient_is():
    # a / b where |b| is a normal float; 0 where b is 0 or subnormal, whose
    # reciprocal would overflow. Cell for cell the same as the quotient
    # network of the two factors.
    rng = np.random.default_rng(7)
    tiny = np.finfo(np.float64).tiny
    for _ in range(20):
        a = Factor((0, 1), rng.uniform(-2.0, 2.0, size=(3, 4)))
        den = rng.uniform(-2.0, 2.0, size=(4, 2))
        den.flat[rng.choice(den.size, size=3, replace=False)] = [0.0, tiny / 4, -tiny / 2]
        b = Factor((1, 2), den)
        out = factor_div(a, b)
        assert out.axes == (0, 1, 2)
        normal = np.abs(den) >= tiny
        expected = np.where(normal, a.values[:, :, None] / np.where(normal, den, 1.0), 0.0)
        np.testing.assert_allclose(out.values, expected, rtol=1e-15, atol=0.0)
        universe = {0: 3, 1: 4, 2: 2}
        net = quotient(TensorNetwork(universe, (a,)), TensorNetwork(universe, (b,)))
        np.testing.assert_array_equal(out.values, tn_table(net)[1])


def test_div_broadcasts_over_union():
    a = Factor((0, 1), np.array([[1.0, 2.0], [3.0, 4.0]]))
    b = Factor((1,), np.array([2.0, 4.0]))
    out = factor_div(a, b)
    np.testing.assert_allclose(out.values, [[0.5, 0.5], [1.5, 1.0]])


# ----------------------------------------------------------- property tests

@st.composite
def factors(draw, axis_pool=(0, 1, 2, 3, 4), cards=(2, 3, 4)):
    k = draw(st.integers(min_value=0, max_value=3))
    axes = tuple(sorted(draw(st.permutations(axis_pool))[:k]))
    shape = tuple(cards[a % len(cards)] for a in axes)
    count = int(np.prod(shape)) if shape else 1
    values = draw(
        st.lists(
            st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
            min_size=count,
            max_size=count,
        )
    )
    return Factor(axes, np.array(values).reshape(shape))


@given(factors(), factors())
@settings(max_examples=60, deadline=None)
def test_product_commutative(a, b):
    left = factor_product(a, b)
    right = factor_product(b, a)
    assert left.axes == right.axes
    np.testing.assert_allclose(left.values, right.values, rtol=1e-12, atol=1e-12)


@given(factors(), factors(), factors())
@settings(max_examples=60, deadline=None)
def test_product_associative(a, b, c):
    left = factor_product(factor_product(a, b), c)
    right = factor_product(a, factor_product(b, c))
    assert left.axes == right.axes
    np.testing.assert_allclose(left.values, right.values, rtol=1e-12, atol=1e-12)


@given(factors())
@settings(max_examples=60, deadline=None)
def test_sum_out_commutes(f):
    if len(f.axes) < 2:
        return
    x, y = f.axes[0], f.axes[-1]
    stepwise = factor_sum_out(factor_sum_out(f, {x}), {y})
    joint = factor_sum_out(f, {x, y})
    assert stepwise.axes == joint.axes
    np.testing.assert_allclose(stepwise.values, joint.values, rtol=1e-12, atol=1e-12)


@given(factors(axis_pool=(0, 1)), factors(axis_pool=(2, 3, 4)))
@settings(max_examples=60, deadline=None)
def test_sum_then_product_distributes(a, b):
    # Summing out a variable absent from `a` commutes with the product.
    if not b.axes:
        return
    v = b.axes[0]
    left = factor_sum_out(factor_product(a, b), {v})
    right = factor_product(a, factor_sum_out(b, {v}))
    assert left.axes == right.axes
    np.testing.assert_allclose(left.values, right.values, rtol=1e-12, atol=1e-12)
