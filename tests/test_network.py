from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bnsens.network
from bnsens import (
    AnalysisSpec,
    AxisCardinalityMismatchError,
    ContractionUnderflowWarning,
    Factor,
    MissingValueMapError,
    StateSpaceTooLargeError,
    TensorNetwork,
    UnknownAxisError,
    collapse,
    contract_all,
    function_tn,
    generate_random_bn,
    marginalize,
    mrf_from_bn,
    quotient,
    square_wrt,
)
from bnsens.oracle import brute_force_f
from bnsens.tensor import factor_product, factor_sum_out
from helpers import chain_bn, random_tn, tn_marginal, tn_table


_PAIR = TensorNetwork({0: 2, 1: 3}, (Factor((0, 1), np.ones((2, 3))),))


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda: TensorNetwork({0: 2}, (Factor((1,), [1.0, 1.0]),)), UnknownAxisError),
        (lambda: TensorNetwork({0: 3}, (Factor((0,), [1.0, 1.0]),)),
         AxisCardinalityMismatchError),
        (lambda: marginalize(_PAIR, {0, 7}), UnknownAxisError),
        (lambda: square_wrt(_PAIR, {7}), UnknownAxisError),
        (lambda: collapse(_PAIR, {1, 7}), UnknownAxisError),
        (lambda: quotient(_PAIR, TensorNetwork({7: 2})), UnknownAxisError),
        (lambda: quotient(_PAIR, TensorNetwork({1: 2})), AxisCardinalityMismatchError),
        (lambda: mrf_from_bn(chain_bn(), {0, 2}), IndexError),
        (lambda: mrf_from_bn(chain_bn(), {-1, 1}), IndexError),
    ],
    ids=["factor-axis", "factor-card", "marginalize", "square", "collapse",
         "quotient-axis", "quotient-card", "mrf-above", "mrf-below"],
)
def test_network_argument_errors(build, error):
    with pytest.raises(error) as info:
        build()
    assert type(info.value) is error


def test_mrf_factor_scopes(five_node):
    mrf = mrf_from_bn(five_node)
    scopes = sorted(tuple(f.axes) for f in mrf.factors)
    assert scopes == [(0,), (0, 1, 3), (0, 2), (1,), (2, 3, 4)]


def test_mrf_contracts_to_one(five_node, chain):
    assert contract_all(mrf_from_bn(five_node)) == pytest.approx(1.0, abs=1e-12)
    assert contract_all(mrf_from_bn(chain)) == pytest.approx(1.0, abs=1e-12)


def test_single_root_mrf():
    bn = chain_bn()
    mrf = mrf_from_bn(bn)
    root = next(f for f in mrf.factors if f.axes == (0,))
    np.testing.assert_allclose(root.values, [0.7, 0.3])


def test_random_mrfs_normalize():
    for seed in range(10):
        bn = generate_random_bn(seed, 7, 3, (2, 3))
        assert contract_all(mrf_from_bn(bn)) == pytest.approx(1.0, abs=1e-9)


def test_function_tn_appends_value_factor(chain, chain_analysis):
    mrf = mrf_from_bn(chain)
    t = function_tn(mrf, chain_analysis, chain)
    assert len(t.factors) == len(mrf.factors) + 1
    extra = t.factors[-1]
    assert extra.axes == (1,)
    np.testing.assert_array_equal(extra.values, [0.0, 1.0])
    # E[f] = Pr(O=1) = 0.7*0.2 + 0.3*0.9
    assert contract_all(t) == pytest.approx(0.41, abs=1e-12)


def test_function_tn_ternary_map():
    variables = chain_bn().variables
    from bnsens import Cpt, DiscreteBayesNet, Variable

    bn = DiscreteBayesNet(
        (Variable(0, "E", ("0", "1")), Variable(1, "O", ("low", "medium", "high"))),
        (Cpt(0, (), [[0.5, 0.5]]), Cpt(1, (0,), [[0.2, 0.3, 0.5], [0.6, 0.3, 0.1]])),
    )
    spec = AnalysisSpec(1, frozenset({0}), {"low": 0.0, "medium": 1.0, "high": 2.0})
    t = function_tn(mrf_from_bn(bn), spec, bn)
    np.testing.assert_array_equal(t.factors[-1].values, [0.0, 1.0, 2.0])


def test_function_tn_zero_map(chain):
    spec = AnalysisSpec(1, frozenset({0}), {"0": 0.0, "1": 0.0})
    t = function_tn(mrf_from_bn(chain), spec, chain)
    assert contract_all(t) == 0.0


def test_function_tn_missing_label(chain):
    spec = AnalysisSpec(1, frozenset({0}), {"0": 0.0})
    with pytest.raises(MissingValueMapError):
        function_tn(mrf_from_bn(chain), spec, chain)


def test_marginalize_nothing(five_node):
    mrf = mrf_from_bn(five_node)
    out = marginalize(mrf, set())
    assert out.universe == mrf.universe
    np.testing.assert_allclose(tn_table(out)[1], tn_table(mrf)[1])


def test_marginalize_everything_single_scalar(five_node):
    out = marginalize(mrf_from_bn(five_node), set(range(5)))
    assert out.universe == {}
    total = 1.0
    for f in out.factors:
        total *= float(f.values)
    assert total == pytest.approx(1.0, abs=1e-12)


def test_marginalize_matches_enumeration_on_random_nets():
    for seed in range(8):
        bn = generate_random_bn(seed + 100, 8, 3, (2, 3))
        mrf = mrf_from_bn(bn)
        keep = {0, 1, 2}
        reduced = marginalize(mrf, set(range(8)) - keep)
        mine = collapse(reduced, keep).values
        reference = tn_marginal(mrf, keep)
        assert np.abs(mine - reference).max() <= 1e-10


def test_marginalize_with_explicit_orders_matches_heuristic(monkeypatch):
    rng = np.random.default_rng(17)
    for _ in range(5):
        tn = random_tn(rng, n_vars=6)
        eliminate = {0, 1, 2, 3}
        base = collapse(marginalize(tn, eliminate), {4, 5}).values
        for _ in range(20):
            order = list(eliminate)
            rng.shuffle(order)
            calls = []

            def shuffled(scopes, cardinalities, keep=()):
                calls.append(set(keep))
                return tuple(order)

            # Only this marginalize takes the shuffled order; collapse's own
            # call below keeps the heuristic.
            with monkeypatch.context() as m:
                m.setattr(bnsens.network, "min_weight_order", shuffled)
                reduced = marginalize(tn, eliminate)
            assert calls == [{4, 5}]
            other = collapse(reduced, {4, 5}).values
            np.testing.assert_allclose(other, base, rtol=1e-9, atol=1e-12)


def test_marginalize_counts_unsupported_variables():
    # A universe variable carried by no factor sums to its cardinality.
    tn = TensorNetwork({0: 3, 1: 2}, (Factor((1,), [0.5, 0.5]),))
    assert contract_all(tn) == pytest.approx(3.0)


def test_contract_empty_network_is_one():
    assert contract_all(TensorNetwork({})) == 1.0


def test_contract_single_factor():
    tn = TensorNetwork({0: 2}, (Factor((0,), [0.4, 0.6]),))
    assert contract_all(tn) == pytest.approx(1.0)


def test_contract_over_zero_divisor():
    # The first divisor is zero only as a scalar residue after elimination,
    # the second cell by cell inside the bucket of variable 0. The quotient
    # is 0 there whatever the numerator, and a subnormal divisor cell counts
    # as zero: its reciprocal would overflow.
    divisors = (
        TensorNetwork({0: 2}, (Factor.scalar(0.0),)),
        TensorNetwork({0: 2}, (Factor((0,), [0.0, 0.0]),)),
        TensorNetwork({0: 2}, (Factor((0,), [1e-310, -0.0]),)),
    )
    for divisor in divisors:
        for cells in ([0.0, 0.0], [0.5, 0.0], [0.5, 2.0]):
            tn = TensorNetwork({0: 2}, (Factor((0,), cells),))
            assert contract_all(quotient(tn, divisor)) == 0.0
    partly = TensorNetwork({0: 2}, (Factor((0,), [0.0, 4.0]),))
    tn = TensorNetwork({0: 2}, (Factor((0,), [0.5, 3.0]),))
    assert contract_all(quotient(tn, partly)) == 0.75


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_collapsed_quotient_is_the_tabulated_ratio_and_zero_over_zero(seed):
    # Some divisor cells are zero; half the time the numerator is zero on
    # the same cells too (0/0), otherwise it is nonzero there. Either way
    # the quotient is 0 wherever the divisor is.
    rng = np.random.default_rng(seed)
    tn = random_tn(rng)
    zeroed = []
    count = int(rng.integers(0, 3))
    for f in random_tn(rng, positive=True, universe=tn.universe).factors[:count]:
        zero = rng.random(f.values.shape) < 0.3
        zeroed.append(Factor(f.axes, np.where(zero, 0.0, f.values)))
        if rng.random() < 0.5:
            tn = TensorNetwork(tn.universe, (*tn.factors, Factor(f.axes, 1.0 * ~zero)))
    divisor = TensorNetwork(tn.universe, tuple(zeroed))
    keep = {v for v in tn.universe if rng.random() < 0.5}

    axes, num = tn_table(tn)
    den = tn_table(divisor)[1]
    ratio = np.divide(num, den, out=np.zeros(num.shape), where=den != 0.0)
    drop = tuple(k for k, ax in enumerate(axes) if ax not in keep)
    out = collapse(quotient(tn, divisor), keep)
    assert out.axes == tuple(sorted(keep))
    scale = np.abs(ratio).sum(axis=drop)
    np.testing.assert_array_less(
        np.abs(out.values - ratio.sum(axis=drop)), 1e-13 * scale + 1e-300
    )


def test_bucket_beyond_einsum_labels_raises_before_einsum(monkeypatch):
    pairs = tuple(Factor((0, k), np.full((2, 2), 0.5)) for k in range(1, 54))
    tn = TensorNetwork({k: 2 for k in range(54)}, pairs)

    def unreachable(*args, **kwargs):
        raise AssertionError("np.einsum was called")

    monkeypatch.setattr(np, "einsum", unreachable)
    with pytest.raises(StateSpaceTooLargeError, match="54 axes"):
        marginalize(tn, {0})


def test_bucket_beyond_einsum_operand_cap_is_chunked(monkeypatch):
    # 70 factors share axis 0: more operands than one np.einsum call takes
    # (31 on numpy 1.x, 63 on numpy 2), so no call may see them all.
    rng = np.random.default_rng(5)
    factors = [Factor((0,), rng.uniform(0.5, 1.5, size=2)) for _ in range(69)]
    factors.append(Factor((0, 1), rng.uniform(size=(2, 3))))
    tn = TensorNetwork({0: 2, 1: 3}, tuple(factors))
    einsum = np.einsum

    def capped(subscripts, *operands, **kwargs):
        assert len(operands) <= 31, f"{len(operands)} operands in one einsum call"
        return einsum(subscripts, *operands, **kwargs)

    monkeypatch.setattr(np, "einsum", capped)
    expected = factor_sum_out(reduce(factor_product, factors), {0})
    np.testing.assert_allclose(collapse(tn, {1}).values, expected.values, rtol=1e-12)


def test_collapse_result_does_not_share_memory_with_its_input():
    values = np.arange(6.0).reshape(2, 3)
    tn = TensorNetwork({0: 2, 1: 3}, (Factor((0, 1), values),))
    out = collapse(tn, {0, 1})
    np.testing.assert_array_equal(out.values, values)
    assert not np.shares_memory(out.values, values)


def test_contract_underflow_warns():
    tn = TensorNetwork(
        {0: 2},
        (Factor((0,), [1e-160, 0.0]), Factor((0,), [1e-160, 0.0])),
    )
    with pytest.warns(ContractionUnderflowWarning):
        contract_all(tn)


def test_square_wrt_whole_universe_doubles_factors():
    rng = np.random.default_rng(1)
    tn = random_tn(rng, n_vars=3)
    squared = square_wrt(tn, set(tn.universe))
    assert len(squared.factors) == 2 * len(tn.factors)
    base = tn_table(tn)[1]
    np.testing.assert_allclose(tn_table(squared)[1], base * base, rtol=1e-12)


def test_square_wrt_replicas_and_mirrored_scopes():
    # Hyperedges {0,1,3}, {0,2,3}, {2,3,4} squared with respect to {0,1}.
    rng = np.random.default_rng(2)
    universe = {i: 2 for i in range(5)}
    factors = (
        Factor((0, 1, 3), rng.uniform(size=(2, 2, 2))),
        Factor((0, 2, 3), rng.uniform(size=(2, 2, 2))),
        Factor((2, 3, 4), rng.uniform(size=(2, 2, 2))),
    )
    tn = TensorNetwork(universe, factors)
    squared = square_wrt(tn, {0, 1})
    scopes = sorted(tuple(f.axes) for f in squared.factors)
    assert scopes == sorted(
        [(0, 1, 3), (0, 2, 3), (2, 3, 4), (0, 1, 8), (0, 7, 8), (7, 8, 9)]
    )


def test_square_identity_tabulated():
    rng = np.random.default_rng(3)
    for _ in range(10):
        tn = random_tn(rng, n_vars=int(rng.integers(2, 7)))
        k = int(rng.integers(1, len(tn.universe) + 1))
        shared = {int(x) for x in rng.choice(list(tn.universe), size=k, replace=False)}
        squared = square_wrt(tn, shared)
        lhs = collapse(squared, shared).values
        base = tn_marginal(tn, shared)
        np.testing.assert_allclose(lhs, base * base, rtol=1e-9, atol=1e-12)


def test_quotient_by_all_ones_is_identity():
    rng = np.random.default_rng(4)
    tn = random_tn(rng, n_vars=4)
    ones = TensorNetwork(tn.universe, (Factor((0, 1), np.ones((tn.universe[0], tn.universe[1]))),))
    q = quotient(tn, ones)
    np.testing.assert_allclose(tn_table(q)[1], tn_table(tn)[1], rtol=1e-12)


def test_quotient_of_scalars():
    six = TensorNetwork({}, (Factor.scalar(6.0),))
    three = TensorNetwork({}, (Factor.scalar(3.0),))
    assert contract_all(quotient(six, three)) == pytest.approx(2.0)


def test_quotient_pointwise():
    rng = np.random.default_rng(5)
    for _ in range(6):
        n = int(rng.integers(2, 6))
        tn = random_tn(rng, n_vars=n)
        divisor = random_tn(rng, positive=True, universe=tn.universe)
        q = quotient(tn, divisor)
        expected = tn_table(tn)[1] / tn_table(divisor)[1]
        np.testing.assert_allclose(tn_table(q)[1], expected, rtol=1e-9)


def test_quotient_marginalization_commutes():
    # Dividing by an already-marginalized network commutes with eliminating
    # the same variables from the numerator.
    rng = np.random.default_rng(6)
    for _ in range(6):
        n = int(rng.integers(3, 6))
        tn = random_tn(rng, n_vars=n)
        divisor = random_tn(rng, positive=True, universe=tn.universe)
        inner = {int(x) for x in rng.choice(n, size=int(rng.integers(1, n)), replace=False)}
        keep = set(range(n)) - inner
        divisor_marg = marginalize(divisor, inner)
        lhs = collapse(marginalize(quotient(tn, divisor_marg), inner), keep).values
        rhs_num = tn_marginal(tn, keep)
        rhs_den = tn_marginal(divisor, keep)
        np.testing.assert_allclose(lhs, rhs_num / rhs_den, rtol=1e-9)


def test_expected_value_identity_against_oracle():
    for seed in range(5):
        bn = generate_random_bn(seed + 70, 7, 3, (2, 3))
        spec = AnalysisSpec(
            6,
            frozenset({0, 1}),
            {label: float(k) for k, label in enumerate(bn.variables[6].domain)},
        )
        t = function_tn(mrf_from_bn(bn), spec, bn)
        table = brute_force_f(bn, spec)
        expected = float((table.probabilities * table.values).sum())
        assert contract_all(t) == pytest.approx(expected, abs=1e-10)
