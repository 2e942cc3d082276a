import itertools

import numpy as np
import pytest

from bnsens import (
    AnalysisSpec,
    ContractionUnderflowWarning,
    DivisionByZeroError,
    Factor,
    InvalidAssignmentError,
    MissingValueMapError,
    TensorNetwork,
    collapse,
    contract_all,
    evaluate_f,
    function_tn,
    generate_random_bn,
    marginalize,
    mrf_from_bn,
    quotient,
    restrict,
    square_wrt,
)
from bnsens.oracle import brute_force_f
from helpers import chain_bn, random_tn, tn_marginal, tn_table


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


def test_restrict_chain(chain):
    mrf = mrf_from_bn(chain)
    cut = restrict(mrf, {0: 1})
    assert set(cut.universe) == {1}
    values = sorted(tuple(np.atleast_1d(f.values).tolist()) for f in cut.factors)
    assert values == [(0.1, 0.9), (0.3,)]
    assert contract_all(cut) == pytest.approx(0.3, abs=1e-15)


def test_restrict_empty_is_identity(chain):
    mrf = mrf_from_bn(chain)
    assert restrict(mrf, {}) is mrf


def test_restrict_matches_marginal_cell(five_node):
    mrf = mrf_from_bn(five_node)
    spec_vars = {0: 1, 1: 0}
    cell = contract_all(restrict(mrf, spec_vars))
    table = tn_marginal(mrf, {0, 1})
    assert cell == pytest.approx(table[1, 0], abs=1e-12)


def test_restrict_validates(chain):
    mrf = mrf_from_bn(chain)
    with pytest.raises(InvalidAssignmentError):
        restrict(mrf, {5: 0})
    with pytest.raises(InvalidAssignmentError):
        restrict(mrf, {0: 2})


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


def test_marginalize_with_explicit_orders_matches_heuristic():
    rng = np.random.default_rng(17)
    for _ in range(5):
        tn = random_tn(rng, n_vars=6)
        eliminate = {0, 1, 2, 3}
        base = collapse(marginalize(tn, eliminate), {4, 5}).values
        for _ in range(20):
            order = list(eliminate)
            rng.shuffle(order)
            other = collapse(marginalize(tn, eliminate, order=order), {4, 5}).values
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
    # the second cell by cell inside the bucket of variable 0.
    divisors = (
        TensorNetwork({0: 2}, (Factor.scalar(0.0),)),
        TensorNetwork({0: 2}, (Factor((0,), [0.0, 0.0]),)),
    )
    for divisor in divisors:
        zero = TensorNetwork({0: 2}, (Factor((0,), [0.0, 0.0]),))
        assert contract_all(quotient(zero, divisor)) == 0.0
        nonzero = TensorNetwork({0: 2}, (Factor((0,), [0.5, 0.0]),))
        with pytest.raises(DivisionByZeroError):
            contract_all(quotient(nonzero, divisor))


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
    assert squared.replica_map == {}
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
    assert squared.replica_map == {7: 2, 8: 3, 9: 4}
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


def test_evaluate_f_chain(chain, chain_analysis):
    mrf = mrf_from_bn(chain)
    assert evaluate_f(mrf, chain_analysis, chain, {0: 0}).value == pytest.approx(0.2)
    assert evaluate_f(mrf, chain_analysis, chain, {0: 1}).value == pytest.approx(0.9)


def test_evaluate_f_constant_map(chain):
    spec = AnalysisSpec(1, frozenset({0}), {"0": 3.5, "1": 3.5})
    mrf = mrf_from_bn(chain)
    for e in (0, 1):
        assert evaluate_f(mrf, spec, chain, {0: e}).value == pytest.approx(3.5)


def test_evaluate_f_zero_probability_flag():
    from bnsens import Cpt, DiscreteBayesNet, Variable

    bn = DiscreteBayesNet(
        (Variable(0, "E", ("0", "1")), Variable(1, "O", ("0", "1"))),
        (Cpt(0, (), [[1.0, 0.0]]), Cpt(1, (0,), [[0.5, 0.5], [0.5, 0.5]])),
    )
    spec = AnalysisSpec(1, frozenset({0}), {"0": 0.0, "1": 1.0})
    result = evaluate_f(mrf_from_bn(bn), spec, bn, {0: 1})
    assert result.value == 0.0
    assert result.zero_probability


def test_evaluate_f_matches_oracle_on_random_nets():
    for seed in range(5):
        bn = generate_random_bn(seed + 50, 8, 3, (2, 2))
        spec = AnalysisSpec(7, frozenset({0, 1, 2}), {"0": 0.0, "1": 1.0})
        mrf = mrf_from_bn(bn)
        table = brute_force_f(bn, spec)
        for combo in itertools.product(range(2), repeat=3):
            evidence = dict(zip((0, 1, 2), combo))
            assert evaluate_f(mrf, spec, bn, evidence).value == pytest.approx(
                table.values[combo], abs=1e-12
            )


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
