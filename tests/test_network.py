import math
import tracemalloc
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
    Cpt,
    Factor,
    PartitionError,
    StateSpaceTooLargeError,
    TensorNetwork,
    UnknownAxisError,
    ValidationError,
    ancestors,
    collapse,
    contract_all,
    encode_utility_node,
    generate_random_bn,
    marginalize,
    mrf_from_bn,
    output_values,
    separated_evidence,
    square_wrt,
)
from bnsens.graph import min_weight_order
from bnsens.network import Elimination, marginals
from bnsens.oracle import brute_force_f
from bnsens.tensor import factor_product, factor_sum_out
from helpers import (
    chain_bn,
    factor_of,
    function_tn,
    quotient,
    random_tn,
    tn_marginal,
    tn_table,
)


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
        # node 1 without its parent 0: its factors are built unchecked, so
        # mrf_from_bn checks that the node set is ancestral itself
        (lambda: mrf_from_bn(chain_bn(), {1}), UnknownAxisError),
    ],
    ids=["factor-axis", "factor-card", "marginalize", "square", "collapse",
         "quotient-axis", "quotient-card", "mrf-above", "mrf-below", "mrf-not-ancestral"],
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
    t = function_tn(mrf, chain_analysis.output, output_values(chain, chain_analysis))
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
    t = function_tn(mrf_from_bn(bn), spec.output, output_values(bn, spec))
    np.testing.assert_array_equal(t.factors[-1].values, [0.0, 1.0, 2.0])


def test_function_tn_zero_map(chain):
    spec = AnalysisSpec(1, frozenset({0}), {"0": 0.0, "1": 0.0})
    t = function_tn(mrf_from_bn(chain), spec.output, output_values(chain, spec))
    assert contract_all(t) == 0.0


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


def test_marginalize_of_one_variable_or_none_takes_no_ordering(monkeypatch):
    # One variable, or none, is its own elimination order: no ordering is
    # computed, and the factors are bitwise those that the explicit order
    # of the heuristic gives.
    rng = np.random.default_rng(23)
    for _ in range(10):
        tn = random_tn(rng, n_vars=5)
        for eliminate in [set(), *({v} for v in tn.universe)]:
            order = min_weight_order(
                [f.axes for f in tn.factors], tn.universe, keep=set(tn.universe) - eliminate
            )
            explicit = marginalize(tn, order)
            with monkeypatch.context() as m:
                m.setattr(bnsens.network, "min_weight_order", None)  # any call fails
                reduced = marginalize(tn, eliminate)
            assert reduced.universe == explicit.universe
            assert len(reduced.factors) == len(explicit.factors)
            for a, b in zip(reduced.factors, explicit.factors):
                assert a.axes == b.axes
                assert a.values.tobytes() == b.values.tobytes()


def test_marginalize_frees_each_message_once_it_is_taken():
    # A chain whose messages carry a wide kept axis: while a bucket runs,
    # only its incoming message and its result are alive, not the message
    # its predecessor took.
    wide, links = 100_000, 6
    factors = [Factor((i, i + 1, 99), np.ones((2, 2, wide))) for i in range(links - 1)]
    tn = TensorNetwork({**{i: 2 for i in range(links)}, 99: wide}, tuple(factors))
    message = 2 * wide * 8  # bytes of one float64 message over (i + 1, 99)
    tracemalloc.start()
    try:
        marginalize(tn, set(range(links - 1)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 2 * message <= peak < 2.5 * message


def test_marginalize_counts_unsupported_variables():
    # A universe variable carried by no factor sums to its cardinality.
    tn = TensorNetwork({0: 3, 1: 2}, (Factor((1,), [0.5, 0.5]),))
    assert contract_all(tn) == pytest.approx(3.0)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    empty=st.booleans(),
    unit_axis=st.booleans(),
    loose=st.booleans(),
    second=st.booleans(),
    scalar=st.booleans(),
)
def test_marginals_match_collapse_on_every_variable(
    seed, empty, unit_axis, loose, second, scalar
):
    # random_tn draws entries in [-1, 1.5), so products change sign and no
    # outside factor may be taken by division. The flags add a
    # cardinality-1 axis, a variable in no factor, a second component over
    # ids of its own and a scalar factor; with `empty` and no other flag
    # the universe is empty. Asked for every other variable, the backward
    # pass gives those marginals bit for bit.
    rng = np.random.default_rng(seed)
    n = 0 if empty else int(rng.integers(2, 6))
    universe = {i: int(rng.integers(2, 4)) for i in range(n)}
    if unit_axis:
        universe[7] = 1
    tn = random_tn(rng, universe=universe) if universe else TensorNetwork({})
    universe, factors = dict(tn.universe), list(tn.factors)
    if second:
        other = random_tn(rng, universe={10: 3, 11: 2, 12: 2})
        universe.update(other.universe)
        factors += other.factors
    if loose:
        universe[20] = 3
    if scalar:
        factors.append(Factor((), float(rng.uniform(-2.0, 2.0))))
    tn = TensorNetwork(universe, tuple(factors))
    got = marginals(tn)
    assert sorted(got) == sorted(universe)
    some = sorted(universe)[::2]
    part = marginals(tn, of=some)
    assert sorted(part) == some
    assert all(np.array_equal(part[v], got[v]) for v in some)
    for v in universe:
        want = collapse(tn, {v}).values
        assert got[v].shape == want.shape
        np.testing.assert_allclose(got[v], want, rtol=1e-12, atol=1e-12)


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    unit_axis=st.booleans(),
    loose=st.booleans(),
    second=st.booleans(),
    scalar=st.booleans(),
)
def test_outside_factors_give_the_contraction_with_and_without_each_input(
    seed, unit_axis, loose, second, scalar
):
    # The contraction is linear in each factor: an input times its outside
    # factor sums to the contraction, and the outside factor alone to the
    # contraction with that input replaced by ones. Asked for every other
    # input, the backward pass skips buckets that lead to none of them. The
    # flags are those of the marginals test above: with them the pass starts
    # from several final scalars, and its buckets of one factor pad ones.
    rng = np.random.default_rng(seed)
    universe = {i: int(rng.integers(2, 4)) for i in range(int(rng.integers(2, 6)))}
    if unit_axis:
        universe[7] = 1
    tn = random_tn(rng, universe=universe)
    universe, factors = dict(tn.universe), list(tn.factors)
    if second:
        other = random_tn(rng, universe={10: 3, 11: 2, 12: 2})
        universe.update(other.universe)
        factors += other.factors
    if loose:
        universe[20] = 3
    if scalar:
        factors.append(Factor((), -1.5))
    tn = TensorNetwork(universe, tuple(factors))
    chosen = list(range(0, len(tn.factors), 2))
    got = marginals(tn, outside_of=chosen)
    assert sorted(got) == chosen
    total = contract_all(tn)
    for i in chosen:
        f = tn.factors[i]
        assert got[i].shape == f.values.shape
        assert float(np.sum(got[i] * f.values)) == pytest.approx(total, rel=1e-12, abs=1e-12)
        ones = Factor(f.axes, np.ones(f.values.shape))
        rest = TensorNetwork(tn.universe, (*tn.factors[:i], ones, *tn.factors[i + 1 :]))
        assert float(np.sum(got[i])) == pytest.approx(
            contract_all(rest), rel=1e-12, abs=1e-12
        )


def _recording_kernels(patch) -> dict:
    """Hook `bnsens.network._routed`, which every kernel comes from, forward
    or backward: each kernel derived from now on, by id, with its scopes
    and axes (the kernel kept alive)."""
    route, derived = bnsens.network._routed, {}

    def recorded(scopes, subscripts, cards, axes, cells):
        kernel = route(scopes, subscripts, cards, axes, cells)
        derived[id(kernel)] = (kernel, list(scopes), tuple(axes))
        return kernel

    patch.setattr(bnsens.network, "_routed", recorded)
    return derived


@pytest.mark.parametrize(
    "route_cells", [bnsens.network.ROUTE_CELLS, 0], ids=["routes", "all-routed"]
)
def test_backward_pass_is_bitwise_a_fresh_einsum_of_each_call(monkeypatch, route_cells):
    # The backward pass derives each kernel over the letters of the bucket
    # it came from, whose letters follow that bucket's operands rather than
    # the call's own. Each array it computes, marginal or outside factor,
    # must still equal bit for bit the `_einsum` of the same operands in
    # the same order. Squared networks give buckets of many operands;
    # ROUTE_CELLS 0 sends every call through the fold and matmul routes.
    monkeypatch.setattr(bnsens.network, "ROUTE_CELLS", route_cells)
    contract, derive = bnsens.network._contract, bnsens.network._kernel
    derived = _recording_kernels(monkeypatch)
    calls = []

    def recorded(kernel, arrays):
        out = contract(kernel, arrays)
        calls.append((kernel, list(arrays), out))
        return out

    relettered = 0
    for seed in range(40):
        rng = np.random.default_rng(seed)
        universe = {i: int(rng.integers(2, 5)) for i in range(int(rng.integers(3, 7)))}
        shared = [v for v in universe if rng.random() < 0.5]
        tn = square_wrt(random_tn(rng, universe=universe), shared)
        order = min_weight_order([f.axes for f in tn.factors], tn.universe, keep=())
        forms = {"of": sorted(tn.universe)[::2]}, {"outside_of": range(0, len(tn.factors), 2)}
        for form in forms:
            forward = Elimination(tn).run(order)
            calls.clear()
            with monkeypatch.context() as patch:
                patch.setattr(bnsens.network, "_contract", recorded)
                got = marginals(forward, **form)
            assert calls and got
            for kernel, arrays, out in calls:
                _, scopes, axes = derived[id(kernel)]
                fresh = bnsens.network._einsum(scopes, arrays, axes)
                assert out.shape == fresh.shape and np.array_equal(out, fresh)
                own = {ax: n for s, a in zip(scopes, arrays) for ax, n in zip(s, a.shape)}
                relettered += derive(scopes, own, axes)[1] != kernel[1]
    assert relettered  # calls whose fresh letters differ from the derived ones


def test_marginals_derive_subscripts_once_per_forward_bucket(monkeypatch):
    # Every bucket with operands derives its subscripts once, forward, with
    # its kernel; the backward pass, in all three forms, derives none: its
    # program letters each kernel by its forward bucket's subscripts. Run
    # from a program derived before, it derives no kernel either, and gives
    # the same bits.
    derive = bnsens.network._kernel
    derived = []

    def counted(scopes, cards, axes):
        derived.append(tuple(axes))
        return derive(scopes, cards, axes)

    monkeypatch.setattr(bnsens.network, "_kernel", counted)
    kernels = _recording_kernels(monkeypatch)
    for seed in range(20):
        rng = np.random.default_rng(seed)
        universe = {i: int(rng.integers(2, 4)) for i in range(int(rng.integers(2, 7)))}
        factors = random_tn(rng, universe=universe).factors
        tn = TensorNetwork({**universe, 9: 2}, factors)  # 9 is in no factor
        order = min_weight_order([f.axes for f in factors], tn.universe, keep=())
        for form in ({}, {"of": [0]}, {"outside_of": [0]}):
            derived.clear()
            forward = Elimination(tn).run(order)
            buckets = sum(1 for record in forward.records if record[1])
            assert len(derived) == buckets < len(tn.universe)
            derived.clear()
            program = bnsens.network._backward(tn.universe, forward.records, forward.live, **form)
            kernels.clear()
            got = marginals(forward, program=program)
            assert derived == [] and kernels == {}
            assert got.keys() == marginals(Elimination(tn).run(order), **form).keys()
            derived.clear()
            expected = marginals(Elimination(tn).run(order), **form)
            assert len(derived) == buckets
            assert all(np.array_equal(got[k], expected[k]) for k in got)
        derived.clear()
        marginals(tn)
        assert len(derived) == buckets


def _kernel_case(name):
    """Scopes, cardinalities and kept axes of a contraction that takes the
    named route at the default ROUTE_CELLS (4096)."""
    threes = {ax: 3 for ax in range(9)}
    if name == "einsum":  # 27 cells
        return [(0, 1), (1, 2), (2,)], {0: 3, 1: 3, 2: 3}, (0, 2)
    if name == "lone":  # einsum hands back a view of a lone operand
        return [(1, 0)], {1: 3, 0: 2}, (0, 1)
    if name == "scalars":
        return [(), (0, 1), (), (1,)], {0: 2, 1: 3}, (0,)
    if name == "fold":  # 3^8 cells: the vectors fold, four operands meet in einsum
        scopes = [(0,), tuple(range(8)), (4,), (0,), tuple(range(8)), (4,)]
        return scopes, {ax: 3 for ax in range(8)}, tuple(range(1, 8))
    if name == "fold-matmul":  # 3^8 cells: the vector folds into b, a and b pair
        scopes = [tuple(range(7)), (5,), (7, 5, 4, 6)]
        return scopes, {**threes, 7: 3}, (0, 1, 2, 3, 7)
    # 70 operands over axis 0 and one over (0, 1): chunks of EINSUM_OPERANDS
    return [(0,)] * 69 + [(1, 0)], {0: 2, 1: 3}, (1,)


@pytest.mark.parametrize(
    "route_cells", [bnsens.network.ROUTE_CELLS, 0], ids=["routes", "all-routed"]
)
@pytest.mark.parametrize("name", ["einsum", "lone", "scalars", "fold", "fold-matmul", "chunked"])
def test_a_kernel_from_scopes_runs_any_arrays_of_its_shapes(monkeypatch, route_cells, name):
    # A kernel is derived from scopes and cardinalities alone, then run on
    # two sets of arrays of the same shapes: each result has the bits of a
    # fresh `_einsum` of those arrays, which derives its own kernel, is the
    # summed product, and shares no memory with an operand.
    monkeypatch.setattr(bnsens.network, "ROUTE_CELLS", route_cells)
    scopes, cards, axes = _kernel_case(name)
    kernel = bnsens.network._kernel(scopes, cards, axes)
    cells, _, chunks, folds, _, route = kernel
    assert cells == math.prod(cards.values())
    if route_cells:
        assert bool(chunks) == (name == "chunked")
        assert bool(folds) == (name in ("fold", "fold-matmul"))
        assert isinstance(route, str) == (name not in ("fold-matmul", "chunked"))  # matmul, kernel
    rng = np.random.default_rng(len(scopes))
    for _ in range(2):
        arrays = [rng.uniform(-1.5, 1.5, size=[cards[ax] for ax in s]) for s in scopes]
        copies = [a.copy() for a in arrays]
        out = bnsens.network._contract(kernel, arrays)
        fresh = bnsens.network._einsum(scopes, arrays, axes)
        assert out.shape == fresh.shape == tuple(cards[ax] for ax in axes)
        assert np.array_equal(out, fresh)
        expected = _stepwise([factor_of(s, a) for s, a in zip(scopes, arrays)], set(cards) - {*axes})
        np.testing.assert_allclose(out, expected.values, rtol=1e-12, atol=1e-12)
        assert all(np.array_equal(a, c) for a, c in zip(arrays, copies))
        assert not any(np.shares_memory(out, a) for a in arrays)


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
        TensorNetwork({0: 2}, (Factor((), 0.0),)),
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


def test_collapse_onto_an_uncarried_variable_between_carried_ones():
    # Variable 2 is in the universe and in `keep`, given out of order, but
    # no factor carries it: its axis, between 1 and 3, comes out constant.
    rng = np.random.default_rng(3)
    universe = {0: 2, 1: 3, 2: 4, 3: 2, 4: 3}
    factors = [
        Factor((0, 1), rng.uniform(0.5, 1.5, size=(2, 3))),
        Factor((0, 3), rng.uniform(0.5, 1.5, size=(2, 2))),
        Factor((1,), rng.uniform(0.5, 1.5, size=3)),
        Factor((3, 4), rng.uniform(0.5, 1.5, size=(2, 3))),
    ]
    out = collapse(TensorNetwork(universe, tuple(factors)), [3, 2, 1])
    expected = _stepwise(factors, {0, 4})
    assert out.axes == (1, 2, 3)
    np.testing.assert_allclose(
        out.values, np.broadcast_to(expected.values[:, None, :], (3, 4, 2)), rtol=1e-12
    )
    assert not any(np.shares_memory(out.values, f.values) for f in factors)


def _eliminated(factors, drop):
    """`bnsens.network._einsum` over the scopes and arrays of `factors`,
    with the axes in `drop` summed away, as a factor over the rest."""
    scopes = [f.axes for f in factors]
    kept = tuple(sorted(set().union(*scopes).difference(drop)))
    return Factor(kept, bnsens.network._einsum(scopes, [f.values for f in factors], kept))


def _stepwise(factors, drop):
    product = reduce(factor_product, factors)
    return factor_sum_out(product, set(drop) & set(product.axes))


def _pair_bucket(rng, roles, cards):
    """Two factors over axes 0..len(roles)-1, each built by `factor_of`
    from a shuffled axis order, so that its values are a non-contiguous
    view. Role k: in both, kept; s: in both, summed; a / b: in one factor
    only, kept; x: in the first factor only, summed."""
    scopes = (
        [ax for ax, r in enumerate(roles) if r in "ksax"],
        [ax for ax, r in enumerate(roles) if r in "ksb"],
    )
    factors = []
    for scope in scopes:
        shuffled = [int(ax) for ax in rng.permutation(scope)]
        values = rng.uniform(0.5, 1.5, size=[cards[ax] for ax in shuffled])
        factors.append(factor_of(shuffled, values))
    kept = tuple(ax for ax, r in enumerate(roles) if r in "kab")
    return factors, kept


@settings(max_examples=200, deadline=None)
@given(
    roles=st.lists(st.sampled_from("ksabx"), min_size=1, max_size=8),
    cards=st.lists(st.integers(1, 3), min_size=8, max_size=8),
    seed=st.integers(0, 2**32 - 1),
)
def test_einsum_of_a_pair_is_the_summed_product(roles, cards, seed):
    # ROUTE_CELLS 0 sends every qualifying pair, however small, down the
    # matmul route: each array smaller than the bucket, every summed axis in
    # both. The others (an "x" axis, or an array over the whole bucket) go
    # to einsum.
    factors, kept = _pair_bucket(np.random.default_rng(seed), roles, cards)
    expected = _stepwise(factors, set(range(len(roles))) - set(kept)).values
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bnsens.network, "ROUTE_CELLS", 0)
        out = bnsens.network._einsum([f.axes for f in factors], [f.values for f in factors], kept)
    np.testing.assert_allclose(out, expected, rtol=1e-12, atol=0.0)
    assert not any(np.shares_memory(out, f.values) for f in factors)


def _outer_pair_network():
    """A pair over 4^7 cells whose matmul result (4^6 cells) is larger than
    either factor (4^4 cells), beside a third factor over two of its axes.
    The factors' own axes interleave, so the result comes back transposed."""
    rng = np.random.default_rng(11)
    universe = {ax: 4 for ax in range(7)}
    a = factor_of((4, 0, 3, 2), rng.uniform(0.5, 1.5, size=(4,) * 4))
    b = Factor((1, 3, 5, 6), rng.uniform(0.5, 1.5, size=(4,) * 4))
    c = Factor((0, 6), rng.uniform(0.5, 1.5, size=(4, 4)))
    return universe, a, b, c


def test_outer_product_pair_runs_without_einsum(monkeypatch):
    _, a, b, _ = _outer_pair_network()
    expected = _stepwise([a, b], {3})

    def unreachable(*args, **kwargs):
        raise AssertionError("np.einsum was called")

    monkeypatch.setattr(np, "einsum", unreachable)
    out = _eliminated([a, b], {3})
    assert out.axes == expected.axes
    np.testing.assert_allclose(out.values, expected.values, rtol=1e-12)


def test_transposed_pair_result_feeds_buckets_quotients_and_collapse():
    universe, a, b, c = _outer_pair_network()
    pair = _eliminated([a, b], {3})
    assert not pair.values.flags.c_contiguous  # the matmul output, transposed
    reference = _stepwise([a, b], {3})
    np.testing.assert_allclose(pair.values, reference.values, rtol=1e-12)

    further = _eliminated([pair, c], {0, 6})
    np.testing.assert_allclose(
        further.values, _stepwise([reference, c], {0, 6}).values, rtol=1e-12
    )

    del universe[3]
    tn = TensorNetwork(universe, (pair, c))
    expected = _stepwise([reference, c], {1, 2, 4, 5})
    np.testing.assert_allclose(collapse(tn, {0, 6}).values, expected.values, rtol=1e-12)

    ratio = collapse(quotient(tn, TensorNetwork(universe, (pair,))), {0, 6})
    np.testing.assert_allclose(
        ratio.values, _stepwise([Factor((0, 6), np.full((4, 4), 4.0**4)), c], ()).values,
        rtol=1e-12,
    )


def test_vectors_over_one_axis_reach_einsum_as_one_operand(monkeypatch):
    # Two copies of a 3^9 factor, four vectors over axis 0 and two over
    # axis 4: einsum sees the factors and one vector per axis.
    rng = np.random.default_rng(3)
    big = Factor(tuple(range(9)), rng.uniform(0.5, 1.5, size=(3,) * 9))
    vectors = [Factor((0,), rng.uniform(0.5, 1.5, size=3)) for _ in range(4)]
    vectors += [Factor((4,), rng.uniform(0.5, 1.5, size=3)) for _ in range(2)]
    bucket = [vectors[0], big, vectors[4], vectors[1], big, *vectors[2:4], vectors[5]]
    expected = _stepwise(bucket, {0})
    einsum = np.einsum
    seen = []

    def recorded(subscripts, *operands, **kwargs):
        seen.append(subscripts.split("->")[0].split(","))
        return einsum(subscripts, *operands, **kwargs)

    monkeypatch.setattr(np, "einsum", recorded)
    out = _eliminated(bucket, {0})
    np.testing.assert_allclose(out.values, expected.values, rtol=1e-12)
    (inputs,) = seen
    assert len(inputs) == 4
    assert sorted(len(s) for s in inputs) == [1, 1, 9, 9]
    assert len({s for s in inputs if len(s) == 1}) == 2


def _nested_bucket(rng, count, cards):
    """`count` operands over axes 0..5, each drawn from all axes or from
    the scope of an earlier one (so that scopes nest), and in a shuffled
    axis order; the factors over the same values, and the kept axes."""
    scopes = []
    for _ in range(count):
        pool = scopes[rng.integers(len(scopes))] if scopes and rng.random() < 0.7 else range(6)
        size = int(rng.integers(0, len(pool) + 1))
        scopes.append(tuple(int(ax) for ax in rng.choice(pool, size=size, replace=False)))
    arrays = [rng.uniform(0.5, 1.5, size=[cards[ax] for ax in scope]) for scope in scopes]
    union = sorted(set().union(*scopes))
    kept = tuple(ax for ax in union if rng.random() < 0.7)
    factors = [factor_of(scope, array) for scope, array in zip(scopes, arrays)]
    return scopes, arrays, factors, kept


@settings(max_examples=300, deadline=None)
@given(
    count=st.integers(3, 6),
    cards=st.lists(st.integers(1, 3), min_size=6, max_size=6),
    seed=st.integers(0, 2**32 - 1),
)
def test_einsum_of_a_nested_bucket_is_the_summed_product(count, cards, seed):
    # ROUTE_CELLS 0 sends every bucket, however small, through the fold
    # and, where two arrays are left, the matmul route.
    scopes, arrays, factors, kept = _nested_bucket(np.random.default_rng(seed), count, cards)
    copies = [array.copy() for array in arrays]
    expected = _stepwise(factors, set(range(6)) - set(kept)).values
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bnsens.network, "ROUTE_CELLS", 0)
        out = bnsens.network._einsum(scopes, arrays, kept)
    np.testing.assert_allclose(out, expected, rtol=1e-12, atol=0.0)
    assert all(np.array_equal(a, c) for a, c in zip(arrays, copies))
    assert not any(np.shares_memory(out, array) for array in arrays)


def test_bucket_sized_factors_reach_einsum_as_themselves(monkeypatch):
    # dense-card's shape: two copies of a factor over the whole bucket and
    # three vectors over one of its axes. Nothing is folded into an
    # operand as large as the bucket: einsum takes both copies as they
    # are, beside the vectors folded into one.
    rng = np.random.default_rng(4)
    big = Factor(tuple(range(8)), rng.uniform(0.5, 1.5, size=(3,) * 8))
    vectors = [Factor((2,), rng.uniform(0.5, 1.5, size=3)) for _ in range(3)]
    bucket = [vectors[0], big, vectors[1], big, vectors[2]]
    expected = _stepwise(bucket, {2})
    einsum = np.einsum
    seen = []

    def recorded(subscripts, *operands, **kwargs):
        seen.append(operands)
        return einsum(subscripts, *operands, **kwargs)

    monkeypatch.setattr(np, "einsum", recorded)
    out = _eliminated(bucket, {2})
    np.testing.assert_allclose(out.values, expected.values, rtol=1e-12)
    (operands,) = seen
    assert len(operands) == 3
    assert sum(operand is big.values for operand in operands) == 2


def test_pair_of_arrays_smaller_than_the_bucket_runs_without_einsum(monkeypatch):
    # A pair over 3^8 cells whose result (3^5 cells) is smaller than its
    # first array (3^7 cells): both arrays are smaller than the bucket and
    # hold every summed axis, so the pair is one matmul.
    rng = np.random.default_rng(12)
    a = Factor(tuple(range(7)), rng.uniform(0.5, 1.5, size=(3,) * 7))
    b = factor_of((7, 5, 4, 6), rng.uniform(0.5, 1.5, size=(3,) * 4))
    expected = _stepwise([a, b], {4, 5, 6})
    assert expected.values.size < a.values.size

    def unreachable(*args, **kwargs):
        raise AssertionError("np.einsum was called")

    monkeypatch.setattr(np, "einsum", unreachable)
    out = _eliminated([a, b], {4, 5, 6})
    assert out.axes == expected.axes
    np.testing.assert_allclose(out.values, expected.values, rtol=1e-12)


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
    six = TensorNetwork({}, (Factor((), 6.0),))
    three = TensorNetwork({}, (Factor((), 3.0),))
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
        t = function_tn(mrf_from_bn(bn), spec.output, output_values(bn, spec))
        table = brute_force_f(bn, spec)
        expected = float((table.probabilities * table.values).sum())
        assert contract_all(t) == pytest.approx(expected, abs=1e-10)


_CHAIN = chain_bn()  # E (id 0) -> O (id 1)
_MAP = {"0": 0.0, "1": 1.0}


@pytest.mark.parametrize("bad", [lambda v: v + 0.7, str, lambda v: math.nan],
                         ids=["float", "str", "nan"])
@pytest.mark.parametrize(
    "call, valid, error",
    [
        (lambda v: AnalysisSpec(v, {0}, _MAP), 1, PartitionError),
        (lambda v: AnalysisSpec(1, {v}, _MAP), 0, PartitionError),
        (lambda v: mrf_from_bn(_CHAIN, [v]), 0, UnknownAxisError),
        (lambda v: marginalize(mrf_from_bn(_CHAIN), [v]), 1, UnknownAxisError),
        (lambda v: collapse(mrf_from_bn(_CHAIN), [v]), 0, UnknownAxisError),
        (lambda v: square_wrt(mrf_from_bn(_CHAIN), [v]), 0, UnknownAxisError),
        (lambda v: ancestors(_CHAIN.dag(), [v]), 1, IndexError),
        (lambda v: separated_evidence(_CHAIN.dag(), v, [0]), 1, ValueError),
        (lambda v: min_weight_order([(0, 1)], {0: 2, 1: 2}, keep=[v]), 0, ValueError),
        (lambda v: encode_utility_node(_CHAIN, lambda c: c[0], [v], "01"), 0, ValueError),
        (lambda v: Factor((v,), np.ones(2)), 0, ValueError),
        (lambda v: Cpt(v, (), [[0.2, 0.8]]), 1, ValidationError),
        (lambda v: Cpt(1, (v,), [[0.2, 0.8], [0.6, 0.4]]), 0, ValidationError),
        (lambda v: TensorNetwork({0: 2, v: 3}), 1, UnknownAxisError),
        (lambda v: factor_sum_out(Factor((0, 1), np.ones((2, 3))), [v]), 1, UnknownAxisError),
        (lambda v: marginals(mrf_from_bn(_CHAIN), of=[v]), 1, UnknownAxisError),
        (lambda v: marginals(mrf_from_bn(_CHAIN), outside_of=[v]), 1, IndexError),
    ],
    ids=["spec-output", "spec-evidence", "mrf_from_bn", "marginalize", "collapse",
         "square_wrt", "ancestors", "separated_evidence", "min_weight_order",
         "encode_utility_node", "factor", "cpt-child", "cpt-parents", "tensor_network",
         "factor_sum_out", "marginals-of", "marginals-outside_of"],
)
def test_ids_must_be_integers(call, valid, error, bad):
    # A float is not truncated nor a str parsed to the id it names: 1.7 or
    # "1" would silently stand for 1. Any integer type, np.int64 among
    # them, is taken as the int it holds.
    with pytest.raises(error, match="must be integers"):
        call(bad(valid))
    assert repr(call(np.int64(valid))) == repr(call(valid))
