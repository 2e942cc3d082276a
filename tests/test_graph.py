import itertools
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bnsens import (
    AnalysisSpec,
    CyclicGraphError,
    ancestors,
    collapse,
    min_weight_order,
    mrf_from_bn,
    separated_evidence,
)
from bnsens.graph import _primal, least_cells
from bnsens.model import _check_acyclic
from helpers import (
    concrete_style_network,
    gate_tree,
    layered_network,
    random_instance,
    reference_d_separated,
    reference_min_weight_order,
)

# The five-vertex example graph: 0->2, 0->3, 1->3, 2->4, 3->4.
FIVE = ((), (), (0,), (0, 1), (2, 3))


def test_acyclicity_check_finds_cycles():
    with pytest.raises(CyclicGraphError):
        _check_acyclic(((1,), (0,)))
    with pytest.raises(CyclicGraphError):
        _check_acyclic(((2,), (0,), (1,)))
    _check_acyclic(FIVE)


def test_ancestors_include_the_targets():
    assert ancestors(FIVE, {3}) == {0, 1, 3}
    assert ancestors(FIVE, {2, 1}) == {0, 1, 2}
    assert ancestors(FIVE, {4}) == {0, 1, 2, 3, 4}
    assert ancestors(FIVE, ()) == frozenset()
    with pytest.raises(IndexError):
        ancestors(FIVE, {5})


def test_d_separation_on_five_vertex_graph():
    # Each case gives the output, the evidence, the evidence d-separated
    # from the output with nothing given, and the evidence d-separated
    # from it by the rest of the evidence.
    cases = [
        # 0 and 1 meet only at the collider 3 (and its descendant 4).
        (1, {0}, {0}, {0}),
        (1, {0, 3}, {0}, set()),
        (1, {0, 4}, {0}, set()),
        # 2 and 3 share the parent 0.
        (3, {0, 2}, set(), {2}),
        (3, {0, 2, 4}, set(), set()),
        # The chain 0 -> 2 -> 4 is blocked at 2 only if 0 -> 3 -> 4 is too.
        (4, {0, 2}, set(), set()),
        (4, {0, 2, 3}, set(), {0}),
        (2, {1}, {1}, {1}),
        (4, {0, 1, 2, 3}, set(), {0, 1}),
    ]
    for output, evidence, alone, given_rest in cases:
        assert separated_evidence(FIVE, output, evidence) == (alone, given_rest)
    # No vertex is d-separated from itself, so the output is never evidence.
    with pytest.raises(ValueError):
        separated_evidence(FIVE, 0, {0, 4})
    with pytest.raises(IndexError):
        separated_evidence(FIVE, 0, {5})


def test_min_weight_order_checks_scopes_and_ignores_empty_ones():
    cards = {0: 2, 1: 3, 2: 2}
    scopes = ((0, 1), (1, 2))
    with pytest.raises(ValueError):
        min_weight_order(((0, 1), (1, 3)), cards)
    with pytest.raises(ValueError):
        min_weight_order(scopes, cards, keep={3})
    order = min_weight_order(scopes, cards)
    assert sorted(order) == [0, 1, 2]
    assert min_weight_order(((), *scopes, ()), cards) == order
    # A vertex in no scope still gets eliminated.
    assert min_weight_order(scopes, {**cards, 5: 4}) == (5, *order)


def test_min_weight_star_eliminates_leaf_first():
    # Hub 0 with cardinality 2; leaves 1..3 with cardinality 5.
    cards = {0: 2, 1: 5, 2: 5, 3: 5}
    order = min_weight_order(((0, 1), (0, 2), (0, 3)), cards)
    assert order[0] == 1  # leaf weight 2 beats hub weight 125


def test_min_weight_keep_everything():
    assert min_weight_order(((0, 1),), {0: 2, 1: 2}, keep={0, 1}) == ()


def test_min_weight_tie_breaks_by_id():
    # Path 1-2-3, all binary, keep the middle: both ends weigh 2.
    assert min_weight_order(((1, 2), (2, 3)), {1: 2, 2: 2, 3: 2}, keep={2}) == (1, 3)


def test_min_weight_order_is_permutation_and_deterministic():
    rng = np.random.default_rng(3)
    for _ in range(25):
        n = int(rng.integers(2, 10))
        scopes = []
        for _ in range(int(rng.integers(1, n + 2))):
            size = int(rng.integers(1, min(3, n) + 1))
            scopes.append(tuple(int(x) for x in rng.choice(n, size=size, replace=False)))
        cards = {v: int(rng.integers(2, 5)) for v in range(n)}
        keep = {int(x) for x in rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False)}
        first = min_weight_order(scopes, cards, keep)
        second = min_weight_order(scopes, cards, keep)
        assert first == second
        assert sorted(first) == sorted(set(range(n)) - keep)


@st.composite
def hypergraphs(draw):
    """Scopes over up to 16 vertex ids with cardinalities 1-4 (so weights
    tie often), empty scopes, vertices in no scope, and a keep set."""
    vertices = sorted(draw(st.sets(st.integers(0, 40), max_size=16)))
    cards = {v: draw(st.integers(1, 4)) for v in vertices}
    if not vertices:
        return [(), ()], cards, set()
    member = st.sampled_from(vertices)
    scopes = draw(st.lists(st.lists(member, max_size=4).map(tuple), max_size=20))
    return scopes, cards, draw(st.sets(member))


@settings(max_examples=400, deadline=None)
@given(hypergraphs())
def test_min_weight_order_matches_the_rescan_reference(case):
    scopes, cards, keep = case
    assert min_weight_order(scopes, cards, keep) == reference_min_weight_order(
        scopes, cards, keep
    )


def _order_cells(scopes, cards, order) -> int:
    """The bucket cells of eliminating by `order`, whatever the order."""
    graph, total = _primal(scopes, cards), 0
    for v in order:
        neighbours = graph.pop(v)
        total += cards[v] * int(np.prod([cards[u] for u in neighbours]))
        for u in neighbours:
            graph[u] |= neighbours - {u, v}
            graph[u].discard(v)
    return total


@settings(max_examples=400, deadline=None)
@given(hypergraphs())
def test_least_cells_bound_every_order(case):
    # No order eliminating the vertices outside `keep` spans fewer cells:
    # not the greedy one, nor, with few enough vertices to try them all,
    # any other.
    scopes, cards, keep = case
    bound = least_cells(scopes, cards, frozenset(keep))
    assert bound <= sum(min_weight_order(scopes, cards, keep).cells)
    eliminated = sorted(set(cards) - keep)
    if len(eliminated) <= 6:
        orders = itertools.permutations(eliminated)
        assert bound <= min(_order_cells(scopes, cards, order) for order in orders)


def test_least_cells_of_a_chain_is_its_cells():
    # 0 - 1 - 2 - 3 with 0 and 3 kept: the one set {1, 2} ends in a bucket
    # over 0, 3 and its last vertex, at least 5 * 7 * 2 cells. The greedy
    # order takes 2 first (weight 2 * 7, against 5 * 3 for 1), a bucket of
    # 2 * 3 * 7 cells, and then 1 over 0 and 3.
    cards = {0: 5, 1: 2, 2: 3, 3: 7}
    scopes = [(0, 1), (1, 2), (2, 3)]
    assert least_cells(scopes, cards, frozenset({0, 3})) == 70
    assert min_weight_order(scopes, cards, {0, 3}).cells == (42, 70)
    assert least_cells(scopes, cards, frozenset()) == 2
    assert least_cells(scopes, cards, frozenset(cards)) == 0


def _root_evidence(leaves, seed):
    """`gate_tree(leaves, seed)` with every fourth basic event as evidence."""
    bn, spec, _ = gate_tree(leaves, seed)
    return bn, AnalysisSpec(spec.output, frozenset(range(0, leaves, 4)), spec.value_map)


@pytest.mark.parametrize(
    "network",
    [
        *(lambda seed=seed: random_instance(seed) for seed in range(40)),
        lambda: layered_network(4, 10, 5, (5, 7)),
        lambda: layered_network(1, 8, 5, (5, 8)),
        concrete_style_network,
        *(lambda leaves=leaves: gate_tree(leaves, 0)[:2] for leaves in (64, 256, 2048)),
        *(lambda leaves=leaves: _root_evidence(leaves, 0) for leaves in (64, 256, 2048)),
        lambda: gate_tree(64, 1)[:2],
        lambda: _root_evidence(256, 1),
    ],
)
def test_least_cells_bound_the_greedy_order_of_t(network):
    # The cells of summing the chance variables out of an analysis's
    # network down to its evidence.
    bn, spec = network()
    mrf = mrf_from_bn(bn, ancestors(bn.dag(), spec.evidential | {spec.output}))
    scopes = [f.axes for f in mrf.factors]
    bound = least_cells(scopes, mrf.universe, spec.evidential)
    assert 0 < bound <= sum(min_weight_order(scopes, mrf.universe, spec.evidential).cells)


def test_d_separation_matches_trail_enumeration():
    rng = np.random.default_rng(12)
    for _ in range(300):
        n = int(rng.integers(2, 8))
        label = rng.permutation(n)  # so that ids are not a topological order
        parents = [[] for _ in range(n)]
        for child in range(n):
            for parent in range(child):
                if rng.random() < 0.4:
                    parents[label[child]].append(int(label[parent]))
        dag = tuple(tuple(ps) for ps in parents)
        for output in range(n):
            others = [v for v in range(n) if v != output]
            evidences = [others] + [
                [v for v in others if rng.random() < 0.5] for _ in range(2)
            ]
            for evidence in evidences:
                alone, given_rest = separated_evidence(dag, output, evidence)
                for i in evidence:
                    rest = [v for v in evidence if v != i]
                    assert (i in alone) == reference_d_separated(dag, i, output)
                    assert (i in given_rest) == reference_d_separated(dag, i, output, rest)


def test_fault_tree_of_1023_nodes_marginalizes_in_seconds():
    bn, spec, top_probability = gate_tree(512, 0)
    assert top_probability > np.finfo(float).tiny
    start = time.perf_counter()
    marginal = collapse(mrf_from_bn(bn), {spec.output})
    elapsed = time.perf_counter() - start
    assert marginal.values[1] == pytest.approx(top_probability, rel=1e-12, abs=0.0)
    assert elapsed < 2.0


def test_fault_tree_of_4095_nodes_marginalizes_in_a_second():
    # Each bucket is found through the variable-to-factors index, not by a
    # scan of every live factor, so the time grows linearly with the tree.
    bn, spec, top_probability = gate_tree(2048, 0)
    assert top_probability == pytest.approx(1.06e-3, rel=0.01)
    start = time.perf_counter()
    marginal = collapse(mrf_from_bn(bn), {spec.output})
    elapsed = time.perf_counter() - start
    assert marginal.values[1] == pytest.approx(top_probability, rel=1e-12, abs=0.0)
    assert elapsed < 1.0
