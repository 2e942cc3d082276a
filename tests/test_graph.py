import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bnsens import (
    CyclicGraphError,
    ancestors,
    collapse,
    d_separated,
    descendants,
    min_weight_order,
    mrf_from_bn,
)
from bnsens.graph import children
from bnsens.model import _check_acyclic
from helpers import gate_tree, reference_d_separated, reference_min_weight_order

# The five-vertex example graph: 0->2, 0->3, 1->3, 2->4, 3->4.
FIVE = ((), (), (0,), (0, 1), (2, 3))


def test_acyclicity_check_finds_cycles():
    with pytest.raises(CyclicGraphError):
        _check_acyclic(((1,), (0,)))
    with pytest.raises(CyclicGraphError):
        _check_acyclic(((2,), (0,), (1,)))
    _check_acyclic(FIVE)


def test_parent_child_relations():
    assert children(FIVE, 0) == {2, 3}
    assert children(FIVE, 4) == frozenset()
    with pytest.raises(IndexError):
        children(FIVE, 5)


def test_descendants():
    assert descendants(FIVE, 0) == {2, 3, 4}
    assert descendants(FIVE, 4) == frozenset()


def test_ancestors_include_the_targets():
    assert ancestors(FIVE, {3}) == {0, 1, 3}
    assert ancestors(FIVE, {2, 1}) == {0, 1, 2}
    assert ancestors(FIVE, {4}) == {0, 1, 2, 3, 4}
    assert ancestors(FIVE, ()) == frozenset()
    with pytest.raises(IndexError):
        ancestors(FIVE, {5})


def test_d_separation_on_five_vertex_graph():
    # 0 and 1 meet only at the collider 3 (and its descendant 4).
    assert d_separated(FIVE, 0, 1)
    assert not d_separated(FIVE, 0, 1, {3})
    assert not d_separated(FIVE, 0, 1, {4})
    # 2 and 3 share the parent 0.
    assert not d_separated(FIVE, 2, 3)
    assert d_separated(FIVE, 2, 3, {0})
    assert not d_separated(FIVE, 2, 3, {0, 4})
    # The chain 0 -> 2 -> 4 is blocked at 2 only if 0 -> 3 -> 4 is too.
    assert not d_separated(FIVE, 0, 4, {2})
    assert d_separated(FIVE, 0, 4, {2, 3})
    assert not d_separated(FIVE, 1, 1)
    with pytest.raises(ValueError):
        d_separated(FIVE, 0, 4, {0})


def test_isolated_vertex_has_no_descendants():
    assert descendants(((), (0,), ()), 2) == frozenset()


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


def test_d_separation_matches_trail_enumeration():
    rng = np.random.default_rng(12)
    for _ in range(60):
        n = int(rng.integers(1, 8))
        label = rng.permutation(n)  # so that ids are not a topological order
        parents = [[] for _ in range(n)]
        for child in range(n):
            for parent in range(child):
                if rng.random() < 0.4:
                    parents[label[child]].append(int(label[parent]))
        dag = tuple(tuple(ps) for ps in parents)
        for a in range(n):
            for b in range(n):
                others = [v for v in range(n) if v not in (a, b)]
                givens = [()] + [
                    tuple(v for v in others if rng.random() < 0.4) for _ in range(3)
                ]
                for z in givens:
                    assert d_separated(dag, a, b, z) == reference_d_separated(dag, a, b, z)


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
