import numpy as np
import pytest

from bnsens import (
    CyclicGraphError,
    Dag,
    Hypergraph,
    children,
    descendants,
    min_weight_order,
    parents,
)

# The five-vertex example graph: 0->2, 0->3, 1->3, 2->4, 3->4.
FIVE = Dag(((), (), (0,), (0, 1), (2, 3)))


def test_cycle_detected_on_construction():
    with pytest.raises(CyclicGraphError):
        Dag((((1,), (0,))))
    with pytest.raises(CyclicGraphError):
        Dag(((2,), (0,), (1,)))


def test_parent_child_relations():
    assert parents(FIVE, 3) == {0, 1}
    assert children(FIVE, 0) == {2, 3}
    assert parents(FIVE, 0) == frozenset()
    with pytest.raises(IndexError):
        parents(FIVE, 5)


def test_descendants():
    assert descendants(FIVE, 0) == {2, 3, 4}
    assert descendants(FIVE, 4) == frozenset()


def test_isolated_vertex_has_no_descendants():
    dag = Dag(((), (0,), ()))
    assert descendants(dag, 2) == frozenset()


def test_hypergraph_rejects_bad_edges():
    with pytest.raises(ValueError):
        Hypergraph(frozenset({0, 1}), (frozenset(),))
    with pytest.raises(ValueError):
        Hypergraph(frozenset({0, 1}), (frozenset({2}),))


def test_min_weight_star_eliminates_leaf_first():
    # Hub 0 with cardinality 2; leaves 1..3 with cardinality 5.
    h = Hypergraph(frozenset({0, 1, 2, 3}), (frozenset({0, 1}), frozenset({0, 2}), frozenset({0, 3})))
    cards = {0: 2, 1: 5, 2: 5, 3: 5}
    order = min_weight_order(h, cards)
    assert order[0] == 1  # leaf weight 2 beats hub weight 125


def test_min_weight_keep_everything():
    h = Hypergraph(frozenset({0, 1}), (frozenset({0, 1}),))
    assert min_weight_order(h, {0: 2, 1: 2}, keep={0, 1}) == ()


def test_min_weight_tie_breaks_by_id():
    # Path 1-2-3, all binary, keep the middle: both ends weigh 2.
    h = Hypergraph(frozenset({1, 2, 3}), (frozenset({1, 2}), frozenset({2, 3})))
    assert min_weight_order(h, {1: 2, 2: 2, 3: 2}, keep={2}) == (1, 3)


def test_min_weight_order_is_permutation_and_deterministic():
    rng = np.random.default_rng(3)
    for _ in range(25):
        n = int(rng.integers(2, 10))
        vertices = frozenset(range(n))
        edges = []
        for _ in range(int(rng.integers(1, n + 2))):
            size = int(rng.integers(1, min(3, n) + 1))
            edges.append(frozenset(int(x) for x in rng.choice(n, size=size, replace=False)))
        h = Hypergraph(vertices, tuple(edges))
        cards = {v: int(rng.integers(2, 5)) for v in range(n)}
        keep = {int(x) for x in rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False)}
        first = min_weight_order(h, cards, keep)
        second = min_weight_order(h, cards, keep)
        assert first == second
        assert sorted(first) == sorted(vertices - keep)
