"""Ancestral sets, d-separation and the greedy minimal-weight elimination order.

A DAG is a tuple of parent tuples, one per vertex 0..n-1, as
`DiscreteBayesNet.dag()` returns it. `validate_network` has checked those
parents: each in range, none the vertex itself, none repeated, and no
directed cycle among them. `ancestors` and `d_separated` trust that and
check only the vertices they are asked about.

The two algorithms that need an undirected graph, d-separation and the
elimination order, share one representation: a neighbour set per vertex,
built by `_primal` from scopes (families of a DAG, or the axes of factors).
"""

from __future__ import annotations

import heapq
from typing import Iterable, Mapping, Sequence


def ancestors(dag: Sequence[tuple[int, ...]], targets: Iterable[int]) -> frozenset[int]:
    """The ancestral set An(targets): the targets themselves plus every
    vertex with a directed path into one of them."""
    stack = [int(v) for v in targets]
    for v in stack:
        if not 0 <= v < len(dag):
            raise IndexError(f"vertex {v} out of range 0..{len(dag) - 1}")
    out: set[int] = set()
    while stack:
        v = stack.pop()
        if v not in out:
            out.add(v)
            stack.extend(dag[v])
    return frozenset(out)


def _primal(scopes: Iterable[Iterable[int]], vertices: Iterable[int]) -> dict[int, set[int]]:
    """The neighbour set of every vertex: u and v are neighbours when some
    scope holds both. A scope that leaves `vertices` is a ValueError."""
    graph: dict[int, set[int]] = {int(v): set() for v in vertices}
    for scope in scopes:
        clique = set(map(int, scope))
        if not clique <= graph.keys():
            raise ValueError(f"scope {sorted(clique)} leaves the vertex set")
        for v in clique:
            graph[v] |= clique
    for v, neighbours in graph.items():
        neighbours.discard(v)
    return graph


def d_separated(
    dag: Sequence[tuple[int, ...]], a: int, b: int, given: Iterable[int] = ()
) -> bool:
    """Whether `given` d-separates vertex a from vertex b.

    The moralized-ancestral-graph criterion (Lauritzen et al. 1990): a and
    b are d-separated by Z exactly when no path joins them in the moral
    graph of An({a, b} | Z) once Z is deleted. That moral graph is the
    neighbour-set graph of the families (a vertex with its parents); the
    search walks it from a and never enters Z. No vertex is d-separated
    from itself.
    """
    a, b = int(a), int(b)
    z = {int(v) for v in given}
    if a in z or b in z:
        raise ValueError("a and b must lie outside the conditioning set")
    relevant = ancestors(dag, {a, b} | z)
    moral = _primal(((v, *dag[v]) for v in relevant), relevant)
    seen, frontier = set(z), [a]
    while frontier:
        v = frontier.pop()
        if v == b:
            return False
        if v not in seen:
            seen.add(v)
            frontier.extend(moral[v])
    return True


class EliminationOrder(tuple):
    """Vertices in elimination order, with `cells`: for each, the cells its
    bucket spans, its weight times its own cardinality. Eliminating by
    exactly this order over the scopes it was computed from builds buckets
    of exactly these sizes, so the cost of a plan is known before any array
    exists."""

    cells: tuple[int, ...]

    def __new__(cls, order: Iterable[int], cells: Iterable[int]) -> "EliminationOrder":
        self = super().__new__(cls, order)
        self.cells = tuple(cells)
        return self


def min_weight_order(
    scopes: Iterable[Iterable[int]],
    cardinalities: Mapping[int, int],
    keep: Iterable[int] = (),
) -> EliminationOrder:
    """Greedy elimination order over the vertices outside `keep`.

    The vertices are the keys of `cardinalities`, and two are neighbours
    when some scope (the axes of one factor) holds both. At each step the
    eliminable vertex minimizing the product of its current neighbours'
    cardinalities goes next (ties broken by smallest id); its neighbours
    then become a clique and it leaves the graph. Weights are cached and
    only the eliminated vertex's neighbours are weighed again; a heap of
    (weight, id) entries yields the next vertex and skips stale entries.
    Each vertex's weight when it goes, times its cardinality, is the size
    of its bucket (`EliminationOrder.cells`).
    """
    graph = _primal(scopes, cardinalities)
    keep_set = {int(v) for v in keep}
    if not keep_set <= graph.keys():
        raise ValueError(f"keep set {sorted(keep_set - graph.keys())} outside the vertex set")
    cards = {int(v): int(c) for v, c in cardinalities.items()}

    def weight(v: int) -> int:
        w = 1
        for u in graph[v]:
            w *= cards[u]
        return w

    weights = {v: weight(v) for v in graph if v not in keep_set}
    heap = sorted((w, v) for v, w in weights.items())  # a sorted list is a heap
    order: list[int] = []
    cells: list[int] = []
    while heap:
        w, v = heapq.heappop(heap)
        if weights.get(v) != w:
            continue
        del weights[v]
        order.append(v)
        cells.append(w * cards[v])
        neighbours = graph.pop(v)
        for u in neighbours:
            joined = graph[u]  # updated in place: no other vertex holds this set
            joined |= neighbours
            joined.discard(u)
            joined.discard(v)
            if u in weights:
                weights[u] = weight(u)
                heapq.heappush(heap, (weights[u], u))
    return EliminationOrder(order, cells)
