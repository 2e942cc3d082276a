"""Ancestral sets, d-separation of the evidence and the greedy minimal-weight
elimination order.

A DAG is a tuple of parent tuples, one per vertex 0..n-1, as
`DiscreteBayesNet.dag()` returns it. `validate_network` has checked those
parents: each in range, none the vertex itself, none repeated, and no
directed cycle among them. `ancestors` and `separated_evidence` trust
that and check only the vertices they are asked about.

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


def separated_evidence(
    dag: Sequence[tuple[int, ...]], output: int, evidential: Iterable[int]
) -> tuple[frozenset[int], frozenset[int]]:
    """The evidential vertices d-separated from `output`: first those
    separated with nothing given, then those separated by the rest of the
    evidence. One search up and one down decide the first set, and one
    moral graph and one search the second, for every vertex at once.

    With nothing given, i and the output are d-connected exactly when they
    have a common ancestor (a trail with no collider runs up from one of
    them and down to the other), that is, when i is a descendant of
    An(output), itself included; a path down to i stays among i's
    ancestors, so the search down walks An(E | {output}) alone. Given
    Z = E - {i}, the moralized-ancestral-graph criterion (Lauritzen et al.
    1990) asks for a path from i to the output that avoids Z in the moral
    graph of An({i, output} | Z), which is the moral graph of
    An(E | {output}) for every i. Such a path steps from i to a neighbour
    in the output's component of that graph with all of E deleted; the
    moral graph is the neighbour-set graph of the families (a vertex with
    its parents).
    """
    output = int(output)
    evidence = {int(v) for v in evidential}
    if output in evidence:
        raise ValueError("the output must lie outside the evidence")
    relevant = ancestors(dag, evidence | {output})
    kids: dict[int, list[int]] = {v: [] for v in relevant}
    for v in relevant:
        for p in dag[v]:
            kids[p].append(v)
    below, frontier = set(), list(ancestors(dag, {output}))
    while frontier:
        v = frontier.pop()
        if v not in below:
            below.add(v)
            frontier.extend(kids[v])
    moral = _primal(((v, *dag[v]) for v in relevant), relevant)
    reached, frontier = set(), [output]
    while frontier:
        v = frontier.pop()
        if v not in reached:
            reached.add(v)
            frontier.extend(moral[v] - evidence)
    return (
        frozenset(evidence - below),
        frozenset(i for i in evidence if not moral[i] & reached),
    )


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
    only the eliminated vertex's neighbours are weighed again, and pushed
    again only if changed; a heap of (weight, id) entries yields the next
    vertex and skips stale entries. Each vertex's weight when it goes, times
    its cardinality, is the size of its bucket (`EliminationOrder.cells`).
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
            if u in weights and weights[u] != (reweighed := weight(u)):
                weights[u] = reweighed
                heapq.heappush(heap, (reweighed, u))
    return EliminationOrder(order, cells)
