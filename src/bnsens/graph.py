"""DAG relations and the greedy minimal-weight elimination-order heuristic.

A DAG is a tuple of parent tuples, one per vertex 0..n-1, as
`DiscreteBayesNet.dag()` returns it. `validate_network` has checked those
parents: each in range, none the vertex itself, none repeated, and no
directed cycle among them. The relations below trust that and check only
the vertices they are asked about.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Mapping, Sequence


def _check_vertex(dag: Sequence[tuple[int, ...]], v: int) -> None:
    if not 0 <= v < len(dag):
        raise IndexError(f"vertex {v} out of range 0..{len(dag) - 1}")


def children(dag: Sequence[tuple[int, ...]], v: int) -> frozenset[int]:
    _check_vertex(dag, v)
    return frozenset(c for c, ps in enumerate(dag) if v in ps)


def descendants(dag: Sequence[tuple[int, ...]], v: int) -> frozenset[int]:
    """Vertices reachable from v by a directed path of length >= 1."""
    _check_vertex(dag, v)
    out: set[int] = set()
    frontier = deque(children(dag, v))
    while frontier:
        u = frontier.popleft()
        if u in out:
            continue
        out.add(u)
        frontier.extend(children(dag, u))
    return frozenset(out)


def ancestors(dag: Sequence[tuple[int, ...]], targets: Iterable[int]) -> frozenset[int]:
    """The ancestral set An(targets): the targets themselves plus every
    vertex with a directed path into one of them."""
    stack = [int(v) for v in targets]
    for v in stack:
        _check_vertex(dag, v)
    out: set[int] = set()
    while stack:
        v = stack.pop()
        if v not in out:
            out.add(v)
            stack.extend(dag[v])
    return frozenset(out)


def d_separated(
    dag: Sequence[tuple[int, ...]], a: int, b: int, given: Iterable[int] = ()
) -> bool:
    """Whether `given` d-separates vertex a from vertex b.

    The moralized-ancestral-graph criterion (Lauritzen et al. 1990): a and
    b are d-separated by Z exactly when no path joins them in the moral
    graph of An({a, b} | Z) once Z is deleted. Every family (a vertex with
    its parents) is a clique of that graph, so the search walks families.
    """
    a, b = int(a), int(b)
    z = {int(v) for v in given}
    if a in z or b in z:
        raise ValueError("a and b must lie outside the conditioning set")
    relevant = ancestors(dag, {a, b} | z)
    incident: dict[int, list[tuple[int, ...]]] = {v: [] for v in relevant}
    for v in relevant:
        family = (v, *dag[v])
        for u in family:
            incident[u].append(family)
    seen = {a}
    frontier = [a]
    while frontier:
        for family in incident[frontier.pop()]:
            for u in family:
                if u == b:
                    return False
                if u not in seen and u not in z:
                    seen.add(u)
                    frontier.append(u)
    return True


def min_weight_order(
    scopes: Iterable[Iterable[int]],
    cardinalities: Mapping[int, int],
    keep: Iterable[int] = (),
) -> tuple[int, ...]:
    """Greedy elimination order over the vertices outside `keep`.

    The vertices are the keys of `cardinalities`, and each nonempty scope
    (the axes of one factor) is a hyperedge among them. At each step the
    eliminable vertex minimizing the product of its current neighbors'
    cardinalities goes next (ties broken by smallest id); its incident
    hyperedges are replaced by their union minus the vertex.
    """
    vertices = {int(v) for v in cardinalities}
    edges: list[set[int]] = [{int(v) for v in scope} for scope in scopes]
    for e in edges:
        if not e <= vertices:
            raise ValueError(f"scope {sorted(e)} leaves the vertex set")
    edges = [e for e in edges if e]
    keep_set = {int(v) for v in keep}
    if not keep_set <= vertices:
        raise ValueError(f"keep set {sorted(keep_set - vertices)} outside the vertex set")
    live = vertices - keep_set
    order: list[int] = []
    while live:
        best_v = -1
        best_w: int | None = None
        for v in sorted(live):
            weight = 1
            neighbor_seen: set[int] = set()
            for e in edges:
                if v in e:
                    for u in e:
                        if u != v and u not in neighbor_seen:
                            neighbor_seen.add(u)
                            weight *= int(cardinalities[u])
            if best_w is None or weight < best_w:
                best_v, best_w = v, weight
        order.append(best_v)
        live.discard(best_v)
        incident = [e for e in edges if best_v in e]
        edges = [e for e in edges if best_v not in e]
        if incident:
            merged = set().union(*incident) - {best_v}
            if merged:
                edges.append(merged)
    return tuple(order)
