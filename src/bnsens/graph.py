"""DAG relations, hypergraphs, and the greedy minimal-weight
elimination-order heuristic."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Mapping

from .errors import CyclicGraphError


@dataclass(frozen=True)
class Dag:
    """Directed acyclic graph given as one parent tuple per vertex.

    Vertices are 0..n-1; acyclicity is checked on construction.
    """

    parent_lists: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        lists = tuple(tuple(int(p) for p in ps) for ps in self.parent_lists)
        object.__setattr__(self, "parent_lists", lists)
        n = len(lists)
        for v, ps in enumerate(lists):
            for p in ps:
                if not 0 <= p < n:
                    raise IndexError(f"parent {p} of vertex {v} out of range 0..{n - 1}")
            if len(set(ps)) != len(ps):
                raise ValueError(f"vertex {v} lists a parent twice")
        _check_acyclic(lists)

    @property
    def vertex_count(self) -> int:
        return len(self.parent_lists)


def _check_acyclic(parent_lists: tuple[tuple[int, ...], ...]) -> None:
    # Kahn's algorithm over the child relation.
    n = len(parent_lists)
    outstanding = [len(ps) for ps in parent_lists]
    child_lists: list[list[int]] = [[] for _ in range(n)]
    for v, ps in enumerate(parent_lists):
        for p in ps:
            child_lists[p].append(v)
    ready = deque(v for v in range(n) if outstanding[v] == 0)
    seen = 0
    while ready:
        v = ready.popleft()
        seen += 1
        for c in child_lists[v]:
            outstanding[c] -= 1
            if outstanding[c] == 0:
                ready.append(c)
    if seen != n:
        cyclic = sorted(v for v in range(n) if outstanding[v] > 0)
        raise CyclicGraphError(f"directed cycle through vertices {cyclic}")


def _check_vertex(dag: Dag, v: int) -> None:
    if not 0 <= v < dag.vertex_count:
        raise IndexError(f"vertex {v} out of range 0..{dag.vertex_count - 1}")


def parents(dag: Dag, v: int) -> frozenset[int]:
    _check_vertex(dag, v)
    return frozenset(dag.parent_lists[v])


def children(dag: Dag, v: int) -> frozenset[int]:
    _check_vertex(dag, v)
    return frozenset(c for c, ps in enumerate(dag.parent_lists) if v in ps)


def descendants(dag: Dag, v: int) -> frozenset[int]:
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


@dataclass(frozen=True)
class Hypergraph:
    """Vertex set plus a list of nonempty hyperedges (vertex subsets)."""

    vertices: frozenset[int]
    hyperedges: tuple[frozenset[int], ...]

    def __post_init__(self):
        object.__setattr__(self, "vertices", frozenset(int(v) for v in self.vertices))
        edges = tuple(frozenset(int(v) for v in e) for e in self.hyperedges)
        object.__setattr__(self, "hyperedges", edges)
        for e in edges:
            if not e:
                raise ValueError("hyperedges must be nonempty")
            if not e <= self.vertices:
                raise ValueError(f"hyperedge {sorted(e)} leaves the vertex set")


def min_weight_order(
    h: Hypergraph,
    cardinalities: Mapping[int, int],
    keep: Iterable[int] = (),
) -> tuple[int, ...]:
    """Greedy elimination order over the vertices outside `keep`.

    At each step the eliminable vertex minimizing the product of its current
    neighbors' cardinalities goes next (ties broken by smallest id); its
    incident hyperedges are replaced by their union minus the vertex.
    """
    keep_set = {int(v) for v in keep}
    if not keep_set <= h.vertices:
        raise ValueError(f"keep set {sorted(keep_set - h.vertices)} outside the vertex set")
    edges: list[set[int]] = [set(e) for e in h.hyperedges]
    live = set(h.vertices) - keep_set
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
