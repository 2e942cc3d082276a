"""The benchmark's three networks and the seeded analysis spec of each.

Every network is fixed: its structure and CPTs come from a generator seed
that is part of the workload's definition, so the stored reference moments
(`reference.json`) hold for every run. The benchmark's `--seed` draws only
the output value map, a seeded order of the positional scores 0..k-1 plus a
jitter in [0, 0.5). That changes every index without changing the work a
query does, so timings of different seeds are comparable.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

from bnsens import (
    AnalysisSpec,
    Cpt,
    DiscreteBayesNet,
    NativeDocument,
    Variable,
    generate_random_bn,
    save_native,
)

NAMES = ("grid3e16", "sparse200", "dense-card")


def layered_bn(
    seed: int, n_roots: int, n_mid: int, cardinality: int | tuple[int, int]
) -> tuple[DiscreteBayesNet, int]:
    """Roots, then interior nodes with 3 or 4 parents drawn from the roots
    and earlier interior nodes, then one output with 3 interior parents.

    `cardinality` is either one domain size for every node or a (lo, hi)
    range drawn per node. Returns the network and the output id. With
    seed 7, 16 roots, 7 interior nodes and cardinality 3 this is the
    network of `demos/04_scale_beyond_enumeration.py`."""
    rng = np.random.default_rng(seed)
    n = n_roots + n_mid + 1
    if isinstance(cardinality, int):
        cards = [cardinality] * n
    else:
        cards = [int(c) for c in rng.integers(cardinality[0], cardinality[1] + 1, size=n)]
    parent_map: dict[int, tuple[int, ...]] = {i: () for i in range(n_roots)}
    mids = list(range(n_roots, n_roots + n_mid))
    for k, m in enumerate(mids):
        pool = list(range(n_roots)) + mids[:k]
        count = 3 + (k % 2)
        parent_map[m] = tuple(sorted(int(x) for x in rng.choice(pool, size=count, replace=False)))
    output = n - 1
    parent_map[output] = tuple(sorted(int(x) for x in rng.choice(mids, size=3, replace=False)))
    variables = tuple(
        Variable(i, f"N{i}", tuple(str(d) for d in range(cards[i]))) for i in range(n)
    )
    cpts = tuple(
        Cpt(i, parent_map[i], rng.dirichlet(np.ones(cards[i]), size=int(np.prod(
            [cards[p] for p in parent_map[i]], dtype=np.int64))))
        for i in range(n)
    )
    return DiscreteBayesNet(variables, cpts), output


def ancestors(bn: DiscreteBayesNet, targets) -> set[int]:
    """The targets and every node with a directed path into one of them."""
    seen = set(int(t) for t in targets)
    stack = list(seen)
    while stack:
        for p in bn.cpts[stack.pop()].parents:
            if p not in seen:
                seen.add(p)
                stack.append(p)
    return seen


def deepest_sink(bn: DiscreteBayesNet) -> int:
    """The childless node with the longest parent chain (smallest id on ties)."""
    depth: dict[int, int] = {}

    def depth_of(v: int) -> int:
        if v not in depth:
            depth[v] = 1 + max((depth_of(p) for p in bn.cpts[v].parents), default=-1)
        return depth[v]

    has_child = {p for c in bn.cpts for p in c.parents}
    sinks = [v for v in range(bn.n) if v not in has_child]
    return min(sinks, key=lambda v: (-depth_of(v), v))


def sparse_bn(seed: int, n: int) -> tuple[DiscreteBayesNet, int, frozenset[int]]:
    """`generate_random_bn(seed, n, 2, (2, 3))` with the deepest sink as
    output and the roots among its ancestors as evidence."""
    bn = generate_random_bn(seed, n, 2, (2, 3))
    output = deepest_sink(bn)
    evidential = frozenset(set(bn.roots()) & ancestors(bn, {output}))
    return bn, output, evidential


def network(name: str) -> tuple[DiscreteBayesNet, int, frozenset[int]]:
    """(network, output id, evidential ids) of a workload."""
    if name == "grid3e16":
        bn, output = layered_bn(7, 16, 7, 3)
        return bn, output, frozenset(range(16))
    if name == "sparse200":
        return sparse_bn(3, 200)
    if name == "dense-card":
        bn, output = layered_bn(1, 8, 5, (5, 8))
        return bn, output, frozenset(range(8))
    raise ValueError(f"unknown workload {name!r}")


def positional_map(bn: DiscreteBayesNet, output: int) -> dict[str, float]:
    """Label at position p scores p: the map of demo 04 and `bnsens gen`."""
    return {label: float(p) for p, label in enumerate(bn.variables[output].domain)}


def seeded_map(bn: DiscreteBayesNet, output: int, seed: int) -> dict[str, float]:
    """The value map a run's `--seed` draws (see the module docstring)."""
    domain = bn.variables[output].domain
    rng = np.random.default_rng([seed, 0x5EED])
    scores = rng.permutation(len(domain)) + rng.uniform(0.0, 0.5, size=len(domain))
    return {label: float(round(s, 6)) for label, s in zip(domain, scores)}


def fingerprint(bn: DiscreteBayesNet) -> str:
    """SHA-256 of the network's native text (without a spec)."""
    return hashlib.sha256(save_native(NativeDocument(bn)).encode()).hexdigest()


def write_document(path: Path, bn: DiscreteBayesNet, spec: AnalysisSpec, name: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(save_native(NativeDocument(bn, spec, name=name)))
