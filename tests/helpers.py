"""Shared builders and independent enumeration helpers for the test suite.

`tn_table` evaluates a tensor network cell by cell from its definition (a
plain product loop over full assignments) and deliberately avoids
the elimination machinery, so it can serve as an oracle for it. In the
same spirit, `reference_min_weight_order` and `reference_d_separated`
compute the graph algorithms from their definitions, without the
neighbour sets of `bnsens.graph`.
"""

from __future__ import annotations

import itertools
import random

import numpy as np

from bnsens import (
    AnalysisSpec,
    Cpt,
    DiscreteBayesNet,
    Factor,
    TensorNetwork,
    Variable,
    generate_random_bn,
)
from bnsens.oracle import brute_force_f


# ------------------------------------------------------------ fixed networks

def chain_bn() -> DiscreteBayesNet:
    """E -> O with Pr(E) = (0.7, 0.3), Pr(O=1|E) = (0.2, 0.9)."""
    variables = (Variable(0, "E", ("0", "1")), Variable(1, "O", ("0", "1")))
    cpts = (
        Cpt(0, (), [[0.7, 0.3]]),
        Cpt(1, (0,), [[0.8, 0.2], [0.1, 0.9]]),
    )
    return DiscreteBayesNet(variables, cpts)


def chain_spec() -> AnalysisSpec:
    return AnalysisSpec(1, frozenset({0}), {"0": 0.0, "1": 1.0})


def five_node_dag_bn() -> DiscreteBayesNet:
    """Five binary nodes wired 0->2, 0->3, 1->3, 2->4, 3->4."""
    rng = np.random.default_rng(42)
    parent_map = {0: (), 1: (), 2: (0,), 3: (0, 1), 4: (2, 3)}
    variables = tuple(Variable(i, f"V{i}", ("0", "1")) for i in range(5))
    cpts = []
    for i in range(5):
        rows = 2 ** len(parent_map[i])
        cpts.append(Cpt(i, parent_map[i], rng.dirichlet(np.ones(2), size=rows)))
    return DiscreteBayesNet(variables, tuple(cpts))


def xor_bn() -> tuple[DiscreteBayesNet, AnalysisSpec]:
    """Two uniform binary roots and a deterministic XOR output."""
    variables = (
        Variable(0, "A", ("0", "1")),
        Variable(1, "B", ("0", "1")),
        Variable(2, "O", ("0", "1")),
    )
    xor_rows = [[1, 0], [0, 1], [0, 1], [1, 0]]
    cpts = (
        Cpt(0, (), [[0.5, 0.5]]),
        Cpt(1, (), [[0.5, 0.5]]),
        Cpt(2, (0, 1), xor_rows),
    )
    bn = DiscreteBayesNet(variables, cpts)
    spec = AnalysisSpec(2, frozenset({0, 1}), {"0": 0.0, "1": 1.0})
    return bn, spec


def additive_bn() -> tuple[DiscreteBayesNet, AnalysisSpec]:
    """Two independent binary roots and a deterministic sum output, so the
    function of interest is additively separable."""
    variables = (
        Variable(0, "A", ("0", "1")),
        Variable(1, "B", ("0", "1")),
        Variable(2, "O", ("0", "1", "2")),
    )
    rows = []
    for a in range(2):
        for b in range(2):
            row = [0.0, 0.0, 0.0]
            row[a + b] = 1.0
            rows.append(row)
    cpts = (
        Cpt(0, (), [[0.6, 0.4]]),
        Cpt(1, (), [[0.3, 0.7]]),
        Cpt(2, (0, 1), rows),
    )
    bn = DiscreteBayesNet(variables, cpts)
    spec = AnalysisSpec(2, frozenset({0, 1}), {"0": 0.0, "1": 1.0, "2": 2.0})
    return bn, spec


def common_parent_bn() -> tuple[DiscreteBayesNet, AnalysisSpec]:
    """A hidden parent feeding two strongly correlated evidential nodes whose
    sum drives the output; built to exhibit S_i > S^T_i."""
    variables = (
        Variable(0, "U", ("0", "1")),
        Variable(1, "E1", ("0", "1")),
        Variable(2, "E2", ("0", "1")),
        Variable(3, "O", ("0", "1", "2")),
    )
    noisy = [[0.9, 0.1], [0.1, 0.9]]
    rows = []
    for a in range(2):
        for b in range(2):
            row = [0.0, 0.0, 0.0]
            row[a + b] = 1.0
            rows.append(row)
    cpts = (
        Cpt(0, (), [[0.5, 0.5]]),
        Cpt(1, (0,), noisy),
        Cpt(2, (0,), noisy),
        Cpt(3, (1, 2), rows),
    )
    bn = DiscreteBayesNet(variables, cpts)
    spec = AnalysisSpec(3, frozenset({1, 2}), {"0": 0.0, "1": 1.0, "2": 2.0})
    return bn, spec


def fault_tree(p: float) -> tuple[DiscreteBayesNet, AnalysisSpec]:
    """A fault tree over eight basic events B0..B7 failing with
    probabilities between p and 2.75p, its AND/OR gates as deterministic
    CPTs and the top event as output. Every cut set holds two basic events,
    so the top event has probability of order p^2. The evidence is six basic
    events and gate G1 = AND(B2, B3): it is correlated, and its marginal has
    zero cells (G1 failed while B2 works)."""
    gates = {
        "G0": ("OR", ("B0", "B1")),
        "G1": ("AND", ("B2", "B3")),
        "G2": ("OR", ("G1", "B4")),
        "G3": ("AND", ("G0", "G2")),
        "G4": ("OR", ("B5", "B6")),
        "G5": ("AND", ("G4", "B7")),
        "TOP": ("OR", ("G3", "G5")),
    }
    names = [f"B{k}" for k in range(8)] + list(gates)
    ids = {name: i for i, name in enumerate(names)}
    variables = tuple(Variable(i, name, ("ok", "failed")) for i, name in enumerate(names))
    cpts = [Cpt(k, (), [[1.0 - q, q]]) for k, q in enumerate(p * (1.0 + np.arange(8) / 4))]
    for name, (kind, inputs) in gates.items():
        combine = all if kind == "AND" else any
        rows = [
            [0.0, 1.0] if combine(bits) else [1.0, 0.0]
            for bits in itertools.product((False, True), repeat=len(inputs))
        ]
        cpts.append(Cpt(ids[name], tuple(ids[x] for x in inputs), rows))
    evidence = frozenset(ids[x] for x in ("B0", "B1", "B2", "B4", "B5", "B7", "G1"))
    spec = AnalysisSpec(ids["TOP"], evidence, {"ok": 0.0, "failed": 1.0})
    return DiscreteBayesNet(variables, tuple(cpts)), spec


def constant_on_support_chain() -> tuple[DiscreteBayesNet, AnalysisSpec]:
    """A -> O and a root B, both evidential; O is "0" whatever A is, so the
    value map, whose two values differ by 1e9, is constant where O has
    nonzero probability."""
    variables = (
        Variable(0, "A", ("0", "1")),
        Variable(1, "O", ("0", "1")),
        Variable(2, "B", ("0", "1", "2")),
    )
    cpts = (
        Cpt(0, (), [[0.6461178510477767, 0.35388214895222336]]),
        Cpt(1, (0,), [[1.0, 0.0], [1.0, 0.0]]),
        Cpt(2, (), [[0.877452715446918, 0.10352075442536514, 0.01902653012771668]]),
    )
    spec = AnalysisSpec(1, frozenset({0, 2}), {"0": 1000000001.9493587, "1": 17.37900495331739})
    return DiscreteBayesNet(variables, cpts), spec


def impossible_label_grid() -> tuple[DiscreteBayesNet, AnalysisSpec]:
    """Evidential roots A and B over O, whose label "1" is impossible in
    every row of its CPT."""
    variables = (
        Variable(0, "A", ("0", "1")),
        Variable(1, "B", ("0", "1", "2")),
        Variable(2, "O", ("0", "1")),
    )
    cpts = (
        Cpt(0, (), [[0.05, 0.95]]),
        Cpt(1, (), [[0.2, 0.3, 0.5]]),
        Cpt(2, (0, 1), [[1.0, 0.0]] * 6),
    )
    spec = AnalysisSpec(2, frozenset({0, 1}), {"0": 1.0, "1": 0.0})
    return DiscreteBayesNet(variables, cpts), spec


def constant_behind_rare_evidence(seed: int) -> tuple[DiscreteBayesNet, AnalysisSpec]:
    """Rare evidential roots E1 ("failed" with probability p) and E2 (each
    fault with probability p), a chance root U, and an output O over all
    three, with p = 10^U(-12,-6). O is exactly "mid" while neither root has
    failed, and elsewhere a mean-preserving spread of it, so under the map
    {-0.3, 0.1, 0.7} f is constant. Var[g(O)] is of order p and
    (E|g(O)|)^2 of order p^2, while the rounding noise in Var[f] is of
    order 1e-33 p."""
    rng = np.random.default_rng(seed)
    p = float(10.0 ** rng.uniform(-12.0, -6.0))
    variables = (
        Variable(0, "E1", ("ok", "failed")),
        Variable(1, "E2", ("ok", "minor", "major")),
        Variable(2, "U", ("0", "1", "2")),
        Variable(3, "O", ("low", "mid", "high")),
    )
    rows = []
    for e1, e2, _ in itertools.product(range(2), range(3), range(3)):
        if e1 == e2 == 0:
            rows.append([0.0, 1.0, 0.0])
        else:
            a = float(rng.uniform(0.0, 0.6))
            rows.append([a, 1.0 - a - 2.0 * a / 3.0, 2.0 * a / 3.0])
    cpts = (
        Cpt(0, (), [[1.0 - p, p]]),
        Cpt(1, (), [[1.0 - 2.0 * p, p, p]]),
        Cpt(2, (), [rng.dirichlet(np.ones(3))]),
        Cpt(3, (0, 1, 2), rows),
    )
    spec = AnalysisSpec(3, frozenset({0, 1}), {"low": -0.3, "mid": 0.1, "high": 0.7})
    return DiscreteBayesNet(variables, cpts), spec


def rare_chance_gate(q: float) -> tuple[DiscreteBayesNet, AnalysisSpec]:
    """AND(OR(E1, E2), C) with P(E1) = 0.1, P(E2) = 0.2 and the chance root
    C failing with probability q. The evidence is E1 and E2, so f is q times
    OR(E1, E2): Var[f] is 0.2016 q^2, and the indices do not depend on q
    (S = 2/7 and 9/14, S^T = 5/14 and 5/7)."""
    names = ("E1", "E2", "OR", "C", "AND")
    variables = tuple(Variable(i, name, ("ok", "failed")) for i, name in enumerate(names))
    cpts = (
        Cpt(0, (), [[0.9, 0.1]]),
        Cpt(1, (), [[0.8, 0.2]]),
        Cpt(2, (0, 1), [[1.0, 0.0], [0.0, 1.0], [0.0, 1.0], [0.0, 1.0]]),
        Cpt(3, (), [[1.0 - q, q]]),
        Cpt(4, (2, 3), [[1.0, 0.0], [1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
    )
    spec = AnalysisSpec(4, frozenset({0, 1}), {"ok": 0.0, "failed": 1.0})
    return DiscreteBayesNet(variables, cpts), spec


def sparse_instance(seed: int) -> tuple[DiscreteBayesNet, AnalysisSpec]:
    """A seeded network of 3-7 nodes with cardinalities 2-4 and an output
    with parents where there is one. The CPTs have zero entries, more of
    them in the output's rows; in about a quarter of the networks one
    output label is impossible in every row. The value map is scaled by
    1e-4 to 1e4 and shifted by 0 or 1e6. Nothing is filtered out, so the
    analysis may be degenerate."""
    rng = np.random.default_rng((seed, 15))
    n = int(rng.integers(3, 8))
    cards = [int(c) for c in rng.integers(2, 5, size=n)]
    parent_sets = []
    for i in range(n):
        k = int(rng.integers(0, min(i, 3) + 1))
        parent_sets.append(tuple(sorted(int(p) for p in rng.choice(i, size=k, replace=False))))
    with_parents = [i for i in range(n) if parent_sets[i]] or list(range(n))
    output = int(rng.choice(with_parents))
    impossible = int(rng.integers(0, cards[output])) if rng.random() < 0.25 else None
    variables, cpts = [], []
    for i, parents in enumerate(parent_sets):
        variables.append(Variable(i, f"X{i}", tuple(str(k) for k in range(cards[i]))))
        rows = int(np.prod([cards[p] for p in parents]))
        table = rng.random((rows, cards[i]))
        table[rng.random(table.shape) < (0.5 if i == output else 0.2)] = 0.0
        if i == output and impossible is not None:
            table[:, impossible] = 0.0
        for row in table:
            if not row.any():
                choices = [c for c in range(cards[i]) if c != impossible or i != output]
                row[rng.choice(choices)] = 1.0
        cpts.append(Cpt(i, parents, table / table.sum(axis=1, keepdims=True)))
    others = [i for i in range(n) if i != output]
    k = int(rng.integers(1, len(others) + 1))
    evidential = frozenset(int(x) for x in rng.choice(others, size=k, replace=False))
    scale = 10.0 ** rng.uniform(-4, 4)
    shift = float(rng.choice([0.0, 1e6]))
    value_map = {
        label: scale * float(rng.random()) + shift for label in variables[output].domain
    }
    spec = AnalysisSpec(output, evidential, value_map)
    return DiscreteBayesNet(tuple(variables), tuple(cpts)), spec


def gate_tree(leaves: int, seed: int) -> tuple[DiscreteBayesNet, AnalysisSpec, float]:
    """A fault tree of 2 * leaves - 1 nodes and its top event's failure
    probability from a per-gate recursion.

    Each basic event fails with probability 10^U(-6,-3). Each gate joins
    two members, drawn at random, of the pool of events that feed no gate
    yet, until only the top event is left; a gate is OR with probability
    0.6, else AND. Basic events take ids 0..leaves-1 and gates follow in
    the order they are built. The evidence is every fourth basic event
    plus the lowest eighth of the gates, and the output is the top event.
    No event feeds two gates, so the inputs of a gate are independent and
    the recursion P(AND) = pa*pb, P(OR) = pa + pb - pa*pb is exact.
    """
    rng = np.random.default_rng(seed)
    n = 2 * leaves - 1
    p = [float(q) for q in 10.0 ** rng.uniform(-6.0, -3.0, size=leaves)]
    cpts = [Cpt(k, (), [[1.0 - q, q]]) for k, q in enumerate(p)]
    pool = list(range(leaves))
    for gate in range(leaves, n):
        a, b = (pool.pop(int(rng.integers(len(pool)))) for _ in range(2))
        if rng.random() < 0.6:
            p.append(p[a] + p[b] - p[a] * p[b])
            rows = [[1.0, 0.0], [0.0, 1.0], [0.0, 1.0], [0.0, 1.0]]
        else:
            p.append(p[a] * p[b])
            rows = [[1.0, 0.0], [1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
        cpts.append(Cpt(gate, (a, b), rows))
        pool.append(gate)
    variables = tuple(
        Variable(i, f"B{i}" if i < leaves else f"G{i - leaves}", ("ok", "failed"))
        for i in range(n)
    )
    evidence = frozenset(range(0, leaves, 4)) | frozenset(
        range(leaves, leaves + (leaves - 1) // 8)
    )
    spec = AnalysisSpec(n - 1, evidence, {"ok": 0.0, "failed": 1.0})
    return DiscreteBayesNet(variables, tuple(cpts)), spec, p[-1]


def layered_network(
    seed: int, n_roots: int, n_mid: int, cardinality: int | tuple[int, int]
) -> tuple[DiscreteBayesNet, AnalysisSpec]:
    """Roots, then interior nodes with 3 or 4 parents drawn from the roots
    and earlier interior nodes, then one output with 3 interior parents.

    `cardinality` is one domain size for every node or a (lo, hi) range
    drawn per node. The roots are evidential and output label k scores k."""
    rng = np.random.default_rng(seed)
    n = n_roots + n_mid + 1
    if isinstance(cardinality, int):
        cards = [cardinality] * n
    else:
        cards = [int(c) for c in rng.integers(cardinality[0], cardinality[1] + 1, size=n)]
    parent_map: dict[int, tuple[int, ...]] = {i: () for i in range(n_roots)}
    mids = list(range(n_roots, n - 1))
    for k, m in enumerate(mids):
        pool = list(range(n_roots)) + mids[:k]
        chosen = rng.choice(pool, size=3 + (k % 2), replace=False)
        parent_map[m] = tuple(sorted(int(x) for x in chosen))
    parent_map[n - 1] = tuple(sorted(int(x) for x in rng.choice(mids, size=3, replace=False)))
    variables = tuple(
        Variable(i, f"N{i}", tuple(str(d) for d in range(cards[i]))) for i in range(n)
    )
    cpts = []
    for i in range(n):
        rows = int(np.prod([cards[p] for p in parent_map[i]], dtype=np.int64))
        cpts.append(Cpt(i, parent_map[i], rng.dirichlet(np.ones(cards[i]), size=rows)))
    bn = DiscreteBayesNet(variables, tuple(cpts))
    value_map = {str(d): float(d) for d in range(cards[n - 1])}
    return bn, AnalysisSpec(n - 1, frozenset(range(n_roots)), value_map)


def wide_chance_network(c: int) -> tuple[DiscreteBayesNet, AnalysisSpec]:
    """An evidential binary root R over three c-state chance nodes C0-C2,
    each over an evidential binary leaf F0-F2, and a binary output O under
    C0. Every node is relevant; summing R out of the network while the
    C's stay in it spans 2 * c^3 cells."""
    rng = np.random.default_rng(11)
    states = tuple(str(k) for k in range(c))
    variables = [Variable(0, "R", ("0", "1")), Variable(1, "O", ("0", "1"))]
    cpts = [Cpt(0, (), [[0.45, 0.55]]), Cpt(1, (2,), rng.dirichlet(np.ones(2), size=c))]
    for k in range(3):
        ck, fk = 2 + 2 * k, 3 + 2 * k
        variables += [Variable(ck, f"C{k}", states), Variable(fk, f"F{k}", ("0", "1"))]
        cpts.append(Cpt(ck, (0,), rng.dirichlet(np.ones(c), size=2)))
        cpts.append(Cpt(fk, (ck,), rng.dirichlet(np.ones(2), size=c)))
    bn = DiscreteBayesNet(tuple(variables), tuple(cpts))
    return bn, AnalysisSpec(1, frozenset({0, 3, 5, 7}), {"0": 0.0, "1": 1.0})


def driven_chain(m: int, seed: int) -> tuple[DiscreteBayesNet, AnalysisSpec]:
    """Evidential binary roots R0..R{m-1} driving a binary chance chain
    C0 -> ... -> C{m-1}, where C_k also has parent R_k, and a ternary
    output O under the last link. Summing the chain out with the roots
    kept couples every root; eliminating everything does not."""
    rng = np.random.default_rng(seed)
    variables = [Variable(k, f"R{k}", ("0", "1")) for k in range(m)]
    variables += [Variable(m + k, f"C{k}", ("0", "1")) for k in range(m)]
    variables.append(Variable(2 * m, "O", ("0", "1", "2")))
    cpts = [Cpt(k, (), rng.dirichlet(np.ones(2), size=1)) for k in range(m)]
    cpts.append(Cpt(m, (0,), rng.dirichlet(np.ones(2), size=2)))
    cpts += [Cpt(m + k, (k, m + k - 1), rng.dirichlet(np.ones(2), size=4)) for k in range(1, m)]
    cpts.append(Cpt(2 * m, (2 * m - 1,), rng.dirichlet(np.ones(3), size=2)))
    bn = DiscreteBayesNet(tuple(variables), tuple(cpts))
    return bn, AnalysisSpec(2 * m, frozenset(range(m)), {"0": 0.0, "1": 1.0, "2": 3.0})


def concrete_style_network(seed: int = 7) -> tuple[DiscreteBayesNet, AnalysisSpec]:
    """A 24-node ternary network with 16 evidential roots, 7 intermediate
    chance nodes, and one sink output; evidence grid 3^16 (~4.3e7 points)."""
    return layered_network(seed, 16, 7, 3)


# --------------------------------------------------------- random instances

def random_instance(seed: int, max_nodes: int = 12, max_evidence: int = 6):
    """A seeded random network plus a non-degenerate analysis spec with
    mixed root/non-root evidential nodes across seeds."""
    for attempt in range(64):
        rng = np.random.default_rng((seed, attempt))
        n = int(rng.integers(4, max_nodes + 1))
        bn = generate_random_bn(int(rng.integers(0, 2**31)), n, 3, (2, 3))
        output = int(rng.integers(0, n))
        candidates = [i for i in range(n) if i != output]
        k = int(rng.integers(1, min(max_evidence, len(candidates)) + 1))
        evidential = frozenset(
            int(x) for x in rng.choice(candidates, size=k, replace=False)
        )
        value_map = {
            label: float(rng.uniform(0.0, 2.0))
            for label in bn.variables[output].domain
        }
        spec = AnalysisSpec(output, evidential, value_map)
        ft = brute_force_f(bn, spec)
        mean = float((ft.probabilities * ft.values).sum())
        variance = float((ft.probabilities * ft.values**2).sum()) - mean * mean
        if variance > 1e-4:
            return bn, spec
    raise RuntimeError(f"no non-degenerate instance for seed {seed}")


def random_roots_instance(seed: int, max_nodes: int = 10):
    """Like `random_instance` but with the evidential set equal to all roots
    (independent inputs)."""
    for attempt in range(64):
        rng = np.random.default_rng((seed, attempt, 1))
        n = int(rng.integers(4, max_nodes + 1))
        bn = generate_random_bn(int(rng.integers(0, 2**31)), n, 3, (2, 3))
        roots = frozenset(bn.roots())
        non_roots = [i for i in range(n) if i not in roots]
        if not non_roots or not roots:
            continue
        output = int(rng.choice(non_roots))
        value_map = {
            label: float(rng.uniform(0.0, 2.0))
            for label in bn.variables[output].domain
        }
        spec = AnalysisSpec(output, roots, value_map)
        ft = brute_force_f(bn, spec)
        mean = float((ft.probabilities * ft.values).sum())
        variance = float((ft.probabilities * ft.values**2).sum()) - mean * mean
        if variance > 1e-4:
            return bn, spec
    raise RuntimeError(f"no non-degenerate roots instance for seed {seed}")


def random_tn(
    rng: np.random.Generator,
    n_vars: int | None = None,
    max_card: int = 3,
    positive: bool = False,
    universe: dict[int, int] | None = None,
) -> TensorNetwork:
    """A random dense tensor network; `positive` keeps all entries bounded
    away from zero (for use as a divisor). Pass `universe` to build a second
    network over the same variables."""
    if universe is not None:
        universe = dict(universe)
        n = len(universe)
    else:
        n = int(n_vars) if n_vars is not None else int(rng.integers(2, 7))
        universe = {i: int(rng.integers(2, max_card + 1)) for i in range(n)}
    count = int(rng.integers(n, n + 3))
    ids = list(universe)
    factors = []
    for _ in range(count):
        size = int(rng.integers(1, min(3, n) + 1))
        scope = tuple(sorted(int(x) for x in rng.choice(ids, size=size, replace=False)))
        shape = tuple(universe[a] for a in scope)
        if positive:
            values = rng.uniform(0.4, 1.6, size=shape)
        else:
            values = rng.uniform(-1.0, 1.5, size=shape)
        factors.append(Factor(scope, values))
    return TensorNetwork(universe, tuple(factors))


# ------------------------------------------------------ independent oracles

def tn_table(tn: TensorNetwork) -> tuple[list[int], np.ndarray]:
    """Tabulate the network value at every full assignment by a direct
    product loop; no elimination involved."""
    axes = sorted(tn.universe)
    shape = tuple(tn.universe[a] for a in axes)
    position = {a: k for k, a in enumerate(axes)}
    out = np.empty(shape if shape else ())
    for idx in np.ndindex(*shape):
        value = 1.0
        for f in tn.factors:
            value *= f.values[tuple(idx[position[a]] for a in f.axes)]
        out[idx] = value
    return axes, out


def tn_marginal(tn: TensorNetwork, keep: set[int]) -> np.ndarray:
    """Independent marginal table over `keep` (ascending), from `tn_table`."""
    axes, table = tn_table(tn)
    drop = tuple(pos for pos, a in enumerate(axes) if a not in keep)
    return table.sum(axis=drop) if drop else table


def relabeled_network(bn: DiscreteBayesNet, perm: list[int]) -> DiscreteBayesNet:
    """The same network with variable ids permuted by `perm` (old -> new)."""
    order = sorted(range(bn.n), key=lambda old: perm[old])
    variables = tuple(
        Variable(perm[old], bn.variables[old].name, bn.variables[old].domain)
        for old in order
    )
    cpts = tuple(
        Cpt(perm[old], tuple(perm[p] for p in bn.cpts[old].parents), bn.cpts[old].table)
        for old in order
    )
    return DiscreteBayesNet(variables, cpts)


# ------------------------------------------------------------ BIF rendering

# Every gap starts with whitespace, so a comment never glues onto an atom.
_BIF_GAPS = (
    " ", "\n", "\t ", " /* a { comment ; */ ", "\n// line ( comment ;\n",
    "\n# hash \" comment\n", " /* spans\ntwo lines */\n",
)
_BIF_PROPERTIES = (
    "property position = (100, 200);",
    'property note "a { b ; c";',
    "property weight 1;",
)


def render_bif(bn: DiscreteBayesNet, rng: random.Random) -> str:
    """`bn` as a BIF document that exercises the reader: each gap between
    tokens holds whitespace or one of the three comment forms, names and
    labels are quoted at random (always when they hold a space or a
    punctuation mark), every block may carry `property` lines, roots use
    `table` or `()` at random, and rows come in a random order. Numbers
    are written with `repr`, so the reader returns the same floats."""

    def word(text: str) -> str:
        plain = text and not any(c in text for c in ' \t\n"{}()[];,|#/')
        return text if plain and rng.random() < 0.7 else f'"{text}"'

    def props() -> list[str]:
        return [rng.choice(_BIF_PROPERTIES) for _ in range(rng.randint(0, 2))]

    names = [v.name for v in bn.variables]
    parts = ["network", word("net"), "{", *props(), "}"]
    for v in bn.variables:
        parts += ["variable", word(v.name), "{", "type", "discrete",
                  "[", str(v.cardinality), "]", "{"]
        parts += [", ".join(word(label) for label in v.domain), "};", *props(), "}"]
    for i in rng.sample(range(bn.n), bn.n):
        cpt = bn.cpts[i]
        head = word(names[i])
        if cpt.parents:
            head += " | " + ", ".join(word(names[p]) for p in cpt.parents)
        configs = list(itertools.product(
            *(bn.variables[p].domain for p in cpt.parents)
        ))
        statements = props()
        for row, config in enumerate(configs):
            numbers = ", ".join(repr(float(x)) for x in cpt.table[row]) + ";"
            if not config and rng.random() < 0.5:
                statements.append("table " + numbers)
            else:
                header = ", ".join(word(label) for label in config)
                statements.append(f"({header}) {numbers}")
        rng.shuffle(statements)
        parts += ["probability", "(", head, ")", "{", *statements, "}"]
    return "".join(rng.choice(_BIF_GAPS) + part for part in parts) + "\n"


# ------------------------------------------------ graph definitions, by rote

def reference_min_weight_order(scopes, cardinalities, keep=()) -> tuple[int, ...]:
    """The greedy minimal-weight elimination order straight from its
    definition: the scopes are hyperedges, and at each step every live
    vertex is weighed afresh by a scan of every hyperedge. The eliminated
    vertex's hyperedges are replaced by their union minus the vertex.
    `bnsens.min_weight_order` must return this order exactly."""
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


def reference_d_separated(dag, a: int, b: int, given=()) -> bool:
    """d-separation by enumeration of trails, the simple paths of the
    skeleton from a to b. A trail is active when each collider on it (both
    trail edges point into it) or one of its descendants is in Z, and no
    other interior vertex is in Z; a and b are d-separated when no trail is
    active. The one-vertex trail keeps a vertex d-connected to itself."""
    z = set(given)
    kids = [[c for c in range(len(dag)) if v in dag[c]] for v in range(len(dag))]

    def below(v: int) -> set[int]:  # v and its descendants
        out, stack = set(), [v]
        while stack:
            u = stack.pop()
            if u not in out:
                out.add(u)
                stack.extend(kids[u])
        return out

    def active(trail: list[int]) -> bool:
        for prev, mid, nxt in zip(trail, trail[1:], trail[2:]):
            if prev in dag[mid] and nxt in dag[mid]:
                if not below(mid) & z:
                    return False
            elif mid in z:
                return False
        return True

    def trails(path: list[int]):
        if path[-1] == b:
            yield path
            return
        for u in {*dag[path[-1]], *kids[path[-1]]} - set(path):
            yield from trails([*path, u])

    return not any(active(trail) for trail in trails([a]))
