"""Variance-based sensitivity indices for discrete Bayesian networks.

For the function of interest f(evidence) = E[mapped output | evidence], the
variance component S_i = Var_i[E_{~i}[f]] / Var[f] measures the additive
effect of evidential variable i, and the total index
S^T_i = E_{~i}[Var_i[f]] / Var[f] = 1 - Var_{~i}[E_i[f]] / Var[f] its
overall effect including interactions; the closed index of a group of
evidential variables is the group's variance component. `compute_all`
computes them all without tabulating f over the evidence, except where that
table is small. Every index comes from one quantity, the conditional
moment E[E[f | keep]^2] over a subset `keep` of the evidence E: Var[f] is
its value at E minus E[f]^2, S_i reads it at {i}, S^T_i at E - {i}, and a
closed index at the group. The function network `t_full` is the
probability network with g(O), the centred value of the output, as one
more factor. Every plan starts with one forward pass over the probability
network, run up to O's bucket by the order of `collapse(mrf, kept)`, where
`kept` is the evidence and O in the shared elimination and O alone
otherwise: its table is that collapse, bit for bit, and P(O) is the table
summed over every axis but O. Where the pass goes on, g joins O's bucket.
Each of three plans gives E[f] and `moment(keep)`: the shared elimination
(`_shared`), the coupled calibration (`_coupled`) and the per-query queries
(`_per_query`), the last two after one calibration (`_calibration`). The
choice of plan, and all else that rests on scopes alone, is a `_Plan`, kept
per network with the arrays that read no g, so a later analysis contracts
only what reads g.
"""

from __future__ import annotations

import itertools
import logging
import math
import os
import threading
import time
import types
import warnings
import weakref
from collections import namedtuple
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import DegenerateOutputError, NotEvidentialError, PartialFunctionError
from .graph import ancestors, as_ids, least_cells, separated_evidence
from .model import (
    AnalysisSpec,
    Cpt,
    DiscreteBayesNet,
    Variable,
    output_values,
    validate_partition,
)
from . import network
from .network import (
    TensorNetwork,
    collapse,  # noqa: F401  (not called here: hooked by bench/spans.py)
    contract_all,  # noqa: F401  (not called here: hooked by bench/spans.py)
    marginalize,
    marginals,
    mrf_from_bn,
    square_wrt,
)
from .tensor import Factor, reciprocal, trusted

# Var[f] at most this share of Var[g(O)], the variance of the centred map g
# of `compute_all`, means f is constant and every index undefined: each
# E[g(O) | e] is off by about n*eps*E[|g(O)| | e], so the rounding noise in
# Var[f] is about (n*eps)^2 * Var[g(O)]. A rare evidential event can explain
# a far smaller share than n*eps and still be the whole of Var[f].
DEGENERATE_VARIANCE_TOL = 1e-24
NEGATIVE_INDEX_WARNING = 1e-6
# An analysis whose table over the evidence and the output has at most this
# many cells sums the chance variables out of the probability network once,
# takes P(O) from that table, and every index from two tables over the
# evidence, with one ordering in all. Such an analysis is so small that each
# bucket's and each ordering's Python set-up outweighs its arithmetic (the
# numpy kernels were a tenth of a sparse200 analysis, 648 cells). The value
# is network.ROUTE_CELLS, the size below which a bucket's set-up outweighs
# its cells. Cardinalities are at least 2, so the table has at most 12 axes,
# well within one einsum.
SHARED_ELIMINATION_CELLS = network.ROUTE_CELLS
# The per-query queries run on threads when the largest factor of `t` has at
# least this many cells per variable of `t`: below it a query is mostly
# Python, which holds the GIL, and a second thread only adds switching.
# Median time of the queries, 2 threads over 1, in-process on 2 cores (120
# analyses a side; the largest factor of `t` per variable in brackets):
# dense-card's network 0.70x (107,520), `layered_network(4, 10, 5, (5, 7))`
# 0.85x (43,218) and `layered_network(1, 8, 5, (4, 7))` 0.95x (36,015),
# against `gate_tree(64, 0)` with gate evidence 1.03x (22,795),
# `layered_network(3, 8, 5, (4, 7))` 1.10x (16,464) and
# `layered_network(1, 6, 4, (5, 8))` 1.24x (11,200); the tree and layered
# networks are those of tests/helpers.py.
THREAD_CELLS_PER_VARIABLE = 2**15

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class IndexEntry:
    """Sensitivity results for one evidential variable or variable group.

    `s_time` and `st_time` are the seconds spent on `s` and `st`. The
    first-order indices of the coupled and per-query plans share one
    calibration of the function network `t_full` (and, with dependent
    evidence, one of the evidence marginal), the total indices of the
    coupled plan share another, every index of the shared elimination
    shares its tables, and every index of the per-query plan shares the
    time from the calibration's end to the last query's (the divisors,
    building `t`, the queries), since each reads Var[f]. Each index
    computed from a calibration, the tables or the queries is charged an
    equal share of its time plus its own arithmetic, so the times still add
    up to the work done."""

    variables: tuple[int, ...]
    name: str
    s: float | None = None
    s_time: float | None = None
    st: float | None = None
    st_time: float | None = None


@dataclass(frozen=True)
class SobolReport:
    expected_value: float
    variance: float
    indices: tuple[IndexEntry, ...]
    total_time: float


@dataclass(frozen=True)
class ComputeOptions:
    """What `compute_all` computes.

    `first` and `total` ask for S_i and S^T_i of every evidential variable;
    `closed` lists groups of evidential variable ids whose closed index is
    reported after them. `workers` is accepted and ignored, and stays only
    while the benchmark harness (`bench/run.py`) still passes it: how many
    threads run the per-query plan's queries follows from the CPUs this
    process may run on and from the size of `t` (`_second_moments`)."""

    first: bool = True
    total: bool = True
    closed: tuple[tuple[int, ...], ...] = ()
    workers: int = 1


_Query = namedtuple("_Query", "keep reduce divide square")


def _plan(universe: dict, scopes: list, j: TensorNetwork | None, keep: frozenset) -> _Query:
    """The program of E[E[f | keep]^2] over a `t` of factor `scopes`: `t`
    summed down to P(keep) E[f | keep] (`reduce`), squared (every variable
    left is shared) over P(keep), the priors' product with `j` None, else
    `j` summed down to `keep` (`divide`), to a scalar (`square`), ordered
    from the unsquared scopes, since a repeated one adds no edge."""
    reduce, reduced = network._program(universe, scopes, network._order(scopes, universe, keep))
    divide, divisor = None, [(k,) for k in sorted(keep)]
    if j is not None:
        j_scopes = [f.axes for f in j.factors]
        order = network._order(j_scopes, j.universe, keep)
        divide, divisor = network._program(j.universe, j_scopes, order)
    universe = {k: c for k, c in universe.items() if k in keep}
    order = network._order([*reduced, *divisor], universe, set())
    square, _ = network._program(universe, [*reduced, *reduced, *divisor], [*order, None])
    return _Query(keep, reduce, divide, square)


def _divisors(queries: Sequence[_Query], j: TensorNetwork, priors: dict | None) -> tuple:
    """Each query's zero-safe reciprocals of P(keep), of `priors` or of `j` summed
    down to `keep`: where P(keep) is 0 so is the numerator, and 0 is exact."""
    inverse = {k: reciprocal(p) for k, p in (priors or {}).items()}
    arrays = [f.values for f in j.factors] if priors is None else []
    return tuple([inverse[k] for k in sorted(q.keep)] if q.divide is None else [
        reciprocal(a) for a in network._executed(q.divide, arrays)] for q in queries)


def _second_moment(query: _Query, t: list, divisor: list, held: tuple = (None, None)) -> float:
    """`query`'s moment over `t`'s arrays and `divisor`, with the messages `held` (`_free`)."""
    reduced = network._executed(query.reduce, t, held[0])
    (table,) = network._executed(query.square, [*reduced, *reduced, *divisor], held[1])
    return network._checked(float(table), [*reduced, *divisor])


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _second_moments(t: list, tasks: Sequence[tuple], workers: int) -> list:
    """The `_second_moment` over `t` of each (query, divisor, held) of `tasks`, or
    its exception: the caller and up to `workers` - 1 helpers each take the
    next query until all have run, each doing the same arithmetic on any
    thread. The helpers are joined before this returns or raises."""
    results, taken, lock, helpers = [None] * len(tasks), 0, threading.Lock(), []

    def work() -> None:
        nonlocal taken
        while True:
            with lock:
                q, taken = taken, taken + 1
            if q >= len(tasks):
                return
            try:
                results[q] = _second_moment(tasks[q][0], t, *tasks[q][1:])
            except Exception as exc:  # re-raised by the caller, in list order
                results[q] = exc

    try:
        for _ in range(workers - 1):
            helper = threading.Thread(target=work)
            try:
                helper.start()
            except RuntimeError:  # the OS refused it: no more are tried
                break
            helpers.append(helper)
        work()
    finally:
        with lock:  # an interrupt on this thread stops the helpers taking more
            taken = len(tasks)
        for helper in helpers:
            helper.join()
    return results


# Module-level so that bench/spans.py and the tests can hook each query.
def variance_component(
    i: int,
    moment: Callable[[frozenset[int]], float],
    mean: float,
    variance: float,
) -> float:
    """First-order effect S_i = (E[E[f | i]^2] - E[f]^2) / Var[f] of
    variable i, where `moment(keep)` is the plan's E[E[f | keep]^2]."""
    return (moment(frozenset({i})) - mean * mean) / variance


def total_index(
    i: int,
    moment_without: Callable[[int], float],
    mean: float,
    variance: float,
) -> float:
    """Total effect S^T_i = 1 - (E[E[f | E - {i}]^2] - E[f]^2) / Var[f] of
    variable i, where `moment_without(i)` is the plan's E[E[f | E - {i}]^2]
    over the evidence E."""
    return 1.0 - (moment_without(i) - mean * mean) / variance


def _priors(j: TensorNetwork) -> dict[int, np.ndarray] | None:
    """P(x_k) for each variable of the evidence marginal `j`, when `j` is a
    product of one-axis factors (and scalars), so that the evidential
    variables are independent; otherwise None. j sums to 1, so each P(x_k)
    is the product of the factors over k, normalized."""
    if any(len(f.axes) > 1 for f in j.factors):
        return None
    products = {k: np.ones(card) for k, card in j.universe.items()}
    for f in j.factors:
        if f.axes:
            products[f.axes[0]] = products[f.axes[0]] * f.values
    return {k: p / p.sum() for k, p in sorted(products.items())}


def _nondegenerate(variance: float, output_variance: float) -> float:
    """`variance`, Var[f] of the centred map g, where it is defined: a zero
    Var[g(O)] `output_variance` (the value map constant on the output's
    possible labels) or Var[f] at most DEGENERATE_VARIANCE_TOL times it
    raises DegenerateOutputError. The one degeneracy test of `compute_all`
    and of `bnsens.oracle`."""
    if output_variance == 0.0:
        raise DegenerateOutputError(
            "the value map is constant on the output's possible labels; "
            "indices undefined"
        )
    if not variance > DEGENERATE_VARIANCE_TOL * output_variance:
        raise DegenerateOutputError(f"output variance {variance!r} is numerically zero")
    return variance


_Key = namedtuple("_Key", "output evidence first total closed")
_Plan = namedtuple(
    "_Plan", "key notes relevant forward joined shared calibrate targets "
    "queried totaled zero_s zero_st separated unscreened users pairs coupled "
    "j_pass build universe keeps queries largest tables t_marginals j_marginals outside kept")
_Plan.__doc__ = """All that an analysis under `key` derives from scopes alone (`_planned`):
    its nodes and exact zeros, the records of each elimination, with their
    kernels (`forward` to O's bucket, `joined` with g, the `coupled`
    network's, a dependent `j`'s calibration `j_pass`, `t`'s `build`), the
    per-query `keeps` and their programs (`queries`, `_plan`), the `tables`
    a run takes (P(O)'s; T's and J's) and the `marginals` backward programs
    (`t_full`'s and `j`'s calibrations, the couplings' `outside` factors),
    so that a run derives nothing; `notes` are its DEBUG lines. `kept`,
    None until a first run returns, holds by name, read-only, what runs
    made that reads no g (`_run`): the first run's
    arrays but messages (the probability network, P(O), the reciprocals of
    J's sums, the priors, a dependent `j`'s marginals, the divisors); the
    second run's messages (`_free`), each query's apart.

    The shared elimination is taken when the table over the evidence and
    the output (the product of their cardinalities, a Python int) has at
    most SHARED_ELIMINATION_CELLS cells, where each bucket's and ordering's
    Python set-up outweighs its arithmetic: neither `t` nor the coupled
    network is then ordered. Else the coupled plan is taken when totals are
    asked for, without closed subsets, on independent evidence (`j` a
    product of one-axis factors), if the cells of its forward and backward
    passes, by its order of the scopes of `square_wrt(t_full, ())` and the
    coupling pairs, are fewer than those of summing `t_full` down to `t`;
    `t` is ordered only when its `least_cells`, which no order goes below,
    do not already exceed them. Each costed order is the one that runs; the
    couplings, made only for the coupled plan, join its `Elimination` last.
    Else the per-query plan is taken. The choice is logged with the cells
    it rests on."""


# The last plan of each network, an immutable value hashed by identity.
_plans: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _kept(found: dict, name: str, make: Callable):
    """The value-free `name` of `found`, or `make`'s, kept there."""
    if name not in found:
        found[name] = make()
    return found[name]


def _free(records: Sequence, reads: Sequence[bool]) -> tuple[dict, list]:
    """The messages of `records` that read no value, None by position, over
    operands of which `reads` flags, by position, those that do (g, its
    replica, a message of one); and the flags of the operands left live. Only
    a network analysed again reads them: a run keeps them once `_Plan.kept` is."""
    reads, taken = [*reads], set()
    for _, positions, _, _, _, _ in records:
        reads.append(any(reads[i] for i in positions))
        taken.update(positions)
    free = dict.fromkeys(i for i in range(len(reads) - len(records), len(reads)) if not reads[i])
    return free, [r for i, r in enumerate(reads) if i not in taken]


def _frozen(found: dict) -> types.MappingProxyType:
    """`found` read-only, and each array in it, through dicts, lists and plain tuples."""
    values = [*found.values()]
    while values:
        value = values.pop()
        if isinstance(value, np.ndarray):
            value.setflags(False)  # write
        elif type(value) in (dict, list, tuple):
            values += value.values() if isinstance(value, dict) else value
    return types.MappingProxyType(found)


def _planned(bn: DiscreteBayesNet, key: _Key) -> tuple[_Plan, TensorNetwork, TensorNetwork]:
    """The `_Plan` of an analysis, with the probability network and `j`
    whose scopes it was derived from, for its first run. Each ordering goes
    through bnsens.network's name, where the benchmark counts them."""
    (output, evidence, first, total, closed), dag = key, bn.dag()
    relevant = ancestors(dag, evidence | {output})
    targets = sorted(evidence) if first or total else []
    separated, screened = separated_evidence(dag, output, evidence)
    zero_s = separated if first else frozenset()
    zero_st = screened if total else frozenset()
    queried = [i for i in targets if i not in zero_s] if first else []
    totaled = [i for i in targets if i not in zero_st] if total else []
    notes = [("%s of %s (id %d) = 0.0 by d-separation from the output", label,
              bn.variables[i].name, i) for label, zeros in (("S", zero_s), ("ST", zero_st))
             for i in sorted(zeros)]
    unseparated = [ids for ids in closed if not separated.issuperset(ids)]
    unscreened = evidence - screened  # f = E[f | keep] where the rest is screened
    mrf = mrf_from_bn(bn, relevant)
    universe, scopes = mrf.universe, [f.axes for f in mrf.factors]
    ancestral = {k: universe[k] for k in sorted(ancestors(dag, evidence))}
    own = dict(zip(universe, mrf.factors))  # one factor per node, in node order
    j = marginalize(trusted(TensorNetwork, ancestral, tuple(own[k] for k in ancestral)),
                    ancestral.keys() - evidence)
    independent = all(len(f.axes) <= 1 for f in j.factors)
    evidence_universe = {k: c for k, c in universe.items() if k in evidence}
    # A Python int: a product over many evidential variables overflows int64.
    shared_cells = math.prod(universe[k] for k in evidence | {output})
    shared = shared_cells <= SHARED_ELIMINATION_CELLS
    calibrate = bool(queried) and len(evidence) > 1 and not shared
    # The one forward pass, up to O's bucket: its table is collapse(mrf, kept).
    schedule = network.Schedule(universe, [*scopes])
    kept = evidence | {output} if shared else {output}
    forward = schedule.derive(network._order(scopes, universe, kept))
    tables = [schedule.tabled()]
    joined = schedule.derive((output,), [(output,)]) if shared or calibrate else ()
    pairs = coupled = j_pass = build = keeps = queries = largest = j_marginals = outside = None
    t_marginals = network._backward(universe, [*forward, *joined], schedule.live,
                                    of=[*queried, output]) if calibrate else None
    j_schedule = network.Schedule(j.universe, [f.axes for f in j.factors])
    if calibrate and not independent:
        j_pass = j_schedule.derive(network._order(j_schedule.scopes, j.universe, set()))
        j_marginals = network._backward(j.universe, j_pass, j_schedule.live, of=queried)
    if shared:
        tables += [schedule.tabled(), j_schedule.tabled()]
        notes.append(("shared-elimination plan: table over the evidence and the output "
                      "%d cells, at most %d", shared_cells, SHARED_ELIMINATION_CELLS))
    else:
        full_scopes = [*scopes, (output,)]  # of t_full, g last
        t_order, coupled_cells, reduce_cells = None, 0, 0
        if independent and total and not closed:
            replicas, squared_universe, squared = network.squared_scopes(universe, full_scopes)
            pairs = tuple((k, replicas[k]) for k in evidence_universe)
            coupled_order = network.min_weight_order([*squared, *pairs], squared_universe)
            # a forward pass, and a backward pass over about as many cells
            coupled_cells = 2 * sum(coupled_order.cells)
            reduce_cells = least_cells(full_scopes, universe, evidence)
        # t is ordered unless its least cells already exceed the coupled cells
        if coupled_cells >= reduce_cells:
            t_order = network.min_weight_order(full_scopes, universe, keep=evidence)
            reduce_cells = sum(t_order.cells)
        if coupled_cells:
            notes.append(("coupled plan%s: coupled calibration %d cells, building t %s%d cells",
                          "" if coupled_cells < reduce_cells else " declined", coupled_cells,
                          "at least " if t_order is None else "", reduce_cells))
        if coupled_cells and coupled_cells < reduce_cells:
            couplings = range(len(squared), len(squared) + len(pairs))  # their positions
            c_schedule = network.Schedule(squared_universe, squared)
            coupled = c_schedule.derive(coupled_order, pairs)
            outside = network._backward(squared_universe, coupled, c_schedule.live, None, couplings)
        else:
            notes.append(("per-query plan: table over the evidence and the output %d cells, "
                          "above %d; building t %d cells",
                          shared_cells, SHARED_ELIMINATION_CELLS, reduce_cells))
            build, t_scopes = network._program(universe, full_scopes, t_order)
            # Every moment an index reads that no calibration gives, once:
            # Var[f]'s, each total's and each closed group's. An S_i reads a
            # calibrated moment or, with one evidential variable, Var[f]'s.
            keeps = [evidence, *(evidence - {i} for i in totaled)]
            keeps += [evidence if unscreened <= set(ids) else frozenset(ids) for ids in unseparated]
            calibrated = {frozenset({i}) for i in queried} if calibrate else set()
            keeps = tuple(k for k in dict.fromkeys(keeps) if k not in calibrated)
            queries = tuple(_plan(evidence_universe, t_scopes, None if independent else j, keep)
                            for keep in keeps)
            largest = max((math.prod(evidence_universe[v] for v in s) for s in t_scopes), default=0)
    return _Plan(
        key, tuple(notes), relevant, forward, joined, shared, calibrate,
        tuple(targets), tuple(queried), tuple(totaled), zero_s, zero_st, separated, unscreened,
        len(queried) + len(totaled) + len(unseparated), pairs, coupled, j_pass, build,
        evidence_universe, keeps, queries, largest, tuple(tables), t_marginals, j_marginals,
        outside, None), mrf, j


def compute_all(
    bn: DiscreteBayesNet,
    spec: AnalysisSpec,
    options: ComputeOptions | None = None,
) -> SobolReport:
    """Compute the requested indices for every evidential variable.

    The closed subsets of `options` are checked before any elimination: an
    empty subset, an id that is not an integer, a repeated variable or a
    non-evidential one raises NotEvidentialError. Builds the probability
    network over An(output | evidence) only: a barren node, an ancestor of
    neither, has a factor that sums to 1 and drops out exactly. The value
    factor maps each output value v to g(v) = (v - E[f]) / (max v - min v),
    with E[f] from P(O) of the one forward pass, so the moments are taken
    about the mean and the indices hold under any affine map of the values
    and for rare events. A value map constant on the labels of nonzero
    probability raises DegenerateOutputError before any plan runs, and so
    does Var[f] at most DEGENERATE_VARIANCE_TOL times Var[g(O)]
    (`_nondegenerate`, which the oracle shares). The evidence marginal `j`
    is built over An(evidence) alone, where every other node is barren; with
    root evidence it is the evidence's own factors in the probability
    network, and nothing is eliminated for it. Every network built here
    derives from `bn` and skips the constructors' checks (`trusted`). The
    plan of the last analysis of `bn` that ran without error is kept as long
    as `bn`, with the arrays that read no value map (`_Plan`): an analysis
    with the same output, evidence, `first`, `total` and `closed`, under any
    value map, runs it again, and says so at DEBUG level.

    With a single evidential variable, {i} is E, so S_i reads the moment
    that Var[f] was taken from and is exactly 1.0. Some indices need no
    query and are exact zeros: S_i when i is d-separated from the output,
    since E[f | i] is then constant, the closed index of a group of such
    variables, and S^T_i when the rest of the evidence d-separates i from
    the output, since f is then flat along i; `separated_evidence` finds
    these sets for every variable at once. For the same reason an S_i or
    closed index whose complement in the evidence is all screened reads
    the moment of E and is exactly 1.0. Entries are ordered by variable
    id, with the closed subsets last; with neither `first` nor `total`
    requested there are no per-variable entries."""
    options = options or ComputeOptions()
    validate_partition(bn, spec)
    closed = tuple(tuple(sorted(as_ids(ids, NotEvidentialError))) for ids in options.closed)
    for ids in closed:
        if not ids or len(set(ids)) < len(ids) or not set(ids) <= spec.evidential:
            raise NotEvidentialError(f"closed subset {list(ids)} must be nonempty, "
                                     "without repeats and evidential")
    started = time.perf_counter()
    key = _Key(spec.output, spec.evidential, options.first, options.total, closed)
    if (plan := _plans.get(bn)) is not None and plan.key == key:
        _log.debug("reusing the network's plan")
        mrf = j = None  # the plan keeps all it reads of them
    else:
        plan, mrf, j = _planned(bn, key)
    return _run(plan, mrf, j, bn, spec, started)


def _run(plan: _Plan, mrf: TensorNetwork, j: TensorNetwork, bn: DiscreteBayesNet,
         spec: AnalysisSpec, started: float) -> SobolReport:
    """`plan` run under `spec`'s value map over `mrf` and `j`, the one step
    that touches arrays, or, with neither, over what `plan` keeps. It
    changes nothing `plan` holds, and keeps it as `bn`'s, with what this
    run made that reads no value map and `plan` lacks (`_Plan.kept`).

    The plan's function (`_shared`, `_coupled`, `_per_query`) takes the
    forward pass, the value factor g and E[f] from P(O), and gives E[f],
    `moment(keep)`, moment(E - {i}) by i, the time share of each S_i and of
    each S^T_i, and a failed query, raised once Var[f] is checked. Each index
    is charged an equal share of the time of the calibration, the tables or
    the queries it came from. The function network has mean zero up to
    rounding; taking that residual E[f] out as well drops the constant
    offset that the rounding of `centre` leaves in g."""
    if _log.isEnabledFor(logging.DEBUG):
        _log.debug("pruned barren nodes %s", sorted(set(range(bn.n)) - plan.relevant))
        for note in plan.notes:
            _log.debug(*note)
    found = {"mrf": mrf} if plan.kept is None else {**plan.kept}
    output, evidence, first, total, closed = plan.key
    values = output_values(bn, spec)
    low, spread = float(values.min()), float(np.ptp(values)) or 1.0
    forward = network.Elimination(found["mrf"], records=plan.calibrate).run(  # none reads g
        (), records=plan.forward, kept=plan.kept and _kept(
            found, "forward", lambda: dict.fromkeys(record[4] for record in plan.forward)))
    if (p_out := found.get("p_out")) is None:
        axes, table = forward.table(plan.tables[0])
        p_out = found["p_out"] = table.sum(axis=tuple(a for a, k in enumerate(axes) if k != output))
    unit = (values - low) / spread
    centre = float(unit @ p_out)
    g = unit - centre
    output_variance = float(p_out @ (g * g)) if np.ptp(values[p_out != 0]) else 0.0
    _nondegenerate(math.inf, output_variance)  # no Var[f] yet: a constant map raises
    run = _shared if plan.shared else _per_query if plan.coupled is None else _coupled
    mean, moment, without, s_share, st_share, failure = run(
        plan, found, forward, trusted(Factor, (output,), g), float(g @ p_out), j)
    variance = _nondegenerate(moment(evidence) - mean * mean, output_variance)
    if failure is not None:
        raise failure

    def read(keep: frozenset[int]) -> float:
        return moment(evidence if plan.unscreened <= keep else keep)

    entries = []
    for i in plan.targets:
        s = s_time = st = st_time = None
        if first:
            t0 = time.perf_counter()
            s = 0.0 if i in plan.zero_s else variance_component(i, read, mean, variance)
            s_time = time.perf_counter() - t0 + (0.0 if i in plan.zero_s else s_share)
        if total:
            t0 = time.perf_counter()
            st = 0.0 if i in plan.zero_st else total_index(i, without.__getitem__, mean, variance)
            st_time = time.perf_counter() - t0 + (0.0 if i in plan.zero_st else st_share)
        entries.append(IndexEntry((i,), bn.variables[i].name, s, s_time, st, st_time))

    for ids in closed:
        name = "+".join(bn.variables[v].name for v in ids)
        t0 = time.perf_counter()
        if plan.separated.issuperset(ids):
            _log.debug("S of %s = 0.0 by d-separation from the output", name)
            value, share = 0.0, 0.0
        else:
            value, share = (read(frozenset(ids)) - mean * mean) / variance, st_share
        elapsed = time.perf_counter() - t0 + share
        entries.append(IndexEntry(ids, name, value, elapsed, None, None))

    for entry in entries:
        for label, value in (("S", entry.s), ("ST", entry.st)):
            if value is None:
                continue
            if not np.isfinite(value):
                raise DegenerateOutputError(
                    f"{label} of {entry.name} is not finite ({value!r})"
                )
            if value < -NEGATIVE_INDEX_WARNING:
                warnings.warn(
                    f"{label} of {entry.name} is {value:.3e}, negative beyond "
                    "floating-point noise",
                    RuntimeWarning,
                    stacklevel=3,
                )
    if len(found) > len(plan.kept or ()):
        plan = plan._replace(kept=_frozen(found))
    _plans[bn] = plan
    return SobolReport(low + spread * (centre + mean), spread * spread * variance,
                       tuple(entries), time.perf_counter() - started)


def _shared(plan: _Plan, found: dict, forward: network.Elimination, value_factor: Factor,
            mean: float, j: TensorNetwork | None) -> tuple:
    """The shared elimination: g joins O's bucket, and the pass goes on to
    eliminate O, which leaves T, `t_full` tabulated over the sorted
    evidence; `j` is contracted into one table J over the same axes.
    `moment(keep)` is the sum of T_keep^2 / J_keep, the tables with the
    evidence outside `keep` summed away; the reciprocals of J's sums are
    kept by `keep`, as the first run read them."""
    t0 = time.perf_counter()
    forward.run((), value_factor, records=plan.joined)
    table = forward.table(plan.tables[1])[1]
    j_table = None if j is None else network.Elimination(j).table(plan.tables[2])[1]  # J, first run
    inverses = _kept(found, "inverses", dict)

    def moment(keep: frozenset[int]) -> float:
        axes = tuple(a for a, k in enumerate(plan.universe) if k not in keep)
        if (inverse := inverses.get(keep)) is None:
            inverse = inverses[keep] = reciprocal(j_table.sum(axis=axes))
        t_keep = table.sum(axis=axes)
        return float(np.vdot(t_keep, t_keep * inverse))

    without = {i: moment(plan.key.evidence - {i}) for i in plan.totaled}
    share = (time.perf_counter() - t0) / max(plan.users, 1)
    return float(table.sum()), moment, without, share, share, None


def _calibration(plan: _Plan, found: dict, forward: network.Elimination, value_factor: Factor,
                 mean: float, j: TensorNetwork | None, priors: dict | None) -> tuple:
    """E[f], each S_i's moment by {i}, their time share, and the time at the
    end. With more than one evidential variable and an S_i to compute, the
    forward pass goes on as the calibration of `t_full`: g joins O's bucket,
    and the backward pass gives E[f] and each t_i = P(i) E[f | i], as in
    `t`; E[E[f | i]^2] is the sum of t_i^2 / j_i, with j_i = P(i), the
    prior or a marginal of one calibration of `j`, where a zero cell, of t_i
    too, adds 0. Otherwise E[f] is `mean`, the sum of P(O) g."""
    moments, s_share = {}, 0.0
    if plan.calibrate:
        t0 = time.perf_counter()
        forward.run((), value_factor, records=plan.joined)
        t_marginals = marginals(forward, program=plan.t_marginals)
        j_marginals = priors if priors is not None else _kept(found, "marginals", lambda: marginals(
            network.Elimination(j).run((), records=plan.j_pass), program=plan.j_marginals))
        for i in plan.queried:
            t_i = t_marginals[i]
            moments[frozenset({i})] = float(t_i @ (t_i * reciprocal(j_marginals[i])))
        mean = float(t_marginals[plan.key.output].sum())
        s_share = (time.perf_counter() - t0) / len(plan.queried)
    return mean, moments, s_share, time.perf_counter()


def _coupled(plan: _Plan, found: dict, forward: network.Elimination, value_factor: Factor,
             mean: float, j: TensorNetwork | None) -> tuple:
    """The coupled calibration, for independent evidence: after
    `_calibration`, `square_wrt(t_full, ())` times one coupling
    C_k = diag(1 / P(x_k)) over each evidential k and its replica is
    calibrated once for the outside factors of its couplings (the
    differential approach, Darwiche 2003; Park and Darwiche 2004). 1 / P(e)
    is the product of the C_k on the diagonal, so the first coupling times
    its outside factor sums to `moment(E)`, and the outside factor of C_k
    alone to `moment(E - {k})`; where P(x_k) is 0, so are C_k (zero-safe)
    and `t_full`. No other `keep` but the calibration's {i} is read, so
    this plan serves no closed index, and `t` is never built."""
    priors = _kept(found, "priors", lambda: _priors(j))
    mean, moments, s_share, t0 = _calibration(plan, found, forward, value_factor, mean, j, priors)
    mrf = found["mrf"]
    squared = square_wrt(trusted(TensorNetwork, mrf.universe, (*mrf.factors, value_factor)), ())
    diagonals = _kept(found, "diagonals", lambda: [np.diag(reciprocal(p)) for p in priors.values()])
    couplings = [trusted(Factor, *c) for c in zip(plan.pairs, diagonals)]
    start, g_at = len(squared.factors), len(mrf.factors)  # g_at: g's position in t_full
    reads = [i in (g_at, 2 * g_at + 1) for i in range(start + len(couplings))]  # g, its replica
    coupled = network.Elimination(squared).run(
        (), *couplings, records=plan.coupled,
        kept=plan.kept and _kept(found, "coupled", lambda: _free(plan.coupled, reads)[0]))
    outside = marginals(coupled, program=plan.outside)
    without = {k: float(outside[p].sum()) for p, k in enumerate(priors, start)}
    moments[plan.key.evidence] = float(np.sum(outside[start] * diagonals[0]))
    st_share = (time.perf_counter() - t0) / max(len(plan.totaled), 1)
    return mean, moments.__getitem__, without, s_share, st_share, None


def _per_query(plan: _Plan, found: dict, forward: network.Elimination, value_factor: Factor,
               mean: float, j: TensorNetwork | None) -> tuple:
    """The per-query queries: after `_calibration`, the non-evidential
    variables are summed out of `t_full` into `t`, and each `moment(keep)`
    of `plan.keeps` (Var[f]'s, each total's, each closed group's) is its
    query of `plan.queries` over `t` squared and divided by the evidence
    marginal over `keep`: with independent evidence, the product of the
    reciprocal priors, taken once per analysis; otherwise `j` with the rest
    summed out. The queries, which only contract, run on as many threads as
    CPUs and queries when `t` is large enough for the GIL-free numpy kernels
    to dominate (`_second_moments`), all before any index is computed. A
    failure of Var[f]'s query raises; any other is returned. Every index
    reads Var[f], so each shares the time from the calibration's end to the
    last query's."""
    priors = _kept(found, "priors", lambda: _priors(j))
    mean, moments, s_share, t0 = _calibration(plan, found, forward, value_factor, mean, j, priors)
    divisors = _kept(found, "divisors", lambda: _divisors(plan.queries, j, priors))
    t_full = [*(f.values for f in found["mrf"].factors), value_factor.values]
    reads = [False] * (len(t_full) - 1) + [True]  # g, last in t_full
    held = plan.kept and _kept(found, "build", lambda: _free(plan.build, reads))
    t = network._executed(plan.build, t_full, held and held[0])
    queries = plan.kept and _kept(found, "queries", lambda: [  # each query's, reduce and square
        (free, _free(q.square, [*reduced, *reduced, *[False] * len(d)])[0])
        for q, d in zip(plan.queries, divisors) for free, reduced in [_free(q.reduce, held[1])]])
    threaded = plan.largest >= THREAD_CELLS_PER_VARIABLE * len(plan.universe)
    tasks = [*zip(plan.queries, divisors, queries or itertools.repeat((None, None)))]
    results = _second_moments(t, tasks, min(_cpus(), len(plan.keeps)) if threaded else 1)
    failure = next((r for r in results if isinstance(r, BaseException)), None)
    if failure is results[0]:
        raise failure  # Var[f]'s query, the first, failed
    moments.update(zip(plan.keeps, results))
    without = {i: moments[plan.key.evidence - {i}] for i in plan.totaled}
    st_share = (time.perf_counter() - t0) / max(plan.users, 1)
    return mean, moments.__getitem__, without, s_share + st_share, st_share, failure


def encode_utility_node(
    bn: DiscreteBayesNet,
    g: Callable[[tuple[str, ...]], str],
    parents: Iterable[int],
    out_domain: Sequence[str],
    name: str | None = None,
) -> DiscreteBayesNet:
    """Append a node that deterministically computes `g` over `parents`.

    `g` maps a tuple of parent labels (in the given parent order; sets are
    sorted by id) to one label of `out_domain`; the new node's CPT has a
    single 1 per row. The result turns an arbitrary function of several
    nodes into a single output variable. The extended network is checked
    when it is built: a repeated parent, a domain of fewer than two distinct
    labels or a name already in use raises ValidationError."""
    parent_ids = tuple(as_ids(parents))
    if isinstance(parents, (set, frozenset)):
        parent_ids = tuple(sorted(parent_ids))
    for p in parent_ids:
        if not 0 <= p < bn.n:
            raise ValueError(f"parent id {p} out of range")
    domain = tuple(str(label) for label in out_domain)
    taken = {v.name for v in bn.variables}
    if name is None:
        name = "O"
        k = 0
        while name in taken:
            k += 1
            name = f"O{k}"
    position = {label: col for col, label in enumerate(domain)}
    parent_domains = [bn.variables[p].domain for p in parent_ids]
    rows = []
    for combo in itertools.product(*parent_domains):
        try:
            label = g(combo)
        except LookupError as exc:
            raise PartialFunctionError(f"utility undefined for {combo}") from exc
        if label is None:
            raise PartialFunctionError(f"utility undefined for {combo}")
        col = position.get(str(label))
        if col is None:
            raise PartialFunctionError(
                f"utility value {label!r} for {combo} is not an output label"
            )
        row = np.zeros(len(domain))
        row[col] = 1.0
        rows.append(row)
    new_id = bn.n
    variables = bn.variables + (Variable(new_id, name, domain),)
    cpts = bn.cpts + (Cpt(new_id, parent_ids, np.vstack(rows)),)
    return DiscreteBayesNet(variables, cpts)
