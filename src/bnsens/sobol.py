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
Each of three plans gives E[f] and `moment(keep)`:

- Shared elimination: the pass goes on to eliminate O, and its table is
  then T, `t_full` tabulated over the sorted evidence; the evidence
  marginal `j` is contracted into one table J over the same axes.
  `moment(keep)` is the sum of T_keep^2 / J_keep, the tables with the
  evidence outside `keep` summed away.
- Coupled, for independent evidence: `square_wrt(t_full, ())` times one
  coupling C_k = diag(1 / P(x_k)) over each evidential k and its replica
  is calibrated once for the outside factors of its couplings (the
  differential approach, Darwiche 2003; Park and Darwiche 2004). 1 / P(e)
  is the product of the C_k on the diagonal, so the first coupling times
  its outside factor sums to `moment(E)`, and the outside factor of C_k
  alone to `moment(E - {k})`; where P(x_k) is 0, so are C_k (zero-safe)
  and `t_full`. No other `keep` but the {i} below is read, so this plan
  serves no closed index, and `t` is never built.
- Per-query: the non-evidential variables are summed out of `t_full` into
  `t`, and each `moment(keep)` is one query over `t` squared and divided
  by the evidence marginal over `keep`: with independent evidence, the
  product of the reciprocal priors, taken once per analysis; otherwise
  `j` with the rest summed out. The queries read `t` and `j` and not each
  other; every `keep` an index reads is listed before any index is
  computed, and each is queried once, on as many threads as there are
  CPUs and queries when `t` is large enough for the numpy kernels, which
  release the GIL, to dominate (`_second_moments`).

In the last two, with more than one evidential variable and an S_i to
compute, the pass goes on as the calibration of `t_full`: its backward
pass gives E[f] and each first-order `moment({i})` from t_i = P(i)
E[f | i], as in `t`, and from j_i = P(i), the prior or a marginal of one
calibration of `j`. Otherwise E[f] is the sum of P(O) g. `compute_all`
says how the plan is chosen.
"""

from __future__ import annotations

import itertools
import logging
import math
import os
import threading
import time
import warnings
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import DegenerateOutputError, NotEvidentialError, PartialFunctionError
from .graph import ancestors, separated_evidence
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
    contract_all,
    marginalize,
    marginals,
    mrf_from_bn,
    quotient,
    reciprocal,
    square_wrt,
)
from .tensor import Factor, trusted

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
    wall time of its queries, since each reads Var[f] from one of them.
    Each index computed from a calibration, the tables or the queries is
    charged an equal share of its time plus its own arithmetic, so the
    times still add up to the work done."""

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


def _conditional_second_moment(
    t: TensorNetwork,
    j: TensorNetwork,
    keep: frozenset[int],
    inverse: dict[int, Factor] | None = None,
) -> float:
    """E[E[f | keep]^2] for a subset `keep` of the evidential variables.

    Everything outside `keep` is summed out of the function network, which
    leaves P(keep) E[f | keep] in factored form; squaring it (no replicas,
    since every remaining variable is shared) and dividing by P(keep), the
    evidence marginal with the rest of the evidence summed out, contracts
    to the second moment of the conditional mean. `j` is the evidence
    marginal, over the evidential variables only. With independent
    evidence, `inverse` holds the zero-safe reciprocal of each prior P(x_k)
    as a factor over k; P(keep) is then their product over `keep`, and `j`
    is not read. Where P(keep) is zero so is the numerator, and the
    reciprocal's 0 there is exact."""
    squared = square_wrt(marginalize(t, set(t.universe) - keep), keep)
    if inverse is None:
        return contract_all(quotient(squared, marginalize(j, frozenset(j.universe) - keep)))
    divisor = tuple(inverse[k] for k in sorted(keep))
    return contract_all(trusted(TensorNetwork, squared.universe, squared.factors + divisor))


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _second_moments(
    t: TensorNetwork,
    j: TensorNetwork,
    keeps: Sequence[frozenset[int]],
    inverse: dict[int, Factor] | None,
) -> tuple[dict[frozenset[int], float], BaseException | None]:
    """`_conditional_second_moment` of each of `keeps`, and the exception
    of the first query, in the order of `keeps`, that raised one.

    Every query runs to completion. The queries only read `t`, `j` and
    `inverse`, so when `t`'s largest factor has at least
    THREAD_CELLS_PER_VARIABLE cells per variable of `t` they run on the
    calling thread and one helper thread per further CPU, up to one
    thread per query, each taking the next query in turn; the helpers are
    joined before this returns. Each query does the same arithmetic on
    any thread, so the moments do not depend on how many ran."""
    largest = max((f.values.size for f in t.factors), default=0)
    threaded = largest >= THREAD_CELLS_PER_VARIABLE * len(t.universe)
    workers = min(_cpus(), len(keeps)) if threaded else 1
    results: list[float | BaseException | None] = [None] * len(keeps)
    taken = 0
    lock = threading.Lock()

    def work() -> None:
        nonlocal taken
        while True:
            with lock:
                q, taken = taken, taken + 1
            if q >= len(keeps):
                return
            try:
                results[q] = _conditional_second_moment(t, j, keeps[q], inverse)
            except Exception as exc:  # re-raised by the caller, in list order
                results[q] = exc

    helpers = [threading.Thread(target=work) for _ in range(workers - 1)]
    for helper in helpers:
        helper.start()
    try:
        work()
    finally:
        with lock:  # an interrupt on this thread stops the helpers taking more
            taken = len(keeps)
        for helper in helpers:
            helper.join()
    values = {k: r for k, r in zip(keeps, results) if not isinstance(r, BaseException)}
    failure = next((r for r in results if isinstance(r, BaseException)), None)
    return values, failure


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
    moment: Callable[[frozenset[int]], float],
    evidential: frozenset[int],
    mean: float,
    variance: float,
) -> float:
    """Total effect S^T_i = 1 - (E[E[f | E - {i}]^2] - E[f]^2) / Var[f] of
    variable i, where `moment(keep)` is the plan's E[E[f | keep]^2] and E
    is `evidential`."""
    return 1.0 - (moment(evidential - {i}) - mean * mean) / variance


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


def compute_all(
    bn: DiscreteBayesNet,
    spec: AnalysisSpec,
    options: ComputeOptions | None = None,
) -> SobolReport:
    """Compute the requested indices for every evidential variable.

    The closed subsets of `options` are checked before any elimination: an
    empty subset, a repeated variable or a non-evidential one raises
    NotEvidentialError. Builds the probability network over
    An(output | evidence) only: a barren node, an ancestor of neither, has
    a factor that sums to 1 and drops out exactly. The value factor maps
    each output value v to g(v) = (v - E[f]) / (max v - min v), with E[f]
    from P(O) of the one forward pass, so the moments are taken about the
    mean and the indices hold under any affine map of the values and for
    rare events. A value map constant on the labels of nonzero probability
    raises DegenerateOutputError, and so does Var[f] at most
    DEGENERATE_VARIANCE_TOL times Var[g(O)]. The evidence marginal `j` is
    built over An(evidence) alone, where every other node is barren; with
    root evidence it is the evidence's own factors in the probability
    network, and nothing is eliminated for it. Every network built here
    derives from `bn` and skips the constructors' checks (`trusted`).

    The plan (see the module docstring) is chosen as follows. The shared
    elimination is taken first, when the table over the evidence and the
    output (the product of their cardinalities, a Python int) has at most
    SHARED_ELIMINATION_CELLS cells, so that choosing it costs no ordering;
    at that size each bucket's and each ordering's Python set-up outweighs
    its arithmetic, and neither `t` nor the coupled network is ordered.
    Otherwise the coupled plan is taken when totals are asked for, without
    closed subsets, on independent evidence (`j` is a product of one-axis
    factors), and when the cells of its forward and backward passes,
    predicted by its elimination order, are fewer than those of summing
    `t_full` down to `t`, which the per-query plan pays before anything
    else. That order is of the factor scopes of `square_wrt(t_full, ())`
    and the coupling pairs; the couplings are made only when the plan is
    taken, and join that network's `Elimination` as its last factors. Each
    costed order is the one that runs. Otherwise the per-query
    plan is taken. The choice is logged at DEBUG level on the
    `bnsens.sobol` logger with the cells it rests on. The per-query plan
    lists its queries before any index is computed, in the order Var[f],
    each total, each closed group, and runs them all, on threads when `t`
    is large enough (`_second_moments`); if any fails, Var[f] is still
    checked for degeneracy first, and then the first failed query in that
    order raises its exception.

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
    closed = [tuple(sorted(int(v) for v in subset)) for subset in options.closed]
    for ids in closed:
        if not ids or len(set(ids)) < len(ids) or not set(ids) <= spec.evidential:
            raise NotEvidentialError(
                f"closed subset {list(ids)} must be nonempty, without repeats "
                "and evidential"
            )
    started = time.perf_counter()
    values = output_values(bn, spec)
    low, spread = float(values.min()), float(np.ptp(values))
    dag = bn.dag()
    relevant = ancestors(dag, spec.evidential | {spec.output})
    if _log.isEnabledFor(logging.DEBUG):
        _log.debug("pruned barren nodes %s", sorted(set(range(bn.n)) - relevant))
    targets = sorted(spec.evidential) if options.first or options.total else []
    separated, screened = separated_evidence(dag, spec.output, spec.evidential)
    zero_s = separated if options.first else frozenset()
    zero_st = screened if options.total else frozenset()
    queried = [i for i in targets if i not in zero_s] if options.first else []
    for label, zeros in (("S", zero_s), ("ST", zero_st)):
        for i in sorted(zeros):
            _log.debug(
                "%s of %s (id %d) = 0.0 by d-separation from the output",
                label, bn.variables[i].name, i,
            )
    unseparated = [ids for ids in closed if not separated.issuperset(ids)]
    # The indices that are no exact zero: each reads Var[f] and one moment.
    users = len(queried) + len(unseparated)
    if options.total:
        users += len(targets) - len(zero_st)

    # f = E[f | keep] where the rest of the evidence is screened.
    def widened(keep: frozenset[int]) -> frozenset[int]:
        return spec.evidential if screened >= spec.evidential - keep else keep

    mrf = mrf_from_bn(bn, relevant)
    # The evidence marginal needs the factors of An(E) alone, all in `mrf`.
    own = dict(zip(sorted(relevant), mrf.factors))
    ancestral = sorted(ancestors(dag, spec.evidential))
    j = marginalize(
        trusted(TensorNetwork, {k: mrf.universe[k] for k in ancestral},
                tuple(own[k] for k in ancestral)),
        set(ancestral) - spec.evidential,
    )
    # A Python int: a product over many evidential variables overflows int64.
    shared_cells = math.prod(mrf.universe[k] for k in spec.evidential | {spec.output})
    shared = shared_cells <= SHARED_ELIMINATION_CELLS
    if shared:
        _log.debug(
            "shared-elimination plan: table over the evidence and the output "
            "%d cells, at most %d", shared_cells, SHARED_ELIMINATION_CELLS,
        )
    calibrate = bool(queried) and len(spec.evidential) > 1 and not shared
    # The one forward pass, up to O's bucket: its table is collapse(mrf, kept).
    kept = spec.evidential | {spec.output} if shared else {spec.output}
    forward = network.Elimination(mrf, records=calibrate)
    forward.run(network._order(forward.scopes, mrf.universe, kept))
    axes, table = forward.table()
    p_out = table.sum(axis=tuple(a for a, k in enumerate(axes) if k != spec.output))
    if np.ptp(values[p_out != 0]) == 0:
        raise DegenerateOutputError(
            "the value map is constant on the output's possible labels; "
            "indices undefined"
        )
    unit = (values - low) / spread
    centre = float(unit @ p_out)
    g = unit - centre
    value_factor = trusted(Factor, (spec.output,), g)

    # Each plan gives E[f] and moment(keep) = E[E[f | keep]^2], which every
    # index reads. Each index is charged an equal share of the time of the
    # calibration or the tables it came from. The function network has mean
    # zero up to rounding; taking that residual out as well drops the
    # constant offset that the rounding of `centre` leaves in g.
    s_share = st_share = 0.0
    failure = None  # the per-query plan's first failed query, raised after the Var[f] check
    if shared:
        t0 = time.perf_counter()
        # g joins O's bucket, which leaves T. Every evidential variable is an
        # axis of T and of j, so each table is over the sorted evidence.
        forward.run((spec.output,), value_factor)
        evidence = sorted(spec.evidential)
        tables = [forward.table()[1], network.Elimination(j).table()[1]]

        def moment(keep: frozenset[int]) -> float:
            axes = tuple(a for a, k in enumerate(evidence) if k not in keep)
            t_keep, j_keep = (table.sum(axis=axes) for table in tables)
            return float(np.vdot(t_keep, t_keep * reciprocal(j_keep)))

        mean = float(tables[0].sum())
        s_share = st_share = (time.perf_counter() - t0) / max(users, 1)
    else:
        t_full = trusted(TensorNetwork, mrf.universe, (*mrf.factors, value_factor))
        priors = _priors(j)
        moments: dict[frozenset[int], float] = {}
        if calibrate:
            # g joins O's bucket, and the backward pass gives E[f] and each
            # t_i = P(i) E[f | i]; E[E[f | i]^2] is the sum of t_i^2 / j_i,
            # and a zero cell of j_i, where t_i is zero too, adds 0.
            t0 = time.perf_counter()
            forward.run((spec.output,), value_factor)
            t_marginals = marginals(forward, of=[*queried, spec.output])
            j_marginals = marginals(j, of=queried) if priors is None else priors
            for i in queried:
                t_i = t_marginals[i]
                moments[frozenset({i})] = float(t_i @ (t_i * reciprocal(j_marginals[i])))
            mean = float(t_marginals[spec.output].sum())
            s_share = (time.perf_counter() - t0) / len(queried)
        else:
            mean = float(g @ p_out)  # the contraction of t_full

        # Orderings go through bnsens.network's name, where the benchmark counts them.
        t_order = network.min_weight_order(
            [f.axes for f in t_full.factors], t_full.universe, keep=spec.evidential
        )
        couplings = None
        if priors is not None and options.total and not closed:
            squared = square_wrt(t_full, ())
            stride = max(t_full.universe) + 1  # square_wrt's replica of v is v + stride
            pairs = [(k, k + stride) for k in priors]
            coupled_order = network.min_weight_order(
                [*(f.axes for f in squared.factors), *pairs], squared.universe
            )
            # a forward pass, and a backward pass over about as many cells
            coupled_cells = 2 * sum(coupled_order.cells)
            reduce_cells = sum(t_order.cells)
            _log.debug(
                "%s: coupled calibration %d cells, building t %d cells",
                "coupled plan" if coupled_cells < reduce_cells else "coupled plan declined",
                coupled_cells, reduce_cells,
            )
            if coupled_cells < reduce_cells:
                diagonals = [np.diag(reciprocal(p)) for p in priors.values()]
                couplings = [trusted(Factor, *c) for c in zip(pairs, diagonals)]
        if couplings is None:
            _log.debug(
                "per-query plan: table over the evidence and the output %d cells, "
                "above %d; building t %d cells",
                shared_cells, SHARED_ELIMINATION_CELLS, sum(t_order.cells),
            )
            t = marginalize(t_full, t_order)
            # With independent evidence every query divides by the priors,
            # whose reciprocals are taken once here.
            inverse = None if priors is None else {
                k: trusted(Factor, (k,), reciprocal(p)) for k, p in priors.items()
            }
            # Every moment an index reads that no calibration gave, once:
            # Var[f]'s, each total's and each closed group's. An S_i reads a
            # calibrated moment or, with one evidential variable, Var[f]'s.
            keeps = [spec.evidential]
            if options.total:
                keeps += [spec.evidential - {i} for i in targets if i not in zero_st]
            keeps += [widened(frozenset(ids)) for ids in unseparated]
            t0 = time.perf_counter()
            values, failure = _second_moments(
                t, j, [k for k in dict.fromkeys(keeps) if k not in moments], inverse
            )
            if spec.evidential not in values:
                raise failure  # Var[f]'s query, the first, failed
            moments.update(values)
            # Every index reads Var[f], so each shares the queries' wall time.
            st_share = (time.perf_counter() - t0) / max(users, 1)
            s_share += st_share

        else:
            t0 = time.perf_counter()
            start = len(squared.factors)
            coupled = network.Elimination(squared).run(coupled_order, *couplings)
            outside = marginals(coupled, outside_of=range(start, start + len(priors)))
            for p, k in enumerate(priors, start):
                moments[spec.evidential - {k}] = float(outside[p].sum())
            moments[spec.evidential] = float(np.sum(outside[start] * diagonals[0]))
            st_share = (time.perf_counter() - t0) / max(len(set(targets) - zero_st), 1)
        moment = moments.__getitem__

    variance = moment(spec.evidential) - mean * mean
    if not variance > DEGENERATE_VARIANCE_TOL * float(p_out @ (g * g)):
        raise DegenerateOutputError(f"output variance {variance!r} is numerically zero")
    if failure is not None:
        raise failure

    def read(keep: frozenset[int]) -> float:
        return moment(widened(keep))

    entries = []
    for i in targets:
        s = s_time = st = st_time = None
        if options.first:
            t0 = time.perf_counter()
            s = 0.0 if i in zero_s else variance_component(i, read, mean, variance)
            s_time = time.perf_counter() - t0 + (0.0 if i in zero_s else s_share)
        if options.total:
            t0 = time.perf_counter()
            st = 0.0 if i in zero_st else total_index(i, moment, spec.evidential, mean, variance)
            st_time = time.perf_counter() - t0 + (0.0 if i in zero_st else st_share)
        entries.append(IndexEntry((i,), bn.variables[i].name, s, s_time, st, st_time))

    for ids in closed:
        name = "+".join(bn.variables[v].name for v in ids)
        t0 = time.perf_counter()
        if separated.issuperset(ids):
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
                    stacklevel=2,
                )
    return SobolReport(
        low + spread * (centre + mean),
        spread * spread * variance,
        tuple(entries),
        time.perf_counter() - started,
    )


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
    if isinstance(parents, (set, frozenset)):
        parent_ids = tuple(sorted(int(p) for p in parents))
    else:
        parent_ids = tuple(int(p) for p in parents)
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
