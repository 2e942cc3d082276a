"""Variance-based sensitivity indices for discrete Bayesian networks.

For the function of interest f(evidence) = E[mapped output | evidence], the
variance component S_i = Var_i[E_{~i}[f]] / Var[f] measures the additive
effect of evidential variable i, and the total index
S^T_i = E_{~i}[Var_i[f]] / Var[f] = 1 - Var_{~i}[E_i[f]] / Var[f] its
overall effect including interactions; the closed index of a group of
evidential variables is the group's variance component. `compute_all`
computes them all without tabulating f. Each total and closed index, and
Var[f], is one conditional-moment query E[E[f | keep]^2] over a squared
and quotient network. The first-order indices need only one-variable
marginals, and one calibration of the function network and one of the
evidence marginal give them for every variable at once.
"""

from __future__ import annotations

import itertools
import logging
import time
import warnings
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import DegenerateOutputError, NotEvidentialError, PartialFunctionError
from .graph import ancestors, d_separated
from .model import (
    AnalysisSpec,
    Cpt,
    DiscreteBayesNet,
    Variable,
    output_values,
    validate_partition,
)
from .network import (
    TensorNetwork,
    collapse,
    contract_all,
    function_tn,
    marginalize,
    marginals,
    mrf_from_bn,
    quotient,
    reciprocal,
    square_wrt,
)

# Var[f] at most this share of Var[g(O)], the variance of the centred map g
# of `compute_all`, means f is constant and every index undefined: each
# E[g(O) | e] is off by about n*eps*E[|g(O)| | e], so the rounding noise in
# Var[f] is about (n*eps)^2 * Var[g(O)]. A rare evidential event can explain
# a far smaller share than n*eps and still be the whole of Var[f].
DEGENERATE_VARIANCE_TOL = 1e-24
NEGATIVE_INDEX_WARNING = 1e-6

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class IndexEntry:
    """Sensitivity results for one evidential variable or variable group.

    `s_time` and `st_time` are the seconds spent on `s` and `st`. The
    first-order indices share one calibration, and each one computed from
    it is charged an equal share of its time plus its own arithmetic, so
    the times still add up to the work done."""

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
    reported after them. `workers` is accepted and ignored: the queries
    run one after another, since spreading them over threads never paid
    on the benchmark workloads, and the field stays only while the
    benchmark harness (`bench/run.py`) still passes it."""

    first: bool = True
    total: bool = True
    closed: tuple[tuple[int, ...], ...] = ()
    workers: int = 1


def _conditional_second_moment(
    t: TensorNetwork, j: TensorNetwork, keep: frozenset[int]
) -> float:
    """E[E[f | keep]^2] for a subset `keep` of the evidential variables.

    Everything outside `keep` is summed out of the function network, which
    leaves P(keep) E[f | keep] in factored form; squaring it (no replicas,
    since every remaining variable is shared) and dividing by P(keep), the
    evidence marginal with the rest of the evidence summed out, contracts
    to the second moment of the conditional mean. `j` is the evidence
    marginal, over the evidential variables only. Where P(keep) is zero so
    is the numerator, and `quotient`'s 0 there is exact."""
    numerator = marginalize(t, set(t.universe) - keep)
    divisor = marginalize(j, frozenset(j.universe) - keep)
    return contract_all(quotient(square_wrt(numerator, keep), divisor))


# Module-level so that bench/spans.py and the tests can hook each query.
def variance_component(
    i: int, t_i: np.ndarray, j_i: np.ndarray, mean: float, variance: float
) -> float:
    """First-order effect S_i = (E[E[f | i]^2] - E[f]^2) / Var[f] of
    variable i, from the marginals t_i = P(i) E[f | i] and j_i = P(i) of
    the function network and the evidence marginal on i: E[E[f | i]^2] is
    the sum of t_i^2 / j_i, and a zero cell of j_i, where t_i is zero too,
    adds 0. `i` names the variable for the hooks; the value does not
    depend on it."""
    return (float(t_i @ (t_i * reciprocal(j_i))) - mean * mean) / variance


def total_index(
    i: int, t: TensorNetwork, j: TensorNetwork, mean: float, variance: float
) -> float:
    """Total effect S^T_i = 1 - (E[E[f | E - {i}]^2] - E[f]^2) / Var[f]."""
    rest = frozenset(j.universe) - {i}
    return 1.0 - (_conditional_second_moment(t, j, rest) - mean * mean) / variance


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
    a factor that sums to 1 and drops out exactly. The function network
    maps each output value v to g(v) = (v - E[f]) / (max v - min v), with
    E[f] from the output marginal, so the moments are taken about the mean
    and the indices hold under any affine map of the values and for rare
    events. A value map constant on the labels of nonzero probability
    raises DegenerateOutputError, and so does Var[f] at most
    DEGENERATE_VARIANCE_TOL times Var[g(O)]. Both networks have the
    non-evidential variables summed out, so no query squares a chance
    variable. Var[f] and each total and closed index
    are one conditional-moment query over the two small networks. Every
    first-order index comes from the one-variable marginals of both, which
    one calibration of each yields for all variables (`marginals`); with a
    single evidential variable, E[f | i] is f and S_i is 1.0 without one.
    The evidence marginal is built over An(evidence) alone, where every
    other node is barren; with root evidence nothing is eliminated to build
    it. Some indices need no query and are exact zeros: S_i when i is
    d-separated from the output, since E[f | i] is then constant, and S^T_i
    when the rest of the evidence d-separates i from the output, since f is
    then flat along i. Entries are ordered by variable id, with the closed
    subsets last; with neither `first` nor `total` requested there are no
    per-variable entries."""
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
    _log.debug("pruned barren nodes %s", sorted(set(range(bn.n)) - relevant))
    targets = sorted(spec.evidential) if options.first or options.total else []
    zero_s = zero_st = frozenset()
    if options.first:
        zero_s = frozenset(i for i in targets if d_separated(dag, i, spec.output))
    if options.total:
        zero_st = frozenset(
            i for i in targets
            if d_separated(dag, i, spec.output, spec.evidential - {i})
        )
    for label, zeros in (("S", zero_s), ("ST", zero_st)):
        for i in sorted(zeros):
            _log.debug(
                "%s of %s (id %d) = 0.0 by d-separation from the output",
                label, bn.variables[i].name, i,
            )

    mrf = mrf_from_bn(bn, relevant)
    p_out = collapse(mrf, {spec.output}).values
    if np.ptp(values[p_out != 0]) == 0:
        raise DegenerateOutputError(
            "the value map is constant on the output's possible labels; "
            "indices undefined"
        )
    unit = (values - low) / spread
    centre = float(unit @ p_out)
    g = unit - centre
    chance = set(mrf.universe) - spec.evidential
    t_full = function_tn(mrf, spec.output, g)
    t = marginalize(t_full, chance)
    evidence_mrf = mrf_from_bn(bn, ancestors(dag, spec.evidential))
    j = marginalize(evidence_mrf, set(evidence_mrf.universe) - spec.evidential)
    # t has mean zero up to rounding; taking that residual out as well drops
    # the constant offset that the rounding of `centre` leaves in g.
    mean = contract_all(t)
    variance = _conditional_second_moment(t, j, spec.evidential) - mean * mean
    if not variance > DEGENERATE_VARIANCE_TOL * float(p_out @ (g * g)):
        raise DegenerateOutputError(f"output variance {variance!r} is numerically zero")

    # Every first-order query needs only the one-variable marginals of t
    # and j, so one calibration of each serves them all, and each S_i is
    # charged an equal share of it. With one evidential variable, E[f | i]
    # is f itself and S_i is the variance query over itself, 1.0 exactly.
    queried = [i for i in targets if i not in zero_s] if options.first else []
    calibration_share = 0.0
    if queried and len(spec.evidential) > 1:
        t0 = time.perf_counter()
        t_marginals, j_marginals = marginals(t), marginals(j)
        calibration_share = (time.perf_counter() - t0) / len(queried)

    entries = []
    for i in targets:
        s = s_time = st = st_time = None
        if options.first:
            t0 = time.perf_counter()
            if i in zero_s:
                s = 0.0
            elif len(spec.evidential) == 1:
                s = 1.0
            else:
                s = variance_component(i, t_marginals[i], j_marginals[i], mean, variance)
            s_time = time.perf_counter() - t0
            if i not in zero_s:
                s_time += calibration_share
        if options.total:
            t0 = time.perf_counter()
            st = 0.0 if i in zero_st else total_index(i, t, j, mean, variance)
            st_time = time.perf_counter() - t0
        entries.append(IndexEntry((i,), bn.variables[i].name, s, s_time, st, st_time))

    for ids in closed:
        t0 = time.perf_counter()
        moment = _conditional_second_moment(t, j, frozenset(ids))
        value = (moment - mean * mean) / variance
        elapsed = time.perf_counter() - t0
        name = "+".join(bn.variables[v].name for v in ids)
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
