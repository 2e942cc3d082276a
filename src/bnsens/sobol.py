"""Variance-based sensitivity indices for discrete Bayesian networks.

For the function of interest f(evidence) = E[mapped output | evidence], the
variance component S_i = Var_i[E_{~i}[f]] / Var[f] measures the additive
effect of evidential variable i, and the total index
S^T_i = E_{~i}[Var_i[f]] / Var[f] = 1 - Var_{~i}[E_i[f]] / Var[f] its
overall effect including interactions. Every required moment is one
conditional-moment query E[E[f | keep]^2] over a squared and quotient
network, so f itself is never tabulated.
"""

from __future__ import annotations

import itertools
import logging
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
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
    marginalize,
    mrf_from_bn,
    quotient,
    square_wrt,
)
from .tensor import Factor

# Var[f] at most this share of a scale that bounds its rounding noise means
# f is constant and every index undefined. The scale is E[E[f | E]^2] for a
# raw value map; for the centred map of `compute_all` it is Var[v(O)], since
# each E[v(O) | e] is off by about n*eps*E[|v(O) - E[f]| | e].
DEGENERATE_VARIANCE_TOL = 1e-12
NEGATIVE_INDEX_WARNING = 1e-6

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class IndexEntry:
    """Sensitivity results for one evidential variable or variable group."""

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
    first: bool = True
    total: bool = True
    closed: tuple[tuple[int, ...], ...] = ()
    workers: int = 1


def _evidential_set(j: TensorNetwork) -> frozenset[int]:
    # The evidence marginal lives exactly on the evidential variables.
    return frozenset(j.universe)


def _conditional_second_moment(
    t: TensorNetwork, j: TensorNetwork, keep: frozenset[int]
) -> float:
    """E[E[f | keep]^2] for a subset `keep` of the evidential variables.

    Everything outside `keep` is summed out of the function network, which
    leaves P(keep) E[f | keep] in factored form; squaring it (no replicas,
    since every remaining variable is shared) and dividing by P(keep), the
    evidence marginal with the rest of the evidence summed out, contracts
    to the second moment of the conditional mean."""
    numerator = marginalize(t, set(t.universe) - keep)
    divisor = marginalize(j, _evidential_set(j) - keep)
    return contract_all(quotient(square_wrt(numerator, keep), divisor))


def _nondegenerate(variance: float, scale: float) -> float:
    """`variance`; at most DEGENERATE_VARIANCE_TOL times `scale` raises."""
    if not variance > DEGENERATE_VARIANCE_TOL * scale:
        raise DegenerateOutputError(f"output variance {variance!r} is numerically zero")
    return variance


def global_variance(
    t: TensorNetwork,
    j: TensorNetwork,
    *,
    mean: float | None = None,
) -> float:
    """Var[f] = E[E[f | E]^2] - E[f]^2, with E all evidential variables.

    The second moment is the conditional-moment query with every evidential
    variable kept. `t` may range over the whole network or be already
    reduced to the evidential variables. A variance at most
    DEGENERATE_VARIANCE_TOL times that second moment raises."""
    if mean is None:
        mean = contract_all(t)
    second_moment = _conditional_second_moment(t, j, _evidential_set(j))
    return _nondegenerate(second_moment - mean * mean, second_moment)


def _checked_variance(
    t: TensorNetwork, j: TensorNetwork, mean: float | None, variance: float | None
) -> tuple[float, float]:
    """The mean and variance, computed where the caller passed none; a
    variance that is not positive raises, since every index divides by it."""
    if mean is None:
        mean = contract_all(t)
    if variance is None:
        variance = global_variance(t, j, mean=mean)
    return mean, _nondegenerate(variance, 0.0)


def closed_index(
    subset: Iterable[int],
    t: TensorNetwork,
    j: TensorNetwork,
    *,
    mean: float | None = None,
    variance: float | None = None,
) -> float:
    """Closed (grouped) variance component Var_subset[E_{rest}[f]] / Var[f].

    The numerator is E[E[f | subset]^2] - E[f]^2, the conditional-moment
    query with the subset kept."""
    e_set = _evidential_set(j)
    ids = frozenset(int(v) for v in subset)
    if not ids:
        raise NotEvidentialError("the variable subset is empty")
    if not ids <= e_set:
        raise NotEvidentialError(f"variables {sorted(ids - e_set)} are not evidential")
    mean, variance = _checked_variance(t, j, mean, variance)
    return (_conditional_second_moment(t, j, ids) - mean * mean) / variance


def variance_component(
    i: int,
    t: TensorNetwork,
    j: TensorNetwork,
    *,
    mean: float | None = None,
    variance: float | None = None,
) -> float:
    """First-order effect S_i; the singleton case of `closed_index`."""
    return closed_index((int(i),), t, j, mean=mean, variance=variance)


def total_index(
    i: int,
    t: TensorNetwork,
    j: TensorNetwork,
    *,
    mean: float | None = None,
    variance: float | None = None,
) -> float:
    """Total effect S^T_i = 1 - Var_{~i}[E_i[f]] / Var[f].

    Var_{~i}[E_i[f]] is E[E[f | E - {i}]^2] - E[f]^2, the conditional-moment
    query with every evidential variable but i kept."""
    var_id = int(i)
    e_set = _evidential_set(j)
    if var_id not in e_set:
        raise NotEvidentialError(f"variable {var_id} is not evidential")
    mean, variance = _checked_variance(t, j, mean, variance)
    second_moment = _conditional_second_moment(t, j, e_set - {var_id})
    return 1.0 - (second_moment - mean * mean) / variance


def compute_all(
    bn: DiscreteBayesNet,
    spec: AnalysisSpec,
    options: ComputeOptions | None = None,
) -> SobolReport:
    """Compute the requested indices for every evidential variable.

    Builds the probability network over An(output | evidence) only: a
    barren node, an ancestor of neither, has a factor that sums to 1 and
    drops out exactly. The function network maps each output value v to
    (v - E[f]) / (max v - min v), with E[f] from the output marginal, so
    the moments are taken about the mean and the indices hold under any
    affine map of the values and for rare events; Var[f] at most
    DEGENERATE_VARIANCE_TOL times Var[v(O)] raises. Both networks have the
    non-evidential variables summed out, so every index is one
    conditional-moment query over two small networks and no query squares
    a chance variable. Some indices need no query and are exact zeros: S_i
    when i is d-separated from the output, since E[f | i] is then constant,
    and S^T_i when the rest of the evidence d-separates i from the output,
    since f is then flat along i. Per-variable work is independent;
    `options.workers` > 1 runs it in a thread pool. Entries are ordered by
    variable id regardless."""
    options = options or ComputeOptions()
    validate_partition(bn, spec)
    started = time.perf_counter()
    values = output_values(bn, spec)
    low, spread = float(values.min()), float(np.ptp(values))
    if spread == 0.0:
        raise DegenerateOutputError("the value map is constant; indices undefined")
    dag = bn.dag()
    relevant = ancestors(dag, spec.evidential | {spec.output})
    _log.debug("pruned barren nodes %s", sorted(set(range(bn.n)) - relevant))
    targets = sorted(spec.evidential)
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
    unit = (values - low) / spread
    centre = float(unit @ p_out)
    g = unit - centre
    chance = set(mrf.universe) - spec.evidential
    t_full = TensorNetwork(mrf.universe, (*mrf.factors, Factor((spec.output,), g)))
    t = marginalize(t_full, chance)
    j = marginalize(mrf, chance)
    # t has mean zero up to rounding; taking that residual out as well drops
    # the constant offset that the rounding of `centre` leaves in g.
    mean = contract_all(t)
    second_moment = _conditional_second_moment(t, j, spec.evidential)
    variance = _nondegenerate(second_moment - mean * mean, float(p_out @ (g * g)))

    def one_variable(i: int) -> IndexEntry:
        s = s_time = st = st_time = None
        if options.first:
            t0 = time.perf_counter()
            s = 0.0 if i in zero_s else variance_component(
                i, t, j, mean=mean, variance=variance
            )
            s_time = time.perf_counter() - t0
        if options.total:
            t0 = time.perf_counter()
            st = 0.0 if i in zero_st else total_index(
                i, t, j, mean=mean, variance=variance
            )
            st_time = time.perf_counter() - t0
        return IndexEntry((i,), bn.variables[i].name, s, s_time, st, st_time)

    if options.workers > 1:
        with ThreadPoolExecutor(max_workers=options.workers) as pool:
            entries = list(pool.map(one_variable, targets))
    else:
        entries = [one_variable(i) for i in targets]

    for subset in options.closed:
        ids = tuple(sorted(int(v) for v in subset))
        t0 = time.perf_counter()
        value = closed_index(ids, t, j, mean=mean, variance=variance)
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
