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
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import DegenerateOutputError, NotEvidentialError, PartialFunctionError
from .model import (
    AnalysisSpec,
    Cpt,
    DiscreteBayesNet,
    Variable,
    validate_network,
    validate_partition,
)
from .network import (
    TensorNetwork,
    collapse,  # unused here; bench/spans.py hooks it by name in this module
    contract_all,
    function_tn,
    marginalize,
    mrf_from_bn,
    quotient,
    square_wrt,
)

DEGENERATE_VARIANCE_TOL = 1e-12
NEGATIVE_VARIANCE_TOL = 1e-9
NEGATIVE_INDEX_WARNING = 1e-6


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


def expected_value(t: TensorNetwork) -> float:
    """E[f]: the full contraction of the function network."""
    return contract_all(t)


def global_variance(
    t: TensorNetwork,
    j: TensorNetwork,
    *,
    mean: float | None = None,
    check: bool = True,
) -> float:
    """Var[f] = E[E[f | E]^2] - E[f]^2, with E all evidential variables.

    The second moment is the conditional-moment query with every evidential
    variable kept. `t` may range over the whole network or be already
    reduced to the evidential variables. Tiny negative results clamp to
    zero; with `check` the degenerate case (variance at numerical zero)
    raises, because every downstream index would be undefined."""
    if mean is None:
        mean = contract_all(t)
    variance = _conditional_second_moment(t, j, _evidential_set(j)) - mean * mean
    if -NEGATIVE_VARIANCE_TOL <= variance < 0.0:
        variance = 0.0
    if check and variance <= DEGENERATE_VARIANCE_TOL:
        raise DegenerateOutputError(
            f"output variance {variance!r} is numerically zero; indices undefined"
        )
    return variance


def _checked_variance(
    t: TensorNetwork, j: TensorNetwork, mean: float | None, variance: float | None
) -> tuple[float, float]:
    """The mean and variance, computed where the caller passed none; a
    variance at numerical zero raises, since every index divides by it."""
    if mean is None:
        mean = contract_all(t)
    if variance is None:
        variance = global_variance(t, j, mean=mean)
    if variance <= DEGENERATE_VARIANCE_TOL:
        raise DegenerateOutputError("output variance is numerically zero")
    return mean, variance


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

    Builds the probability network once and sums the non-evidential
    variables out of both the function network and the probability network
    (the evidence marginal). Every index is then one conditional-moment
    query over these two small networks, so no query squares a chance
    variable. Per-variable work is independent; `options.workers` > 1 runs
    it in a thread pool. Entries are ordered by variable id regardless."""
    options = options or ComputeOptions()
    validate_network(bn)
    validate_partition(bn, spec)
    started = time.perf_counter()
    mrf = mrf_from_bn(bn)
    chance = set(mrf.universe) - spec.evidential
    t = marginalize(function_tn(mrf, spec, bn), chance)
    j = marginalize(mrf, chance)
    mean = contract_all(t)
    variance = global_variance(t, j, mean=mean)

    def one_variable(i: int) -> IndexEntry:
        s = s_time = st = st_time = None
        if options.first:
            t0 = time.perf_counter()
            s = variance_component(i, t, j, mean=mean, variance=variance)
            s_time = time.perf_counter() - t0
        if options.total:
            t0 = time.perf_counter()
            st = total_index(i, t, j, mean=mean, variance=variance)
            st_time = time.perf_counter() - t0
        return IndexEntry((i,), bn.variables[i].name, s, s_time, st, st_time)

    targets = sorted(spec.evidential)
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
        mean, variance, tuple(entries), time.perf_counter() - started
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
    nodes into a single output variable."""
    if isinstance(parents, (set, frozenset)):
        parent_ids = tuple(sorted(int(p) for p in parents))
    else:
        parent_ids = tuple(int(p) for p in parents)
    for p in parent_ids:
        if not 0 <= p < bn.n:
            raise ValueError(f"parent id {p} out of range")
    if len(set(parent_ids)) != len(parent_ids):
        raise ValueError("parent ids must be unique")
    domain = tuple(str(label) for label in out_domain)
    if len(set(domain)) != len(domain) or len(domain) < 2:
        raise ValueError("output domain needs at least two distinct labels")
    taken = {v.name for v in bn.variables}
    if name is None:
        name = "O"
        k = 0
        while name in taken:
            k += 1
            name = f"O{k}"
    elif name in taken:
        raise ValueError(f"variable name {name!r} already in use")
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
