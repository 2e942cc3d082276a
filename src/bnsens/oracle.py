"""Brute-force reference implementations used to validate the pipeline.

Everything here works on the dense joint table: direct evaluation of the
factorized joint at every cell, conditional expectations by summation, and
indices from the exact conditional weights. Deliberately no factors and no
variable elimination are used, so these results are an independent check of
the contraction engine rather than a restatement of it. A pick-freeze
sampling estimator is included as a statistical sanity cross-check for the
independent-inputs case.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateOutputError,
    DependentInputsError,
    StateSpaceTooLargeError,
)
from .model import AnalysisSpec, DiscreteBayesNet, output_values, validate_partition
from .sobol import IndexEntry, SobolReport

DEFAULT_CELL_CAP = 10_000_000
# Var[f] at or below this share of the output's own variance is rounding
# noise in the tabulated f: the output is constant and every index undefined.
# The noise is quadratic in eps, the same floor as bnsens.sobol's.
DEGENERATE_SHARE = 1e-24


@dataclass(frozen=True, eq=False)
class JointTable:
    """Dense joint distribution, axes in variable-id order."""

    variables: tuple[int, ...]
    probabilities: np.ndarray


@dataclass(frozen=True, eq=False)
class FunctionTable:
    """Evidence marginal and conditional output expectation, tabulated over
    the (ascending) evidential variables."""

    evidential: tuple[int, ...]
    probabilities: np.ndarray
    values: np.ndarray
    zero_probability: np.ndarray


def _axis_range(axis: int, cards: tuple[int, ...]) -> np.ndarray:
    shape = [1] * len(cards)
    shape[axis] = cards[axis]
    return np.arange(cards[axis]).reshape(shape)


def enumerate_joint(
    bn: DiscreteBayesNet, max_cells: int = DEFAULT_CELL_CAP
) -> JointTable:
    """The factorized joint probability evaluated at every full assignment."""
    cards = tuple(v.cardinality for v in bn.variables)
    cells = 1
    for c in cards:
        cells *= c
    if cells > max_cells:
        raise StateSpaceTooLargeError(
            f"joint has {cells} cells, above the cap of {max_cells}"
        )
    n = len(cards)
    joint = np.ones(cards)
    for v in bn.variables:
        cpt = bn.cpts[v.id]
        row = np.zeros((1,) * n, dtype=np.int64)
        for p in cpt.parents:
            row = row * bn.variables[p].cardinality + _axis_range(p, cards)
        joint = joint * cpt.table[row, _axis_range(v.id, cards)]
    return JointTable(tuple(range(n)), joint)


def brute_force_f(
    bn: DiscreteBayesNet, spec: AnalysisSpec, max_cells: int = DEFAULT_CELL_CAP
) -> FunctionTable:
    """Tabulate Pr(evidence) and f(evidence) = E[mapped output | evidence]
    by direct summation over the joint; f is 0 (and flagged) wherever the
    evidence has probability zero."""
    ft, mean, spread, _ = _centred(bn, spec, max_cells)
    f = np.where(ft.zero_probability, 0.0, mean + spread * ft.values)
    return FunctionTable(ft.evidential, ft.probabilities, f, ft.zero_probability)


def _centred(
    bn: DiscreteBayesNet, spec: AnalysisSpec, max_cells: int
) -> tuple[FunctionTable, float, float, float]:
    """`brute_force_f` for the value map v rescaled to g = (v - E[f]) /
    spread, spread = max v - min v (1 for a constant map), with E[f] from
    the output marginal; then E[f] and spread, which undo that, and
    Var[g(O)], which bounds the rounding noise in the table. Var[g(O)] is
    exactly 0 when v is constant on the labels of nonzero probability,
    where summing it would leave rounding noise instead."""
    validate_partition(bn, spec)
    joint = enumerate_joint(bn, max_cells).probabilities
    values = output_values(bn, spec)
    low, spread = float(values.min()), float(np.ptp(values)) or 1.0
    p_out = joint.sum(axis=tuple(a for a in range(bn.n) if a != spec.output))
    unit = (values - low) / spread
    g = unit - unit @ p_out
    drop = tuple(a for a in range(bn.n) if a not in spec.evidential)
    pr = joint.sum(axis=drop)
    broadcast = [1] * bn.n
    broadcast[spec.output] = len(g)
    weighted = (joint * g.reshape(broadcast)).sum(axis=drop)
    zero = pr == 0.0
    table = np.divide(weighted, pr, out=np.zeros_like(weighted), where=~zero)
    ft = FunctionTable(tuple(sorted(spec.evidential)), pr, table, zero)
    output_variance = float(p_out @ (g * g)) if np.ptp(values[p_out != 0]) else 0.0
    return ft, low + spread * float(unit @ p_out), spread, output_variance


def _nondegenerate(variance: float, output_variance: float) -> float:
    """`variance` of the rescaled f; a zero Var[g(O)] or a noise-level
    share of it raises."""
    if output_variance == 0.0:
        raise DegenerateOutputError(
            "the value map is constant on the output's possible labels; "
            "indices undefined"
        )
    if not variance > DEGENERATE_SHARE * output_variance:
        raise DegenerateOutputError(f"output variance {variance!r} is numerically zero")
    return variance


def _closed_moment(pr: np.ndarray, g: np.ndarray, rest: tuple[int, ...]) -> float:
    """E[E[g | kept]^2], with the axes in `rest` summed out and the others
    kept; cells of zero probability contribute nothing."""
    p_kept = pr.sum(axis=rest)
    weighted = (pr * g).sum(axis=rest)
    cond_mean = np.divide(weighted, p_kept, out=np.zeros_like(weighted), where=p_kept > 0)
    return float((p_kept * cond_mean**2).sum())


def brute_force_indices(
    bn: DiscreteBayesNet, spec: AnalysisSpec, max_cells: int = DEFAULT_CELL_CAP
) -> SobolReport:
    """Exact indices by direct summation over f minus its mean.

    S_i uses the conditional weights Pr(rest | y_i) inside the mean and the
    marginal Pr(y_i) outside; the total index is the expected squared
    deviation of f from its mean given the rest, under Pr(y_i | rest). Both
    therefore stay exact under dependent evidential variables."""
    started = time.perf_counter()
    ft, mean, spread, output_variance = _centred(bn, spec, max_cells)
    pr, g = ft.probabilities, ft.values
    residual = float((pr * g).sum())
    variance = _nondegenerate(_closed_moment(pr, g, ()) - residual**2, output_variance)
    entries = []
    k = len(ft.evidential)
    for pos, var_id in enumerate(ft.evidential):
        t0 = time.perf_counter()
        rest = tuple(a for a in range(k) if a != pos)
        s = (_closed_moment(pr, g, rest) - residual**2) / variance
        s_time = time.perf_counter() - t0

        t0 = time.perf_counter()
        p_rest = pr.sum(axis=pos, keepdims=True)
        weighted = (pr * g).sum(axis=pos, keepdims=True)
        cond = np.divide(weighted, p_rest, out=np.zeros_like(p_rest), where=p_rest > 0)
        st = float((pr * (g - cond) ** 2).sum() / variance)
        st_time = time.perf_counter() - t0
        entries.append(
            IndexEntry((var_id,), bn.variables[var_id].name, s, s_time, st, st_time)
        )
    return SobolReport(
        mean + spread * residual,
        spread * spread * variance,
        tuple(entries),
        time.perf_counter() - started,
    )


def brute_force_closed(
    bn: DiscreteBayesNet,
    spec: AnalysisSpec,
    subset,
    max_cells: int = DEFAULT_CELL_CAP,
) -> float:
    """Closed index of a variable group by direct summation."""
    ft, _, _, output_variance = _centred(bn, spec, max_cells)
    pr, g = ft.probabilities, ft.values
    residual = float((pr * g).sum())
    variance = _nondegenerate(_closed_moment(pr, g, ()) - residual**2, output_variance)
    ids = frozenset(int(v) for v in subset)
    rest = tuple(pos for pos, v in enumerate(ft.evidential) if v not in ids)
    return (_closed_moment(pr, g, rest) - residual**2) / variance


@dataclass(frozen=True)
class McIndexEstimate:
    variable: int
    name: str
    s: float
    s_se: float
    st: float
    st_se: float


@dataclass(frozen=True)
class McReport:
    expected_value: float
    variance: float
    estimates: tuple[McIndexEstimate, ...]
    samples: int
    seed: int


def mc_indices(
    bn: DiscreteBayesNet,
    spec: AnalysisSpec,
    samples: int,
    seed: int,
    max_cells: int = DEFAULT_CELL_CAP,
) -> McReport:
    """Pick-freeze sampling estimates with standard errors.

    Valid only when every evidential node is a parentless root (independent
    inputs); dependent inputs are rejected because the standard estimators
    are biased there. f is looked up in the exact enumerated table, so the
    joint must fit under the cell cap."""
    validate_partition(bn, spec)
    dependent = [i for i in sorted(spec.evidential) if bn.cpts[i].parents]
    if dependent:
        names = [bn.variables[i].name for i in dependent]
        raise DependentInputsError(
            f"evidential nodes {names} have parents; pick-freeze needs "
            "independent root inputs"
        )
    # Pick-freeze on the rescaled f, whose exact mean is zero, so a shift of
    # the output values adds no sampling noise.
    ft, mean, spread, output_variance = _centred(bn, spec, max_cells)
    g = ft.values
    rng = np.random.default_rng(int(seed))
    marginals = [bn.cpts[i].table[0] for i in ft.evidential]
    a = np.stack(
        [rng.choice(len(p), size=samples, p=p) for p in marginals], axis=1
    )
    b = np.stack(
        [rng.choice(len(p), size=samples, p=p) for p in marginals], axis=1
    )
    g_a = g[tuple(a.T)]
    g_b = g[tuple(b.T)]
    pooled = np.concatenate([g_a, g_b])
    residual = float(pooled.mean())
    variance = _nondegenerate(float((pooled * pooled).mean()) - residual**2, output_variance)
    estimates = []
    for pos, var_id in enumerate(ft.evidential):
        mixed = a.copy()
        mixed[:, pos] = b[:, pos]
        g_m = g[tuple(mixed.T)]
        s_terms = g_b * (g_m - g_a) / variance
        st_terms = (g_a - g_m) ** 2 / (2.0 * variance)
        estimates.append(
            McIndexEstimate(
                var_id,
                bn.variables[var_id].name,
                float(s_terms.mean()),
                float(s_terms.std(ddof=1) / np.sqrt(samples)),
                float(st_terms.mean()),
                float(st_terms.std(ddof=1) / np.sqrt(samples)),
            )
        )
    return McReport(
        mean + spread * residual, spread * spread * variance, tuple(estimates), samples, int(seed)
    )
