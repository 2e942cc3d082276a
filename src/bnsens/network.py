"""Tensor networks over discrete variables and their arithmetic.

A tensor network here is a bag of factors over a universe of variables; its
value at a full assignment is the product of all factor entries divided by
the entries of the inverted (divisor) factors. Marginalization runs variable
elimination under the minimal-weight heuristic and keeps the result
factored, which is what makes squaring/quotient pipelines affordable on
evidence sets far too large to tabulate.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import (
    AxisCardinalityMismatchError,
    ContractionUnderflowWarning,
    InvalidAssignmentError,
    UnknownAxisError,
)
from .graph import Hypergraph, min_weight_order
from .model import AnalysisSpec, DiscreteBayesNet, output_values
from .tensor import (
    Factor,
    factor_div,
    factor_product,
    factor_sum_out,
)


@dataclass(frozen=True, eq=False)
class TensorNetwork:
    """A set of factors over a universe of variables with cardinalities.

    `factors` multiply into the network value. `inverted` factors divide it;
    the division is deferred to contraction sites so the 0/0 convention can
    be applied cell by cell where numerator context exists. `replica_map`
    sends replica ids introduced by squaring back to their originals.
    """

    universe: Mapping[int, int]
    factors: tuple[Factor, ...] = ()
    inverted: tuple[Factor, ...] = ()
    replica_map: Mapping[int, int] = field(default_factory=dict)

    def __post_init__(self):
        universe = {int(k): int(v) for k, v in dict(self.universe).items()}
        object.__setattr__(self, "universe", universe)
        object.__setattr__(self, "factors", tuple(self.factors))
        object.__setattr__(self, "inverted", tuple(self.inverted))
        object.__setattr__(self, "replica_map", dict(self.replica_map))
        for f in (*self.factors, *self.inverted):
            for ax, card in zip(f.axes, f.values.shape):
                have = universe.get(ax)
                if have is None:
                    raise UnknownAxisError(f"factor axis {ax} outside the universe")
                if have != card:
                    raise AxisCardinalityMismatchError(
                        f"axis {ax}: factor cardinality {card}, universe says {have}"
                    )
        reps = self.replica_map
        originals = set(reps.values())
        if len(originals) != len(reps):
            raise ValueError("replica map must be injective")
        if originals & set(reps):
            raise ValueError("replica ids must be disjoint from original ids")


def _scope_hypergraph(tn: TensorNetwork) -> Hypergraph:
    scopes = tuple(
        frozenset(f.axes) for f in (*tn.factors, *tn.inverted) if f.axes
    )
    return Hypergraph(frozenset(tn.universe), scopes)


def mrf_from_bn(bn: DiscreteBayesNet) -> TensorNetwork:
    """One factor per node over its family (the node plus its parents),
    holding the node's conditional probabilities.

    The full contraction of the result is 1: the factors multiply to the
    joint distribution, so no normalizing constant is needed.
    """
    universe = {v.id: v.cardinality for v in bn.variables}
    factors = []
    for v in bn.variables:
        cpt = bn.cpts[v.id]
        shape = tuple(bn.variables[p].cardinality for p in cpt.parents) + (
            v.cardinality,
        )
        factors.append(Factor.of((*cpt.parents, v.id), cpt.table.reshape(shape)))
    return TensorNetwork(universe, tuple(factors))


def function_tn(
    mrf: TensorNetwork, spec: AnalysisSpec, bn: DiscreteBayesNet
) -> TensorNetwork:
    """Copy of `mrf` with one extra single-axis factor over the output
    variable carrying the numeric value of each output label.

    Contracting the result over everything yields the expected value of the
    mapped output."""
    values = output_values(bn, spec)
    extra = Factor((spec.output,), values)
    return TensorNetwork(
        mrf.universe, (*mrf.factors, extra), mrf.inverted, mrf.replica_map
    )


def restrict(tn: TensorNetwork, assignment: Mapping[int, int]) -> TensorNetwork:
    """Slice every factor at the assigned values; assigned variables leave
    the universe."""
    if not assignment:
        return tn
    fixed = {int(k): int(v) for k, v in dict(assignment).items()}
    for var, val in fixed.items():
        if var not in tn.universe:
            raise InvalidAssignmentError(f"variable {var} not in the universe")
        if not 0 <= val < tn.universe[var]:
            raise InvalidAssignmentError(
                f"value {val} out of range for variable {var} "
                f"(cardinality {tn.universe[var]})"
            )

    def sliced(f: Factor) -> Factor:
        if not set(f.axes) & set(fixed):
            return f
        indexer = tuple(fixed.get(ax, slice(None)) for ax in f.axes)
        kept = tuple(ax for ax in f.axes if ax not in fixed)
        return Factor(kept, f.values[indexer])

    universe = {k: c for k, c in tn.universe.items() if k not in fixed}
    replica_map = {r: o for r, o in tn.replica_map.items() if r in universe}
    return TensorNetwork(
        universe,
        tuple(sliced(f) for f in tn.factors),
        tuple(sliced(f) for f in tn.inverted),
        replica_map,
    )


def _combine(terms: Sequence[tuple[Factor, bool]]) -> Factor:
    """Product of the plain factors divided by the product of the inverted
    ones, each multiplied smallest first; `factor_div`'s 0/0 rule applies."""
    out = Factor.scalar(1.0)
    for f in sorted((f for f, inv in terms if not inv), key=lambda f: f.values.size):
        out = factor_product(out, f)
    denominators = sorted((f for f, inv in terms if inv), key=lambda f: f.values.size)
    if denominators:
        den = Factor.scalar(1.0)
        for f in denominators:
            den = factor_product(den, f)
        out = factor_div(out, den)
    return out


def marginalize(
    tn: TensorNetwork,
    eliminate: Iterable[int],
    order: Sequence[int] | None = None,
) -> TensorNetwork:
    """Sum the given variables out of the network by variable elimination.

    Each step multiplies the factors containing the next variable (dividing
    in any inverted factors among them) and sums that variable away. The
    minimal-weight heuristic picks the order unless an explicit permutation
    of `eliminate` is supplied. The result keeps its factored structure: for
    every assignment of the remaining variables, its contraction equals the
    sum of the input's contraction over the eliminated ones. A variable
    carried by no factor contributes its cardinality as a scalar.
    """
    targets = {int(v) for v in eliminate}
    missing = targets - set(tn.universe)
    if missing:
        raise UnknownAxisError(
            f"cannot eliminate {sorted(missing)}: not in the universe"
        )
    if order is None:
        order = min_weight_order(
            _scope_hypergraph(tn), tn.universe, keep=set(tn.universe) - targets
        )
    else:
        order = tuple(int(v) for v in order)
        if len(order) != len(targets) or set(order) != targets:
            raise ValueError("order must be a permutation of the eliminated set")

    terms: list[tuple[Factor, bool]] = [(f, False) for f in tn.factors]
    terms += [(f, True) for f in tn.inverted]
    for v in order:
        bucket = [(f, inv) for f, inv in terms if v in f.axes]
        if not bucket:
            terms.append((Factor.scalar(tn.universe[v]), False))
            continue
        terms = [(f, inv) for f, inv in terms if v not in f.axes]
        terms.append((factor_sum_out(_combine(bucket), {v}), False))

    universe = {k: c for k, c in tn.universe.items() if k not in targets}
    replica_map = {r: o for r, o in tn.replica_map.items() if r in universe}
    return TensorNetwork(
        universe,
        tuple(f for f, inv in terms if not inv),
        tuple(f for f, inv in terms if inv),
        replica_map,
    )


def contract_all(tn: TensorNetwork) -> float:
    """Marginalize the whole universe and return the resulting scalar."""
    value = float(collapse(tn, ()).values)
    if value != 0.0 and abs(value) < np.finfo(np.float64).tiny and _inputs_normal(tn):
        warnings.warn(
            f"contraction underflowed to subnormal {value!r}",
            ContractionUnderflowWarning,
            stacklevel=2,
        )
    return value


def _inputs_normal(tn: TensorNetwork) -> bool:
    tiny = np.finfo(np.float64).tiny
    for f in (*tn.factors, *tn.inverted):
        nonzero = f.values[f.values != 0.0]
        if nonzero.size and np.abs(nonzero).min() < tiny:
            return False
    return True


def square_wrt(tn: TensorNetwork, shared: Iterable[int]) -> TensorNetwork:
    """Square of the network with respect to `shared`.

    Every variable outside `shared` gets a fresh replica id (original plus a
    stride past the largest id in the universe), and every factor gains a
    mirrored copy with its non-shared axes renamed to the replicas. For each
    assignment of the shared variables, contracting the result over both the
    originals and the replicas equals the square of the input's contraction
    over the originals.
    """
    shared_set = {int(v) for v in shared}
    missing = shared_set - set(tn.universe)
    if missing:
        raise UnknownAxisError(f"shared variables {sorted(missing)} not in universe")
    outside = sorted(set(tn.universe) - shared_set)
    stride = max(tn.universe) + 1 if tn.universe else 0
    renames = {v: v + stride for v in outside}
    universe = dict(tn.universe)
    replica_map = dict(tn.replica_map)
    for v in outside:
        universe[renames[v]] = tn.universe[v]
        replica_map[renames[v]] = v

    def mirrored(f: Factor) -> Factor:
        if not set(f.axes) & set(renames):
            return f
        return Factor.of(tuple(renames.get(ax, ax) for ax in f.axes), f.values)

    return TensorNetwork(
        universe,
        tn.factors + tuple(mirrored(f) for f in tn.factors),
        tn.inverted + tuple(mirrored(f) for f in tn.inverted),
        replica_map,
    )


def quotient(tn: TensorNetwork, divisor: TensorNetwork) -> TensorNetwork:
    """Network contracting to the pointwise quotient of the two inputs
    wherever the divisor is nonzero.

    Divisor factors are adjoined in inverted form rather than reciprocated
    eagerly; a stored reciprocal of a zero cell would have no correct
    standalone value, so the actual division happens inside later
    contractions via `factor_div`."""
    for var, card in divisor.universe.items():
        if var not in tn.universe:
            raise UnknownAxisError(f"divisor variable {var} not in the network")
        if tn.universe[var] != card:
            raise AxisCardinalityMismatchError(
                f"variable {var}: cardinality {tn.universe[var]} vs divisor {card}"
            )
    replica_map = dict(tn.replica_map)
    for rep, orig in divisor.replica_map.items():
        replica_map.setdefault(rep, orig)
    return TensorNetwork(
        tn.universe,
        tn.factors + divisor.inverted,
        tn.inverted + divisor.factors,
        replica_map,
    )


def collapse(tn: TensorNetwork, keep: Iterable[int]) -> Factor:
    """Marginalize everything outside `keep` and combine the residue into a
    single factor over exactly the `keep` axes.

    Axes no residual factor mentions come out constant. This is the
    tabulated marginal of the network over `keep`.
    """
    keep_set = {int(v) for v in keep}
    missing = keep_set - set(tn.universe)
    if missing:
        raise UnknownAxisError(f"keep variables {sorted(missing)} not in universe")
    reduced = marginalize(tn, set(tn.universe) - keep_set)
    out = _combine(
        [(f, False) for f in reduced.factors] + [(f, True) for f in reduced.inverted]
    )
    for v in sorted(keep_set - set(out.axes)):
        out = factor_product(out, Factor((v,), np.ones(tn.universe[v])))
    return out


class ConditionalMean(NamedTuple):
    value: float
    zero_probability: bool


def evaluate_f(
    mrf: TensorNetwork,
    spec: AnalysisSpec,
    bn: DiscreteBayesNet,
    evidence: Mapping[int, int],
) -> ConditionalMean:
    """Conditional expectation of the mapped output for one full evidence
    assignment (variable id -> value index).

    Returns (0.0, True) when the evidence configuration has probability
    zero, in which case the conditional expectation is undefined."""
    fixed = {int(k): int(v) for k, v in dict(evidence).items()}
    if set(fixed) != set(spec.evidential):
        raise InvalidAssignmentError(
            "evidence must assign exactly the evidential variables"
        )
    t = function_tn(mrf, spec, bn)
    numerator = contract_all(restrict(t, fixed))
    denominator = contract_all(restrict(mrf, fixed))
    if denominator == 0.0:
        return ConditionalMean(0.0, True)
    return ConditionalMean(numerator / denominator, False)
