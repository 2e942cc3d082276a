"""Tensor networks over discrete variables and their arithmetic.

A tensor network here is a bag of factors over a universe of variables; its
value at a full assignment is the product of all factor entries. A quotient
network holds its divisor as factors of zero-safe reciprocals, so dividing
costs no more than multiplying. Marginalization runs variable elimination
under the minimal-weight heuristic and keeps the result factored, which is
what makes squaring/quotient pipelines affordable on evidence sets far too
large to tabulate. Each bucket of the elimination is one einsum that
multiplies its factors and sums the variable away in the same pass, so the
product of a bucket is never stored.
"""

from __future__ import annotations

import string
import warnings
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    AxisCardinalityMismatchError,
    ContractionUnderflowWarning,
    StateSpaceTooLargeError,
    UnknownAxisError,
)
from .graph import min_weight_order
from .model import AnalysisSpec, DiscreteBayesNet, output_values
from .tensor import Factor

# Not called here: hooked by bench/spans.py, which looks them up in this module.
from .tensor import factor_div, factor_product, factor_sum_out  # noqa: F401


@dataclass(frozen=True, eq=False)
class TensorNetwork:
    """A set of factors over a universe of variables with cardinalities.

    The factors multiply into the network value; a divisor enters as
    factors of reciprocals (see `quotient`).
    """

    universe: Mapping[int, int]
    factors: tuple[Factor, ...] = ()

    def __post_init__(self):
        universe = {int(k): int(v) for k, v in dict(self.universe).items()}
        object.__setattr__(self, "universe", universe)
        object.__setattr__(self, "factors", tuple(self.factors))
        for f in self.factors:
            for ax, card in zip(f.axes, f.values.shape):
                have = universe.get(ax)
                if have is None:
                    raise UnknownAxisError(f"factor axis {ax} outside the universe")
                if have != card:
                    raise AxisCardinalityMismatchError(
                        f"axis {ax}: factor cardinality {card}, universe says {have}"
                    )


def mrf_from_bn(
    bn: DiscreteBayesNet, nodes: Iterable[int] | None = None
) -> TensorNetwork:
    """One factor per node over its family (the node plus its parents),
    holding the node's conditional probabilities.

    The full contraction of the result is 1: the factors multiply to the
    joint distribution, so no normalizing constant is needed. With `nodes`
    only those nodes enter the universe and get a factor. The set must hold
    the parents of each of its members, as an ancestral set
    `ancestors(bn.dag(), targets)` does (otherwise a factor axis falls
    outside the universe); the result is then the exact joint marginal of
    `nodes`, since every dropped factor sums to 1 over its own node.
    """
    kept = range(bn.n) if nodes is None else sorted({int(v) for v in nodes})
    if kept and not 0 <= kept[0] <= kept[-1] < bn.n:
        raise IndexError(f"node ids must lie in 0..{bn.n - 1}")
    universe = {i: bn.variables[i].cardinality for i in kept}
    factors = []
    for i in kept:
        scope = (*bn.cpts[i].parents, i)
        shape = tuple(bn.variables[p].cardinality for p in scope)
        factors.append(Factor.of(scope, bn.cpts[i].table.reshape(shape)))
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
    return TensorNetwork(mrf.universe, (*mrf.factors, extra))


# One np.einsum call names its axes with these 52 letters and takes at most
# 31 operands (63 on numpy 2; numpy 1.x keeps one of its 32 slots for the
# output).
EINSUM_LETTERS = string.ascii_letters
EINSUM_OPERANDS = 31


def _spanned(factors: Sequence[Factor]) -> tuple[int, ...]:
    return tuple(sorted({ax for f in factors for ax in f.axes}))


def _einsum(factors: Sequence[Factor], axes: Sequence[int]) -> np.ndarray:
    """Product of `factors` over exactly `axes`, every other axis summed
    away, in one `np.einsum` pass: the product itself is never stored.

    Axis ids are renamed to letters per call; the string form of the
    subscripts has no length cap, unlike einsum's list form. A call over
    more than 52 axes raises `StateSpaceTooLargeError` before einsum runs;
    unless some of its axes have cardinality 1, its product would have at
    least 2^53 cells. More than EINSUM_OPERANDS factors are first multiplied
    in chunks over their own axes, summing nothing away. The result never
    shares memory with a factor."""
    if not factors:
        return np.ones(())
    index: dict[int, int] = {}
    for f in factors:
        for ax in f.axes:
            index.setdefault(ax, len(index))
    if len(index) > len(EINSUM_LETTERS):
        raise StateSpaceTooLargeError(
            f"a bucket over {len(index)} axes exceeds einsum's "
            f"{len(EINSUM_LETTERS)} labels"
        )
    if len(factors) > EINSUM_OPERANDS:
        chunks = [
            factors[i : i + EINSUM_OPERANDS]
            for i in range(0, len(factors), EINSUM_OPERANDS)
        ]
        products = [Factor(_spanned(c), _einsum(c, _spanned(c))) for c in chunks]
        return _einsum(products, axes)

    def letters(scope):
        return "".join(EINSUM_LETTERS[index[ax]] for ax in scope)

    subscripts = ",".join(letters(f.axes) for f in factors) + "->" + letters(axes)
    out = np.einsum(subscripts, *(f.values for f in factors), optimize=False)
    if len(factors) == 1 and np.may_share_memory(out, factors[0].values):
        out = out.copy()  # a lone operand over its own axes comes back as a view
    return out


def _eliminate(factors: Sequence[Factor], drop: set[int]) -> Factor:
    """Product of `factors` with the axes in `drop` summed away, in one
    `_einsum`."""
    kept = tuple(ax for ax in _spanned(factors) if ax not in drop)
    return Factor(kept, _einsum(factors, kept))


def marginalize(tn: TensorNetwork, eliminate: Iterable[int]) -> TensorNetwork:
    """Sum the given variables out of the network by variable elimination.

    Each step sums the next variable out of the product of the factors that
    contain it, in one einsum pass that never stores the product. The
    minimal-weight heuristic picks the order. The result keeps its factored
    structure: for every assignment of the remaining variables, its
    contraction equals the sum of the input's contraction over the
    eliminated ones. A variable carried by no factor contributes its
    cardinality as a scalar.
    """
    targets = {int(v) for v in eliminate}
    missing = targets - set(tn.universe)
    if missing:
        raise UnknownAxisError(
            f"cannot eliminate {sorted(missing)}: not in the universe"
        )
    order = min_weight_order(
        [f.axes for f in tn.factors],
        tn.universe,
        keep=set(tn.universe) - targets,
    )

    factors = list(tn.factors)
    for v in order:
        bucket = [f for f in factors if v in f.axes]
        if not bucket:
            factors.append(Factor.scalar(tn.universe[v]))
            continue
        factors = [f for f in factors if v not in f.axes]
        factors.append(_eliminate(bucket, {v}))

    return TensorNetwork(
        {k: c for k, c in tn.universe.items() if k not in targets},
        tuple(factors),
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
    for f in tn.factors:
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
    for v in outside:
        universe[renames[v]] = tn.universe[v]

    def mirrored(f: Factor) -> Factor:
        if not set(f.axes) & set(renames):
            return f
        return Factor.of(tuple(renames.get(ax, ax) for ax in f.axes), f.values)

    return TensorNetwork(universe, tn.factors + tuple(mirrored(f) for f in tn.factors))


def quotient(tn: TensorNetwork, divisor: TensorNetwork) -> TensorNetwork:
    """Network contracting to the pointwise quotient of the two inputs
    wherever the divisor is nonzero, and to 0 wherever a divisor factor is
    zero.

    Each divisor factor is adjoined as its zero-safe reciprocal: 1/x where
    |x| is at least the smallest normal float, 0 elsewhere (the reciprocal
    of a subnormal overflows). Setting the quotient to 0 where the divisor
    vanishes is exact for a conditional-moment query, whose numerator is
    zero wherever its evidence marginal is."""
    for var, card in divisor.universe.items():
        if var not in tn.universe:
            raise UnknownAxisError(f"divisor variable {var} not in the network")
        if tn.universe[var] != card:
            raise AxisCardinalityMismatchError(
                f"variable {var}: cardinality {tn.universe[var]} vs divisor {card}"
            )
    tiny = np.finfo(np.float64).tiny
    reciprocals = []
    for f in divisor.factors:
        small = np.abs(f.values) < tiny
        values = np.divide(1.0, f.values, out=np.zeros(f.values.shape), where=~small)
        reciprocals.append(Factor(f.axes, values))
    return TensorNetwork(tn.universe, tn.factors + tuple(reciprocals))


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
    mentioned = {ax for f in reduced.factors for ax in f.axes}
    constant = [Factor((v,), np.ones(tn.universe[v])) for v in keep_set - mentioned]
    return _eliminate([*reduced.factors, *constant], set())
