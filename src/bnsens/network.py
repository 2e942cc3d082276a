"""Tensor networks over discrete variables and their arithmetic.

A tensor network here is a bag of factors over a universe of variables; its
value at a full assignment is the product of all factor entries divided by
the entries of the inverted (divisor) factors. Marginalization runs variable
elimination under the minimal-weight heuristic and keeps the result
factored, which is what makes squaring/quotient pipelines affordable on
evidence sets far too large to tabulate. Each bucket of the elimination is
one einsum that multiplies its factors and sums the variable away in the
same pass, so the product of a bucket is never stored; only a bucket with
divisors forms its numerator and denominator first, to divide them cell by
cell.
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
from .tensor import (
    Factor,
    factor_div,
    factor_product,  # unused here; bench/spans.py hooks it by name in this module
    factor_sum_out,
)


@dataclass(frozen=True, eq=False)
class TensorNetwork:
    """A set of factors over a universe of variables with cardinalities.

    `factors` multiply into the network value. `inverted` factors divide it;
    the division is deferred to contraction sites so the 0/0 convention can
    be applied cell by cell where numerator context exists.
    """

    universe: Mapping[int, int]
    factors: tuple[Factor, ...] = ()
    inverted: tuple[Factor, ...] = ()

    def __post_init__(self):
        universe = {int(k): int(v) for k, v in dict(self.universe).items()}
        object.__setattr__(self, "universe", universe)
        object.__setattr__(self, "factors", tuple(self.factors))
        object.__setattr__(self, "inverted", tuple(self.inverted))
        for f in (*self.factors, *self.inverted):
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
    return TensorNetwork(mrf.universe, (*mrf.factors, extra), mrf.inverted)


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


def _eliminate(terms: Sequence[tuple[Factor, bool]], drop: set[int]) -> Factor:
    """Product of the plain factors divided by the product of the inverted
    ones, with the axes in `drop` summed away.

    Without divisors, product and sum-out are one `_einsum`. With divisors,
    `_einsum` forms the numerator and the denominator over their own axes,
    `factor_div` divides them cell by cell under its 0/0 rule, and only
    then are `drop` summed away."""
    plain = [f for f, inv in terms if not inv]
    inverted = [f for f, inv in terms if inv]
    if not inverted:
        kept = tuple(ax for ax in _spanned(plain) if ax not in drop)
        return Factor(kept, _einsum(plain, kept))
    num, den = _spanned(plain), _spanned(inverted)
    numerator = Factor(num, _einsum(plain, num))
    ratio = factor_div(numerator, Factor(den, _einsum(inverted, den)))
    return factor_sum_out(ratio, drop)


def marginalize(
    tn: TensorNetwork,
    eliminate: Iterable[int],
    order: Sequence[int] | None = None,
) -> TensorNetwork:
    """Sum the given variables out of the network by variable elimination.

    Each step sums the next variable out of the product of the factors that
    contain it, in one einsum pass that never stores the product; when
    inverted factors are among them, the product of the plain ones is first
    divided by theirs, cell by cell. The minimal-weight heuristic picks the
    order unless an explicit permutation of `eliminate` is supplied. The
    result keeps its factored structure: for every assignment of the
    remaining variables, its contraction equals the sum of the input's
    contraction over the eliminated ones. A variable carried by no factor
    contributes its cardinality as a scalar.
    """
    targets = {int(v) for v in eliminate}
    missing = targets - set(tn.universe)
    if missing:
        raise UnknownAxisError(
            f"cannot eliminate {sorted(missing)}: not in the universe"
        )
    if order is None:
        order = min_weight_order(
            [f.axes for f in (*tn.factors, *tn.inverted)],
            tn.universe,
            keep=set(tn.universe) - targets,
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
        terms.append((_eliminate(bucket, {v}), False))

    return TensorNetwork(
        {k: c for k, c in tn.universe.items() if k not in targets},
        tuple(f for f, inv in terms if not inv),
        tuple(f for f, inv in terms if inv),
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
    for v in outside:
        universe[renames[v]] = tn.universe[v]

    def mirrored(f: Factor) -> Factor:
        if not set(f.axes) & set(renames):
            return f
        return Factor.of(tuple(renames.get(ax, ax) for ax in f.axes), f.values)

    return TensorNetwork(
        universe,
        tn.factors + tuple(mirrored(f) for f in tn.factors),
        tn.inverted + tuple(mirrored(f) for f in tn.inverted),
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
    return TensorNetwork(
        tn.universe,
        tn.factors + divisor.inverted,
        tn.inverted + divisor.factors,
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
    mentioned = {ax for f in (*reduced.factors, *reduced.inverted) for ax in f.axes}
    constant = [Factor((v,), np.ones(tn.universe[v])) for v in keep_set - mentioned]
    return _eliminate(
        [(f, False) for f in (*reduced.factors, *constant)]
        + [(f, True) for f in reduced.inverted],
        set(),
    )
