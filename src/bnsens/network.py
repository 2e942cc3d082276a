"""Tensor networks over discrete variables and their arithmetic.

A tensor network here is a bag of factors over a universe of variables; its
value at a full assignment is the product of all factor entries. A quotient
network holds its divisor as factors of zero-safe reciprocals, so dividing
costs no more than multiplying. Marginalization runs variable elimination
under the minimal-weight heuristic and keeps the result factored, which is
what makes squaring/quotient pipelines affordable on evidence sets far too
large to tabulate. Each bucket of the elimination multiplies its factors
and sums the variable away in one kernel call, so the product of a bucket
is never stored. A large bucket of two factors whose result outgrows both
(an outer product over a shared summed axis) is one batched matmul; any
other bucket is one einsum, after the one-axis factors over a common axis
of a large bucket are multiplied into one. `marginals` gives the marginal
on every variable from one order: the same buckets run forward, and a
backward pass over them sends each message the contraction of everything
else, its outside factor.
"""

from __future__ import annotations

import itertools
import math
import operator
import string
import warnings
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import (
    AxisCardinalityMismatchError,
    ContractionUnderflowWarning,
    StateSpaceTooLargeError,
    UnknownAxisError,
)
from .graph import EliminationOrder, min_weight_order
from .model import DiscreteBayesNet
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


def function_tn(mrf: TensorNetwork, output: int, values: np.ndarray) -> TensorNetwork:
    """Copy of `mrf` with one extra single-axis factor over `output`
    carrying the numeric value of each of its labels, in domain order
    (`output_values` gives them for an analysis).

    Contracting the result over everything yields the expected value of the
    mapped output."""
    return TensorNetwork(mrf.universe, (*mrf.factors, Factor((output,), values)))


# One np.einsum call names its axes with these 52 letters and takes at most
# 31 operands (63 on numpy 2; numpy 1.x keeps one of its 32 slots for the
# output).
EINSUM_LETTERS = string.ascii_letters
EINSUM_OPERANDS = 31
# Buckets spanning at most this many cells skip both routes of `_einsum`
# and go straight to one np.einsum: their Python set-up costs more than it
# saves. Measured on two cores, the matmul route took 15-28 us against
# einsum's 5-12 us for pairs spanning up to 3072 cells and won from 12288
# cells (31 against 50 us); merging three vectors beside two copies of a
# 3^k factor cost 4-8 us more up to 729 cells and won from 2187 cells.
# Networks that pruning leaves small, such as the sparse200 benchmark
# (largest bucket 432 cells), thus never take either route.
ROUTE_CELLS = 4096


def _spanned(factors: Sequence[Factor]) -> tuple[int, ...]:
    return tuple(sorted({ax for f in factors for ax in f.axes}))


def _einsum(factors: Sequence[Factor], axes: Sequence[int]) -> np.ndarray:
    """Product of `factors` over exactly `axes`, every other axis summed
    away, without storing the product itself.

    Buckets spanning more than ROUTE_CELLS cells take one of two routes,
    chosen from the bucket's shapes alone:

    - An outer-product pair (two factors that share every summed axis, with
      a result larger than either) runs as one batched `np.matmul`: each
      factor is copied to (shared kept, own, summed) order, and the result
      comes back as a transposed view of the matmul output, not copied
      into C order. With a short summed axis, einsum's inner loop is a few
      cells long; matmul's runs over whole rows.
    - In a bucket of more than two operands, the one-axis operands over
      the same axis are first multiplied into one vector, so that einsum
      multiplies fewer operands per cell.

    Every other bucket, and the merged one, is one `np.einsum` pass.

    Axis ids are renamed to letters per call; the string form of the
    subscripts has no length cap, unlike einsum's list form. A call over
    more than 52 axes raises `StateSpaceTooLargeError` before any work;
    unless some of its axes have cardinality 1, its product would have at
    least 2^53 cells. More than EINSUM_OPERANDS factors are first multiplied
    in chunks over their own axes, summing nothing away. The result never
    shares memory with a factor."""
    if not factors:
        return np.ones(())
    index: dict[int, int] = {}
    span = 1  # cells of the product
    for f in factors:
        shape = f.values.shape
        for k, ax in enumerate(f.axes):
            if ax not in index:
                index[ax] = len(index)
                span *= shape[k]
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
    if span > ROUTE_CELLS:
        if len(factors) == 2:
            out = _outer_pair(*factors, axes)
            if out is not None:
                return out
        elif len(factors) > 2:
            factors = _merged_vectors(factors)

    def letters(scope):
        return "".join(EINSUM_LETTERS[index[ax]] for ax in scope)

    subscripts = ",".join(letters(f.axes) for f in factors) + "->" + letters(axes)
    out = np.einsum(subscripts, *(f.values for f in factors), optimize=False)
    if len(factors) == 1 and np.may_share_memory(out, factors[0].values):
        out = out.copy()  # a lone operand over its own axes comes back as a view
    return out


def _outer_pair(a: Factor, b: Factor, axes: Sequence[int]) -> np.ndarray | None:
    """The pair's contraction over `axes` as one batched matmul, or None
    unless every summed axis is in both factors and the result has more
    cells than either factor (so that neither copy below is the larger
    array)."""
    kept = set(axes)
    in_a, in_b = set(a.axes), set(b.axes)
    if in_a - kept != in_b - kept:
        return None  # a summed axis lies in one factor only
    cards = dict(zip(a.axes, a.values.shape))
    cards.update(zip(b.axes, b.values.shape))
    cells = math.prod(cards[ax] for ax in axes)
    if cells <= a.values.size or cells <= b.values.size:
        return None
    batch = [ax for ax in a.axes if ax in in_b and ax in kept]
    own_a = [ax for ax in a.axes if ax not in in_b]
    own_b = [ax for ax in b.axes if ax not in in_a]
    summed = [ax for ax in a.axes if ax not in kept]

    def block(f: Factor, groups) -> np.ndarray:
        position = {ax: i for i, ax in enumerate(f.axes)}
        order = [position[ax] for group in groups for ax in group]
        shape = [math.prod(cards[ax] for ax in group) for group in groups]
        return np.ascontiguousarray(f.values.transpose(order)).reshape(shape)

    out = np.matmul(block(a, (batch, own_a, summed)), block(b, (batch, summed, own_b)))
    labels = batch + own_a + own_b
    out = out.reshape([cards[ax] for ax in labels])
    return out.transpose([labels.index(ax) for ax in axes])


def _merged_vectors(factors: Sequence[Factor]) -> list[Factor]:
    """`factors` with the one-axis factors over each axis multiplied into
    one, placed after the others."""
    vectors: dict[int, list[np.ndarray]] = {}
    others = []
    for f in factors:
        if len(f.axes) == 1:
            vectors.setdefault(f.axes[0], []).append(f.values)
        else:
            others.append(f)
    return others + [Factor((ax,), math.prod(vs)) for ax, vs in vectors.items()]


def _eliminate(factors: Sequence[Factor], drop: set[int]) -> Factor:
    """Product of `factors` with the axes in `drop` summed away, in one
    `_einsum`."""
    kept = tuple(ax for ax in _spanned(factors) if ax not in drop)
    return Factor(kept, _einsum(factors, kept))


def _buckets(
    factors: list[Factor | None], universe: Mapping[int, int], order: Iterable[int]
) -> Iterator[tuple[int, list[int]]]:
    """Eliminate the variables of `order` from `factors` in place, one
    bucket each, and yield each bucket's variable and the positions of its
    factors once its message is appended.

    Each bucket's message is appended and its factors set to None, so the
    live factors keep the order of a list that drops each bucket and
    appends its result, and with n factors passed in, the message of the
    k-th bucket sits at position n + k. `holders` lists, ascending, the
    positions of the factors over each variable; a bucket skips those
    already eliminated, so no bucket scans the other factors. A variable
    carried by no factor sends its cardinality as a scalar."""
    holders: dict[int, list[int]] = {}
    for i, f in enumerate(factors):
        for ax in f.axes:
            if ax in holders:
                holders[ax].append(i)
            else:
                holders[ax] = [i]
    for v in order:
        positions = [i for i in holders.pop(v, ()) if factors[i] is not None]
        if positions:
            out = _eliminate([factors[i] for i in positions], {v})
            for i in positions:
                factors[i] = None
            for ax in out.axes:
                holders[ax].append(len(factors))
        else:
            out = Factor.scalar(universe[v])
        factors.append(out)
        yield v, positions


def marginalize(tn: TensorNetwork, eliminate: Iterable[int]) -> TensorNetwork:
    """Sum the given variables out of the network by variable elimination.

    Each step sums the next variable out of the product of the factors that
    contain it, in one `_einsum` call that never stores the product. The
    minimal-weight heuristic picks the order; an `EliminationOrder` of this
    network's factor scopes with the rest kept (as a plan that costed it
    has one) names the variables and is followed as it stands. The result
    keeps its factored structure: for every assignment of the remaining
    variables, its contraction equals the sum of the input's contraction
    over the eliminated ones. A variable carried by no factor contributes
    its cardinality as a scalar.
    """
    targets = {int(v) for v in eliminate}
    missing = targets - set(tn.universe)
    if missing:
        raise UnknownAxisError(
            f"cannot eliminate {sorted(missing)}: not in the universe"
        )
    if isinstance(eliminate, EliminationOrder):
        order = eliminate
    else:
        order = min_weight_order(
            [f.axes for f in tn.factors], tn.universe, keep=set(tn.universe) - targets
        )
    factors: list[Factor | None] = list(tn.factors)
    for _ in _buckets(factors, tn.universe, order):
        pass

    return TensorNetwork(
        {k: c for k, c in tn.universe.items() if k not in targets},
        tuple(f for f in factors if f is not None),
    )


def marginals(
    tn: TensorNetwork,
    order: Sequence[int] | None = None,
    *,
    outside_of: Iterable[int] | None = None,
) -> dict[int, np.ndarray]:
    """The marginal of the network's contraction on each variable of its
    universe, from one elimination order and two passes over its buckets.

    The forward pass eliminates every variable as `marginalize` does and
    keeps each bucket's factors. The backward pass walks the buckets in
    reverse and gives each message an outside factor over its axes: the
    contraction of everything but the message, which is the product of the
    other final scalars for a message that no bucket takes, and otherwise
    one `_einsum` of the taking bucket's other factors and that bucket's
    own outside factor. A bucket's variable then has the marginal
    `_einsum` of the bucket's factors and its outside factor; a variable
    carried by no factor has its outside scalar in every state. No product
    is ever divided out, so zero and negative entries are exact. Each
    message is dropped once its taker has sent its outside factor.

    With `outside_of`, positions in `tn.factors`, the result holds instead
    the outside factor of each of those input factors, by position and over
    the factor's own axes, and no marginal: the backward pass then visits
    only the buckets whose messages lead to one of them. The network's
    contraction is linear in each input factor, so the sum of an input
    times its outside factor is the contraction, and the sum of the outside
    factor alone is the contraction with that input replaced by ones.
    `order`, if given, is the `min_weight_order` of the network's factor
    scopes with nothing kept."""
    if order is None:
        order = min_weight_order([f.axes for f in tn.factors], tn.universe, keep=())
    wanted = None if outside_of is None else {int(i) for i in outside_of}
    first_message = len(tn.factors)
    factors: list[Factor | None] = list(tn.factors)
    kept: list[Factor | None] = list(tn.factors)  # factors and messages, by position

    def sends(i: int) -> bool:
        if i >= first_message:
            return needed[i - first_message]
        return wanted is not None and i in wanted

    buckets = []
    needed: list[bool] = []  # whether the backward pass visits each bucket
    for v, positions in _buckets(factors, tn.universe, order):
        buckets.append((v, positions))
        kept.append(factors[-1])
        needed.append(wanted is None or any(sends(i) for i in positions))

    # The live factors are now scalars that multiply to the contraction;
    # each gets the product of the others, from prefix and suffix products.
    finals = [i for i, f in enumerate(factors) if f is not None]
    scalars = [float(factors[i].values) for i in finals]
    before = itertools.accumulate(scalars[:-1], operator.mul, initial=1.0)
    after = itertools.accumulate(reversed(scalars[1:]), operator.mul, initial=1.0)
    outside = {
        i: Factor.scalar(b * a) for i, b, a in zip(finals, before, [*after][::-1])
    }

    result = {}
    for k in reversed(range(len(buckets))):
        if not needed[k]:
            continue
        v, positions = buckets[k]
        out = outside.pop(first_message + k)
        if not positions:
            result[v] = np.full(tn.universe[v], float(out.values))
            continue
        bucket = [kept[i] for i in positions]
        if wanted is None:
            result[v] = _einsum([*bucket, out], (v,))
        for m, i in enumerate(positions):
            if not sends(i):
                continue
            others = [*bucket[:m], *bucket[m + 1 :], out]
            held = {ax for f in others for ax in f.axes}
            axes = kept[i].axes
            ones = [
                Factor((ax,), np.ones(tn.universe[ax])) for ax in axes if ax not in held
            ]
            outside[i] = Factor(axes, _einsum([*others, *ones], axes))
        for i in positions:
            kept[i] = None
    if wanted is None:
        return result
    return {i: outside[i].values for i in sorted(wanted)}


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
    reciprocals = tuple(Factor(f.axes, reciprocal(f.values)) for f in divisor.factors)
    return TensorNetwork(tn.universe, tn.factors + reciprocals)


def reciprocal(values: np.ndarray) -> np.ndarray:
    """1/x where |x| is at least the smallest normal float, else 0."""
    small = np.abs(values) < np.finfo(np.float64).tiny
    return np.divide(1.0, values, out=np.zeros(values.shape), where=~small)


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
