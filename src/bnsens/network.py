"""Tensor networks over discrete variables and their arithmetic.

A tensor network here is a bag of factors over a universe of variables; its
value at a full assignment is the product of all factor entries. A quotient
network holds its divisor as factors of zero-safe reciprocals, so dividing
costs no more than multiplying. Marginalization runs variable elimination
under the minimal-weight heuristic and keeps the result factored, which is
what makes squaring/quotient pipelines affordable on evidence sets far too
large to tabulate. Each bucket of the elimination multiplies its factors
and sums the variable away in one kernel call, so the product of a bucket
is never stored. Buckets pass bare arrays beside their axis tuples; only
what `marginalize` and `collapse` return is built as `Factor`s again. A
large bucket of two factors whose result outgrows both (an outer product
over a shared summed axis) is one batched matmul; any other bucket is one
einsum, after the one-axis factors over a common axis of a large bucket
are multiplied into one. `marginals` gives the marginal on every variable
from one order: an `Elimination` runs the buckets forward (stopped before
the last variable, it holds that variable's marginal, and may take one more
factor over it), and a backward pass over them sends each message the
contraction of everything else, its outside factor. A network derived from
checked ones is built without the checks of its constructor (`trusted`).
"""

from __future__ import annotations

import itertools
import math
import operator
import string
import warnings
from dataclasses import dataclass
from typing import Container, Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    AxisCardinalityMismatchError,
    ContractionUnderflowWarning,
    StateSpaceTooLargeError,
    UnknownAxisError,
)
from .graph import EliminationOrder, min_weight_order
from .model import DiscreteBayesNet
from .tensor import Factor, transposed, trusted

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
    holding the node's conditional probabilities, in ascending node order.

    The full contraction of the result is 1: the factors multiply to the
    joint distribution, so no normalizing constant is needed. With `nodes`
    only those nodes enter the universe and get a factor. The set must hold
    the parents of each of its members, as an ancestral set
    `ancestors(bn.dag(), targets)` does (otherwise UnknownAxisError); the
    result is then the exact joint marginal of `nodes`, since every dropped
    factor sums to 1 over its own node. Valid CPTs need no `Factor` checks.
    """
    kept = range(bn.n) if nodes is None else sorted({int(v) for v in nodes})
    if kept and not 0 <= kept[0] <= kept[-1] < bn.n:
        raise IndexError(f"node ids must lie in 0..{bn.n - 1}")
    universe = {i: bn.variables[i].cardinality for i in kept}
    factors = []
    for i in kept:
        scope = (*bn.cpts[i].parents, i)
        try:
            shape = [universe[p] for p in scope]
        except KeyError:
            raise UnknownAxisError(f"a parent of node {i} is not in `nodes`") from None
        factors.append(trusted(Factor, *transposed(scope, bn.cpts[i].table.reshape(shape))))
    return trusted(TensorNetwork, universe, tuple(factors))


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


def _einsum(
    scopes: Sequence[Sequence[int]], arrays: Sequence[np.ndarray], axes: Sequence[int]
) -> np.ndarray:
    """Product of `arrays`, each over the axes of its scope, over exactly
    `axes`, every other axis summed away, without storing the product.

    Buckets spanning more than ROUTE_CELLS cells take one of two routes,
    chosen from their shapes alone:

    - An outer-product pair (two arrays that share every summed axis, with
      a result larger than either) runs as one batched `np.matmul`: each
      array is copied to (shared kept, own, summed) order, and the result
      is a transposed view of the matmul output. With a short summed axis,
      einsum's inner loop is a few cells long; matmul's runs over rows.
    - In a bucket of more than two operands, the one-axis operands over
      the same axis are first multiplied into one vector, so that einsum
      multiplies fewer operands per cell.

    Every other bucket, and the merged one, is one `np.einsum` pass over
    letter subscripts (their string form has no length cap, unlike the
    list form). A call over more than 52 axes raises
    `StateSpaceTooLargeError` before any work; unless some of its axes
    have cardinality 1, its product would have at least 2^53 cells. More
    than EINSUM_OPERANDS arrays are first multiplied in chunks over their
    own axes (`_eliminate` of nothing). The result never shares memory
    with an operand."""
    if not arrays:
        return np.ones(())
    cards: dict[int, int] = {}  # in order of first appearance
    for scope, array in zip(scopes, arrays):
        cards.update(zip(scope, array.shape))
    if len(cards) > len(EINSUM_LETTERS):
        raise StateSpaceTooLargeError(
            f"a bucket over {len(cards)} axes exceeds einsum's "
            f"{len(EINSUM_LETTERS)} labels"
        )
    if len(arrays) > EINSUM_OPERANDS:
        chunks = [
            _eliminate(scopes[i : i + EINSUM_OPERANDS], arrays[i : i + EINSUM_OPERANDS], ())
            for i in range(0, len(arrays), EINSUM_OPERANDS)
        ]
        return _einsum([c[0] for c in chunks], [c[1] for c in chunks], axes)
    if math.prod(cards.values()) > ROUTE_CELLS:
        if len(arrays) == 2:
            out = _outer_pair(*scopes, *arrays, axes)
            if out is not None:
                return out
        elif len(arrays) > 2:
            scopes, arrays = _merged_vectors(scopes, arrays)

    letter = dict(zip(cards, EINSUM_LETTERS))
    subscripts = ",".join(["".join(map(letter.__getitem__, s)) for s in scopes])
    subscripts += "->" + "".join(map(letter.__getitem__, axes))
    out = np.asarray(np.einsum(subscripts, *arrays, optimize=False))  # not a numpy scalar
    if len(arrays) == 1 and np.may_share_memory(out, arrays[0]):
        out = out.copy()  # a lone operand over its own axes comes back as a view
    return out


def _outer_pair(axes_a, axes_b, a: np.ndarray, b: np.ndarray, axes) -> np.ndarray | None:
    """The pair's contraction over `axes` as one batched matmul, or None
    unless every summed axis is in both arrays and the result has more
    cells than either array (so that neither copy below is the larger
    one)."""
    kept = set(axes)
    in_a, in_b = set(axes_a), set(axes_b)
    if in_a - kept != in_b - kept:
        return None  # a summed axis lies in one array only
    cards = dict(zip(axes_a, a.shape))
    cards.update(zip(axes_b, b.shape))
    cells = math.prod(cards[ax] for ax in axes)
    if cells <= a.size or cells <= b.size:
        return None
    batch = [ax for ax in axes_a if ax in in_b and ax in kept]
    own_a = [ax for ax in axes_a if ax not in in_b]
    own_b = [ax for ax in axes_b if ax not in in_a]
    summed = [ax for ax in axes_a if ax not in kept]

    def block(scope, values: np.ndarray, groups) -> np.ndarray:
        position = {ax: i for i, ax in enumerate(scope)}
        order = [position[ax] for group in groups for ax in group]
        shape = [math.prod(cards[ax] for ax in group) for group in groups]
        return np.ascontiguousarray(values.transpose(order)).reshape(shape)

    out = np.matmul(block(axes_a, a, (batch, own_a, summed)),
                    block(axes_b, b, (batch, summed, own_b)))
    labels = batch + own_a + own_b
    out = out.reshape([cards[ax] for ax in labels])
    return out.transpose([labels.index(ax) for ax in axes])


def _merged_vectors(scopes, arrays) -> tuple[list[Sequence[int]], list[np.ndarray]]:
    """The operands with the one-axis arrays over each axis multiplied into
    one, placed after the others."""
    vectors: dict[int, list[np.ndarray]] = {}
    scopes_out, arrays_out = [], []
    for scope, array in zip(scopes, arrays):
        if len(scope) == 1:
            vectors.setdefault(scope[0], []).append(array)
        else:
            scopes_out.append(scope)
            arrays_out.append(array)
    scopes_out += [(ax,) for ax in vectors]
    return scopes_out, arrays_out + [math.prod(vs) for vs in vectors.values()]


def _eliminate(
    scopes: Sequence[Sequence[int]], arrays: Sequence[np.ndarray], drop: Container[int]
) -> tuple[tuple[int, ...], np.ndarray]:
    """Product of `arrays`, each over the axes of its scope, with the axes
    in `drop` summed away, in one `_einsum`; the kept axes, ascending, and
    the array over them."""
    kept = tuple(sorted(set().union(*scopes).difference(drop)))
    return kept, _einsum(scopes, arrays, kept)


class Elimination:
    """Variable elimination in place over a network's factors, one bucket
    per variable: the forward pass of `marginalize` and, keeping a record
    of each bucket, of `marginals`. `scopes` and `arrays` list the factors,
    then the messages and later factors as they came. A bucket sets its
    operands' arrays to None and appends its message, over every axis of
    the bucket but its variable (a variable in no operand sends its
    cardinality). `holders` lists, ascending, the positions of the operands
    over each variable, so that no bucket scans the other operands; it is
    built by the first `run`, and `table` needs none."""

    def __init__(self, tn: TensorNetwork, records: bool = True):
        self.universe = tn.universe
        self.scopes: list[tuple[int, ...]] = [f.axes for f in tn.factors]
        self.arrays: list[np.ndarray | None] = [f.values for f in tn.factors]
        self.holders: dict[int, list[int]] = {}
        self.held = 0  # the operands before this position are in `holders`
        self.buckets: list | None = [] if records else None

    def run(self, order: Iterable[int], *factors: Factor) -> Elimination:
        """Add `factors`, over live variables, and eliminate those of `order`.
        A record: variable, operand positions, scopes, arrays, message position."""
        scopes, arrays, holders = self.scopes, self.arrays, self.holders
        scopes += [f.axes for f in factors]
        arrays += [f.values for f in factors]
        for i in range(self.held, len(scopes)):
            for ax in scopes[i]:
                holders.setdefault(ax, []).append(i)
        for v in order:
            positions = [i for i in holders.pop(v, ()) if arrays[i] is not None]
            axes = [scopes[i] for i in positions]
            bucket = [arrays[i] for i in positions]
            if positions:
                kept, out = _eliminate(axes, bucket, (v,))
                for i in positions:
                    arrays[i] = None
                for ax in kept:
                    holders[ax].append(len(arrays))
            else:
                kept, out = (), np.asarray(float(self.universe[v]))
            scopes.append(kept)
            arrays.append(out)
            if self.buckets is not None:
                self.buckets.append((v, positions, axes, bucket, len(arrays) - 1))
        self.held = len(scopes)
        return self

    def table(self) -> tuple[tuple[int, ...], np.ndarray]:
        """The product of the live arrays over their axes, ascending: after a
        run by the order of `collapse(tn, keep)`, its result, bit for bit."""
        live = [i for i, a in enumerate(self.arrays) if a is not None]
        return _eliminate([self.scopes[i] for i in live], [self.arrays[i] for i in live], ())


def marginalize(tn: TensorNetwork, eliminate: Iterable[int]) -> TensorNetwork:
    """Sum the given variables out of the network by variable elimination.

    Each step sums the next variable out of the product of the factors that
    contain it, in one `_einsum` call that never stores the product. The
    minimal-weight heuristic orders two or more variables; one variable,
    or none, is its own order. An `EliminationOrder` of this network's
    factor scopes with the rest kept (as a plan that costed it has one)
    names the variables and is followed as it stands. Only the messages
    left at the end become factors. The result keeps its factored
    structure: for every assignment of the remaining variables, its
    contraction equals the sum of the input's contraction over the
    eliminated ones. A variable carried by no factor contributes its
    cardinality as a scalar.
    """
    targets = {int(v) for v in eliminate}
    missing = targets - set(tn.universe)
    if missing:
        raise UnknownAxisError(f"cannot eliminate {sorted(missing)}: not in the universe")
    if isinstance(eliminate, EliminationOrder):
        order = eliminate
    elif len(targets) < 2:
        order = tuple(targets)
    else:
        order = min_weight_order(
            [f.axes for f in tn.factors], tn.universe, keep=set(tn.universe) - targets
        )
    forward = Elimination(tn, records=False).run(order)  # each bucket freed as it goes
    scopes, arrays = forward.scopes, forward.arrays
    n = len(tn.factors)
    factors = [f for f, a in zip(tn.factors, arrays) if a is not None]
    factors += [trusted(Factor, scopes[i], a) for i, a in enumerate(arrays[n:], n) if a is not None]
    universe = {k: c for k, c in tn.universe.items() if k not in targets}
    return trusted(TensorNetwork, universe, tuple(factors))


def marginals(
    tn: TensorNetwork | Elimination,
    order: Sequence[int] | None = None,
    *,
    outside_of: Iterable[int] | None = None,
) -> dict[int, np.ndarray]:
    """The marginal of the network's contraction on each variable of its
    universe, from one elimination order and two passes over its buckets.

    The forward pass is the `Elimination` of the network by `order`; `tn`
    may instead be an `Elimination` that has eliminated every variable,
    which this call then consumes. The backward pass walks the buckets in
    reverse and gives each message an outside factor over its axes: the
    contraction of everything but the message, which is the product of the
    other final scalars for a message that no bucket takes, and otherwise
    one `_einsum` of the taking bucket's other operands and that bucket's
    own outside factor. A message holds every axis of its bucket except
    the bucket's variable, so only a bucket of one operand adds ones over
    that variable. A bucket's variable then has the marginal `_einsum` of
    the bucket's operands and its outside factor; a variable carried by no
    factor has its outside scalar in every state. No product is ever
    divided out, so zero and negative entries are exact. Each bucket is
    dropped once it has sent its outside factors.

    With `outside_of`, positions in `tn.factors`, the result holds instead
    the outside factor of each of those input factors, by position and over
    the factor's own axes, and no marginal: the backward pass then visits
    only the buckets whose messages lead to one of them. The network's
    contraction is linear in each input factor, so the sum of an input
    times its outside factor is the contraction, and the sum of the outside
    factor alone is the contraction with that input replaced by ones.
    `order`, if given, is the `min_weight_order` of the network's factor
    scopes with nothing kept."""
    if isinstance(tn, TensorNetwork):
        tn = Elimination(tn)
        tn.run(order or min_weight_order(tn.scopes, tn.universe, keep=()))
    scopes, arrays, buckets = tn.scopes, tn.arrays, tn.buckets
    wanted = None if outside_of is None else {int(i) for i in outside_of}

    # The positions that the backward pass gives an outside factor: the
    # wanted inputs, and the message of each visited bucket.
    sends = set(wanted or ())
    for _, positions, _, _, message in buckets:
        if wanted is None or sends.intersection(positions):
            sends.add(message)

    # The live arrays are now scalars that multiply to the contraction;
    # each gets the product of the others, from prefix and suffix products.
    finals = [i for i, a in enumerate(arrays) if a is not None]
    scalars = [float(arrays[i]) for i in finals]
    before = itertools.accumulate(scalars[:-1], operator.mul, initial=1.0)
    after = itertools.accumulate(reversed(scalars[1:]), operator.mul, initial=1.0)
    outside = {i: np.asarray(b * a) for i, b, a in zip(finals, before, [*after][::-1])}

    result = {}
    while buckets:
        v, positions, axes, bucket, message = buckets.pop()
        if message not in sends:
            continue
        out = outside.pop(message)
        if not positions:
            result[v] = np.full(tn.universe[v], float(out))
            continue
        if wanted is None:
            result[v] = _einsum([*axes, scopes[message]], [*bucket, out], (v,))
        for m, i in enumerate(positions):
            if i in sends:
                other_axes = [*axes[:m], *axes[m + 1 :], scopes[message]]
                others = [*bucket[:m], *bucket[m + 1 :], out]
                if len(bucket) == 1:  # `out` holds every axis of the bucket but v
                    other_axes.append((v,))
                    others.append(np.ones(tn.universe[v]))
                outside[i] = _einsum(other_axes, others, axes[m])
    if wanted is None:
        return result
    return {i: outside[i] for i in sorted(wanted)}


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
        if not any(ax in renames for ax in f.axes):
            return f
        return trusted(Factor, *transposed([renames.get(ax, ax) for ax in f.axes], f.values))

    return trusted(TensorNetwork, universe, tn.factors + tuple(map(mirrored, tn.factors)))


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
    reciprocals = tuple(trusted(Factor, f.axes, reciprocal(f.values)) for f in divisor.factors)
    return trusted(TensorNetwork, tn.universe, tn.factors + reciprocals)


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
    factors = [*reduced.factors]
    factors += [trusted(Factor, (v,), np.ones(tn.universe[v])) for v in keep_set - mentioned]
    return trusted(Factor, *_eliminate([f.axes for f in factors], [f.values for f in factors], ()))
