"""Tensor networks over discrete variables and their arithmetic.

A tensor network here is a bag of factors over a universe of variables; its
value at a full assignment is the product of all factor entries. A divisor
enters a network as factors of its zero-safe reciprocals (the one division
rule, `bnsens.tensor.reciprocal`), so dividing costs no more than
multiplying. Marginalization runs variable elimination under the
minimal-weight heuristic and keeps the result factored, which is what makes
squaring/quotient pipelines affordable on evidence sets far too large to
tabulate. Each bucket multiplies its factors and sums the variable away in
one kernel, so its product is never stored; buckets pass bare arrays beside
their axis tuples. Each step is derived from scopes alone, then run, so a
caller can derive every elimination before any array exists: a
contraction's kernel (`_kernel`: its subscripts, the folds of small
operands into larger ones, and one einsum or one batched matmul) by
`_contract`; an elimination's records, each holding its bucket's kernel
(`Schedule.derive`), by `_execute`. `marginals` gives the marginal on every
variable, or on those asked for, from one order: an `Elimination` runs the
buckets forward (stopped before the last variable, it holds that variable's
marginal, and may take one more factor over it), and a backward program
derived from the records (`_backward`) sends each message its outside
factor, by kernels lettered as their forward buckets. A network derived
from checked ones is built without the checks of its constructor (`trusted`).
"""

from __future__ import annotations

import itertools
import math
import operator
import string
import warnings
from collections import namedtuple
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    AxisCardinalityMismatchError,
    ContractionUnderflowWarning,
    StateSpaceTooLargeError,
    UnknownAxisError,
)
from .graph import as_ids, min_weight_order
from .model import DiscreteBayesNet
from .tensor import Factor, transposed, trusted

# Not called here: hooked by bench/spans.py, which looks them up in this module.
from .tensor import factor_div, factor_product, factor_sum_out  # noqa: F401


@dataclass(frozen=True, eq=False)
class TensorNetwork:
    """A set of factors over a universe of variables with cardinalities.

    The factors multiply into the network value; a divisor enters as
    factors of reciprocals (`bnsens.tensor.reciprocal`).
    """

    universe: Mapping[int, int]
    factors: tuple[Factor, ...] = ()

    def __post_init__(self):
        universe = dict(self.universe)
        universe = dict(zip(as_ids(universe, UnknownAxisError), map(int, universe.values())))
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
    kept = range(bn.n) if nodes is None else sorted(set(as_ids(nodes, UnknownAxisError)))
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


# One np.einsum call names its axes with these 52 letters and takes at most
# 31 operands (63 on numpy 2; numpy 1.x keeps one of its 32 slots for the
# output).
EINSUM_LETTERS = string.ascii_letters
EINSUM_OPERANDS = 31
# Buckets spanning at most this many cells skip both steps of a kernel, the
# fold and the matmul route, and go straight to one np.einsum: their Python
# set-up costs more than it saves. Measured on two cores, the matmul
# route took 15-28 us against einsum's 5-12 us for pairs spanning up to
# 3072 cells and won from 12288 cells (31 against 50 us); folding three
# vectors into one beside two copies of a 3^k factor cost 4-8 us more up
# to 729 cells and won from 2187 cells. Above it, both steps copy or
# multiply only arrays with fewer cells than the bucket. Networks that
# pruning leaves small, such as the sparse200 benchmark (largest bucket
# 432 cells), thus never take either. A kernel reads it when derived.
ROUTE_CELLS = 4096
_Backward = namedtuple("_Backward", "finals steps outside")  # a `_backward` program


def _einsum(
    scopes: Sequence[Sequence[int]], arrays: Sequence[np.ndarray], axes: Sequence[int]
) -> np.ndarray:
    """Product of `arrays`, each over the axes of its scope, over exactly
    `axes`, every other axis summed away, without storing the product: the
    `_kernel` of the call, with each cardinality read from the shapes, run
    once by `_contract`."""
    if not arrays:
        return np.ones(())
    cards: dict[int, int] = {}  # in order of first appearance
    for scope, array in zip(scopes, arrays):
        cards.update(zip(scope, array.shape))
    return _contract(_kernel(scopes, cards, axes), arrays)


def _kernel(scopes, cards: Mapping[int, int], axes) -> tuple:
    """The derivation step of a contraction, from scopes alone: the einsum
    subscripts of each of `scopes` and of `axes`, lettered in the order of
    `cards`, the cardinality of each axis, then their `_routed` kernel.
    Over more than 52 axes it raises `StateSpaceTooLargeError`; unless some
    of them have cardinality 1, the product would have at least 2^53 cells."""
    if len(cards) > len(EINSUM_LETTERS):
        raise StateSpaceTooLargeError(
            f"a bucket over {len(cards)} axes exceeds einsum's "
            f"{len(EINSUM_LETTERS)} labels"
        )
    letter = dict(zip(cards, EINSUM_LETTERS)).__getitem__
    strings = tuple(["".join(map(letter, scope)) for scope in scopes])
    return _routed(scopes, (strings, "".join(map(letter, axes))), cards, axes,
                   math.prod(cards.values()))


def _routed(scopes, subscripts: tuple, cards: Mapping[int, int], axes, cells: int) -> tuple:
    """The kernel (cells, subscripts, chunks, folds, operands, route) that
    `_contract` runs, of operands over `scopes` with `subscripts` to `axes`,
    spanning `cells`, chosen from shapes alone (`cards` has every axis). The
    backward pass of `marginals` letters its kernels by a forward kernel's
    subscripts. More than EINSUM_OPERANDS operands are first multiplied in
    chunks, each over its own axes, ascending, and the route is the kernel
    of their results. Above ROUTE_CELLS cells, two steps copy or multiply
    only arrays with fewer cells than the contraction: each operand whose
    axes lie within a smaller operand is folded, by broadcasting, into the
    smallest such one (`_folded`), so that fewer operands meet in each
    cell; two operands left that share every summed axis are one batched
    `np.matmul` (`_outer_pair`): with short axes, einsum's inner loop is a
    few cells long, and matmul's runs over rows. Any other route is one
    `np.einsum` of the subscripts joined (their string form has no length
    cap, unlike the list form)."""
    if len(scopes) > EINSUM_OPERANDS:
        parts = [scopes[i : i + EINSUM_OPERANDS] for i in range(0, len(scopes), EINSUM_OPERANDS)]
        tops = [tuple(sorted(set().union(*part))) for part in parts]
        chunks = [_kernel(part, {ax: cards[ax] for s in part for ax in s}, top)
                  for part, top in zip(parts, tops)]
        return cells, subscripts, tuple(chunks), (), (), _kernel(
            tops, {ax: cards[ax] for s in tops for ax in s}, axes)
    (strings, output), folds, operands = subscripts, (), ()
    if cells > ROUTE_CELLS:
        folds, operands = _folded(scopes, cards, cells)
        if len(operands) == 2 and (pair := _outer_pair(
                *(scopes[i] for i in operands), cards, axes, cells)) is not None:
            return cells, subscripts, (), folds, operands, pair
        strings = [strings[i] for i in operands]
    return cells, subscripts, (), folds, operands, ",".join(strings) + "->" + output


def _contract(kernel: tuple, arrays: Sequence[np.ndarray]) -> np.ndarray:
    """The execution step of a contraction: `kernel` run over `arrays`, one
    per operand it was derived for. The result never shares memory with an
    operand."""
    _, _, chunks, folds, operands, route = kernel
    if chunks:
        width = EINSUM_OPERANDS
        return _contract(route, [_contract(chunk, arrays[n * width : (n + 1) * width])
                                 for n, chunk in enumerate(chunks)])
    if folds:
        arrays = [*arrays]
        for i, h, order, shape in folds:  # smallest first, so each is whole before it folds
            arrays[h] = arrays[h] * (arrays[i] if order is None else
                                     arrays[i].transpose(order).reshape(shape))
        arrays = [arrays[i] for i in operands]
    if type(route) is str:
        out = np.asarray(np.einsum(route, *arrays, optimize=False))  # not a numpy scalar
        if len(arrays) == 1 and np.may_share_memory(out, arrays[0]):
            out = out.copy()  # a lone operand over its own axes comes back as a view
        return out
    order_a, shape_a, order_b, shape_b, shape, order = route
    a, b = arrays
    out = np.matmul(np.ascontiguousarray(a.transpose(order_a)).reshape(shape_a),
                    np.ascontiguousarray(b.transpose(order_b)).reshape(shape_b))
    return out.reshape(shape).transpose(order)


def _outer_pair(axes_a, axes_b, cards: Mapping[int, int], axes, cells: int) -> tuple | None:
    """The pair's contraction over `axes` as one batched matmul: each array's
    transpose to (shared kept, own, summed) order and matrix shape, then the
    shape and transpose of the product's view; None unless every summed axis
    is in both arrays and each has fewer cells than the bucket, `cells` (so
    that neither copy is as large as the bucket)."""
    card = cards.__getitem__
    if math.prod(map(card, axes_a)) >= cells or math.prod(map(card, axes_b)) >= cells:
        return None
    kept = set(axes)
    in_a, in_b = set(axes_a), set(axes_b)
    if in_a - kept != in_b - kept:
        return None  # a summed axis lies in one array only
    batch = [ax for ax in axes_a if ax in in_b and ax in kept]
    own_a = [ax for ax in axes_a if ax not in in_b]
    own_b = [ax for ax in axes_b if ax not in in_a]
    summed = [ax for ax in axes_a if ax not in kept]

    def block(scope, groups) -> tuple:
        return (tuple([scope.index(ax) for group in groups for ax in group]),
                tuple([math.prod(map(card, group)) for group in groups]))

    labels = batch + own_a + own_b
    return (*block(axes_a, (batch, own_a, summed)), *block(axes_b, (batch, summed, own_b)),
            tuple(map(card, labels)), tuple(map(labels.index, axes)))


def _folded(scopes, cards: Mapping[int, int], cells: int) -> tuple[tuple, tuple]:
    """The fold steps of operands over `scopes` (`_routed`), (operand, operand
    it folds into, transpose and shape of its view or None): each into the
    smallest operand of fewer than `cells` cells holding its axes (of equal
    ones, the later), viewed in that operand's axis order with ones for the
    rest; and the positions of the operands left."""
    card = cards.__getitem__
    small = sorted([(size, i) for i, size in enumerate([math.prod(map(card, s)) for s in scopes])
                    if size < cells])
    sets = {i: set(scopes[i]) for _, i in small}
    folds, folded = [], set()
    for n, (_, i) in enumerate(small):
        for _, h in small[n + 1 :]:
            if sets[i] <= sets[h]:
                scope, onto = scopes[i], scopes[h]
                folds.append((i, h, None, None) if scope == onto else (
                    i, h, tuple([scope.index(ax) for ax in onto if ax in sets[i]]),
                    tuple([card(ax) if ax in sets[i] else 1 for ax in onto])))
                folded.add(i)
                break
    return tuple(folds), tuple([i for i in range(len(scopes)) if i not in folded])


class Schedule:
    """Variable elimination over operand scopes alone: `scopes` lists the
    operands, then each message and later operand as it came, `live` those
    that no bucket has taken, and `holders`, ascending, the positions of the
    operands over each variable, so that no bucket scans the others."""

    def __init__(self, universe: Mapping[int, int], scopes: list[tuple[int, ...]]):
        self.universe, self.scopes = universe, scopes  # extended in place
        self.live = [True] * len(scopes)
        self.holders: dict[int, list[int]] = {}
        self.held = 0  # the operands before this position are in `holders`

    def derive(self, order: Iterable[int | None], added: Sequence = ()) -> tuple[tuple, ...]:
        """Add operands over `added`; the record of each bucket of `order`, (v,
        operand positions, their scopes, message scope, message position,
        `_kernel`), which takes its live operands and appends its message,
        over their axes but v, ascending. With no operand the kernel is (v's
        cardinality,), its cells; a None v takes every live operand."""
        universe, scopes, live, holders = self.universe, self.scopes, self.live, self.holders
        scopes += added
        live += [True] * len(added)
        for i in range(self.held, len(scopes)):
            for ax in scopes[i]:
                holders.setdefault(ax, []).append(i)
        records = []
        for v in order:
            holding = range(len(scopes)) if v is None else holders.pop(v, ())
            positions = [i for i in holding if live[i]]
            axes = [scopes[i] for i in positions]
            cards = {ax: universe[ax] for scope in axes for ax in scope}
            kept = tuple(sorted([ax for ax in cards if ax != v]))
            kernel = _kernel(axes, cards, kept) if positions else (universe[v],)
            message = len(scopes)
            for i in positions:
                live[i] = False
            for ax in kept:
                holders[ax].append(message)
            scopes.append(kept)
            live.append(True)
            records.append((v, positions, axes, kept, message, kernel))
        self.held = len(scopes)
        return tuple(records)

    def tabled(self) -> tuple[tuple[int, ...], tuple | None]:
        """Every axis of the live operands, ascending, and the `_kernel` of
        their product over them (None with no operand): `table`'s derivation."""
        scopes = [s for s, alive in zip(self.scopes, self.live) if alive]
        axes = tuple(sorted(set().union(*scopes)))
        cards = {ax: self.universe[ax] for scope in scopes for ax in scope}
        return axes, _kernel(scopes, cards, axes) if scopes else None


class Elimination(Schedule):
    """Variable elimination in place over a network's factors, the forward
    pass of `marginalize`, `collapse` and `marginals`: `run` derives its
    records, then contracts them (`_execute`) over `arrays`, so a resumed pass
    sees its live operands in the order of the network `marginalize` would
    return, then the new factors; it keeps the `records` it ran and, if asked,
    in `buckets` the operands of each."""

    def __init__(self, tn: TensorNetwork, records: bool = True):
        Schedule.__init__(self, tn.universe, [f.axes for f in tn.factors])
        self.arrays: list[np.ndarray | None] = [f.values for f in tn.factors]
        self.records, self.buckets = [], [] if records else None

    def run(self, order: Iterable[int], *factors: Factor, records: Sequence = None,
            kept: dict = None) -> Elimination:
        """Add `factors`, over live variables, and eliminate those of `order`, or replay
        the `records` that `derive` gave for them (a plan's), with the messages
        `kept` (`_execute`); no `derive` follows."""
        self.arrays += [f.values for f in factors]
        if records is None:
            records = self.derive(order, [f.axes for f in factors])
        else:  # `scopes` as `derive` leaves them, and `live` below
            self.scopes += [*(f.axes for f in factors), *(record[3] for record in records)]
        self.records += records
        _execute(records, self.arrays, self.buckets, kept)
        self.live = [a is not None for a in self.arrays]
        return self

    def table(self, derived: tuple = None) -> tuple[tuple[int, ...], np.ndarray]:
        """The product of the live arrays over their axes, ascending, by the
        `tabled` derivation, or the one `derived` from the same scopes: what
        `collapse` returns, after a run by its order."""
        axes, kernel = derived or self.tabled()
        live = [a for a in self.arrays if a is not None]
        return axes, _contract(kernel, live) if live else np.ones(())


def _execute(records: Sequence, arrays: list, buckets: list = None, kept: dict = None) -> list:
    """Each record's `_contract` over `arrays`, by position, appended as its
    message, its operands freed (None) and, in `buckets`, kept in its place. A
    message that `kept` holds by position is taken, and one it maps to None
    is put there once contracted."""
    kept = {} if kept is None else kept
    for _, positions, _, _, message, kernel in records:
        bucket = [arrays[i] for i in positions]
        if (out := kept.get(message)) is None:
            out = _contract(kernel, bucket) if bucket else np.asarray(float(kernel[0]))
            if message in kept:
                kept[message] = out
        arrays.append(out)
        for i in positions:
            arrays[i] = None
        if buckets is not None:
            buckets.append(bucket)
    return arrays


def _executed(records: Sequence[tuple], arrays: Sequence, kept: dict = None) -> list[np.ndarray]:
    """The arrays that `records`, with `kept`, leave live over `arrays`, which stay as they are."""
    return [a for a in _execute(records, [*arrays], None, kept) if a is not None]


def _program(universe: Mapping[int, int], scopes, order) -> tuple[tuple, list]:
    """The records of `order` over operands of `scopes`, derived with no
    array, and the scopes of the live operands, which `_executed` returns."""
    schedule = Schedule(universe, [*scopes])
    return schedule.derive(order), [s for s, alive in zip(schedule.scopes, schedule.live) if alive]


def _order(scopes, universe: Mapping[int, int], keep: set[int]) -> Sequence[int]:
    """The elimination order of the variables outside `keep`: fewer than two
    are their own order, more take the `min_weight_order` of the `scopes`."""
    eliminate = set(universe) - keep
    if len(eliminate) < 2:
        return tuple(eliminate)
    return min_weight_order(scopes, universe, keep=keep)


def marginalize(tn: TensorNetwork, eliminate: Iterable[int]) -> TensorNetwork:
    """Sum the given variables out of the network by variable elimination.

    Each step sums the next variable out of the product of the factors that
    contain it, in one `_contract` call that never stores the product, by
    the order of `_order`. Only the messages left at the end become
    factors. The result keeps its factored structure: for every assignment
    of the remaining variables, its contraction equals the sum of the
    input's contraction over the eliminated ones. A variable carried by no
    factor contributes its cardinality as a scalar.
    """
    targets = set(as_ids(eliminate, UnknownAxisError))
    missing = targets - set(tn.universe)
    if missing:
        raise UnknownAxisError(f"cannot eliminate {sorted(missing)}: not in the universe")
    forward = Elimination(tn, records=False)  # each bucket freed as it goes
    order = _order(forward.scopes, tn.universe, set(tn.universe) - targets)
    scopes, arrays, live = forward.run(order).scopes, forward.arrays, forward.live
    n = len(tn.factors)
    factors = [f for f, alive in zip(tn.factors, live) if alive]
    factors += [trusted(Factor, scopes[i], arrays[i]) for i in range(n, len(live)) if live[i]]
    universe = {k: c for k, c in tn.universe.items() if k not in targets}
    return trusted(TensorNetwork, universe, tuple(factors))


def marginals(
    tn: TensorNetwork | Elimination,
    *,
    of: Iterable[int] | None = None,
    outside_of: Iterable[int] | None = None,
    program: _Backward | None = None,
) -> dict[int, np.ndarray]:
    """The marginal of the network's contraction on each variable of its
    universe, or of `of` alone, from one elimination order and two passes
    over its buckets.

    The forward pass is the `Elimination` of the network by the `_order`
    of its factor scopes; `tn` may instead be an `Elimination` that has
    eliminated every variable, which this call then consumes. The backward
    pass runs the `_backward` program of the forward records, or `program`,
    one derived before from them (`of` and `outside_of` are then not read).
    It gives each message an outside factor over its axes, the contraction
    of everything but the message: the product of the other final scalars
    for a message that no bucket takes, else one `_contract` of the taking
    bucket's other operands and that bucket's own outside factor. A
    bucket's variable has the marginal `_contract` of the bucket's operands
    and its outside factor; a variable carried by no factor has its outside
    scalar in every state. No product is ever divided out, so zero and
    negative entries are exact. Each bucket is dropped once it has sent its
    outside factors, and only the wanted buckets are visited: those of the
    variables asked for, and those whose messages lead to one of them.

    With `outside_of`, positions in `tn.factors`, the result holds instead
    the outside factor of each of those input factors, by position and over
    the factor's own axes, and no marginal (`of` is not read); the wanted
    buckets are then those that take one of the inputs. The network's
    contraction is linear in each input factor, so the sum of an input
    times its outside factor is the contraction, and the sum of the outside
    factor alone is the contraction with that input replaced by ones."""
    if isinstance(tn, TensorNetwork):
        tn = Elimination(tn)
        tn.run(_order(tn.scopes, tn.universe, set()))
    finals, steps, wanted = program or _backward(tn.universe, tn.records, tn.live, of, outside_of)
    arrays, buckets = tn.arrays, tn.buckets

    # The live arrays are now scalars that multiply to the contraction;
    # each gets the product of the others, from prefix and suffix products.
    scalars = [float(arrays[i]) for i in finals]
    before = itertools.accumulate(scalars[:-1], operator.mul, initial=1.0)
    after = itertools.accumulate(reversed(scalars[1:]), operator.mul, initial=1.0)
    outside = {i: np.asarray(b * a) for i, b, a in zip(finals, before, [*after][::-1])}

    result = {}
    for r, message, v, card, marginal, sent in steps:
        out = outside.pop(message)
        bucket = buckets[r]
        del buckets[r:]
        if card is not None:  # a bucket with no operand
            result[v] = np.full(card, float(out))
        elif marginal:
            result[v] = _contract(marginal, [*bucket, out])
        for m, i, ones, kernel in sent:
            others = [*bucket[:m], *bucket[m + 1 :], out]
            if ones is not None:  # `out` holds every axis of the bucket but v
                others.append(np.ones(ones))
            outside[i] = _contract(kernel, others)
    buckets.clear()
    return result if wanted is None else {i: outside[i] for i in wanted}


def _backward(universe: Mapping[int, int], records: Sequence, live: Sequence[bool],
              of: Iterable[int] = None, outside_of: Iterable[int] = None) -> _Backward:
    """The backward pass of `marginals` over the forward `records`, whose
    untaken operands `live` flags, derived with no array: the final
    positions; per wanted bucket, in reverse, (record index, message, v, its
    cardinality if the bucket has no operand, v's marginal kernel or False,
    and per operand sent an outside factor (index in the bucket, position,
    the cardinality of the ones over v a lone operand adds, or None,
    kernel)); the `outside_of` positions."""
    wanted = set(as_ids(outside_of or (), IndexError))
    variables = set() if outside_of is not None else set(
        universe if of is None else as_ids(of, UnknownAxisError))
    # The positions that the backward pass gives an outside factor: the
    # wanted inputs, and the message of each visited bucket.
    sends = set(wanted)
    for v, positions, _, _, message, _ in records:
        if v in variables or not sends.isdisjoint(positions):
            sends.add(message)
    steps = []
    for r in reversed(range(len(records))):
        v, positions, axes, scope, message, kernel = records[r]
        if message not in sends:
            continue
        if not positions:
            steps.append((r, message, v, universe[v], None, ()))
            continue
        cells, (strings, output) = kernel[:2]
        scopes, strings = (*axes, scope), (*strings, output)
        letter = strings[0][axes[0].index(v)]  # every operand holds v
        marginal = v in variables and _routed(scopes, (strings, letter), universe, (v,), cells)
        ones = universe[v] if len(positions) == 1 else None
        if ones is not None:  # `out` holds every axis of the bucket but v
            scopes, strings = (*scopes, (v,)), (*strings, letter)
        sent = []
        for m, i in enumerate(positions):
            if i in sends:
                others = [*scopes[:m], *scopes[m + 1 :]]
                subscripts = (*strings[:m], *strings[m + 1 :]), strings[m]
                sent.append((m, i, ones, _routed(others, subscripts, universe, axes[m], cells)))
        steps.append((r, message, v, None, marginal, tuple(sent)))
    finals = tuple(i for i, alive in enumerate(live) if alive)
    return _Backward(finals, tuple(steps), None if outside_of is None else tuple(sorted(wanted)))


def contract_all(tn: TensorNetwork) -> float:
    """Marginalize the whole universe and return the resulting scalar."""
    return _checked(float(collapse(tn, ()).values), [f.values for f in tn.factors])


def _checked(value: float, arrays: Iterable[np.ndarray]) -> float:
    """`value`, the contraction of `arrays`: subnormal from entries that
    are all normal or zero, it warns ContractionUnderflowWarning."""
    tiny = np.finfo(np.float64).tiny
    if 0.0 < abs(value) < tiny and not any((np.abs(a[a != 0.0]) < tiny).any() for a in arrays):
        message = f"contraction underflowed to subnormal {value!r}"
        warnings.warn(message, ContractionUnderflowWarning, stacklevel=3)
    return value


def square_wrt(tn: TensorNetwork, shared: Iterable[int]) -> TensorNetwork:
    """Square of the network with respect to `shared`.

    Every variable outside `shared` gets a fresh replica id (original plus a
    stride past the largest id in the universe), and every factor gains a
    mirrored copy with its non-shared axes renamed to the replicas. For each
    assignment of the shared variables, contracting the result over both the
    originals and the replicas equals the square of the input's contraction
    over the originals.
    """
    shared_set = set(as_ids(shared, UnknownAxisError))
    missing = shared_set - set(tn.universe)
    if missing:
        raise UnknownAxisError(f"shared variables {sorted(missing)} not in universe")
    _, universe, scopes = squared_scopes(tn.universe, [f.axes for f in tn.factors], shared_set)
    mirrored = (f if axes == f.axes else trusted(Factor, *transposed(axes, f.values))
                for f, axes in zip(tn.factors, scopes[len(tn.factors):]))
    return trusted(TensorNetwork, universe, tn.factors + tuple(mirrored))


def squared_scopes(universe: Mapping[int, int], scopes: Sequence, shared=frozenset()) -> tuple:
    """`square_wrt`'s layout over `universe` and factor `scopes`: the replica
    of each variable outside `shared` (itself plus a stride past the largest
    id), the universe and the scopes with the replicas and the mirrored
    copies after the originals (ascending with no `shared`)."""
    stride = max(universe) + 1 if universe else 0
    replicas = {v: v + stride for v in sorted(set(universe) - shared)}
    squared = {**universe, **{r: universe[v] for v, r in replicas.items()}}
    return replicas, squared, [*scopes, *(tuple(replicas.get(v, v) for v in s) for s in scopes)]


def collapse(tn: TensorNetwork, keep: Iterable[int]) -> Factor:
    """The tabulated marginal of the network over `keep`, a factor over
    exactly the `keep` axes, ascending: the `table` of one `Elimination` of
    every other variable by `_order`, with ones over each kept variable
    that no live array carries, so that its axis comes out constant."""
    keep_set = set(as_ids(keep, UnknownAxisError))
    missing = keep_set - set(tn.universe)
    if missing:
        raise UnknownAxisError(f"keep variables {sorted(missing)} not in universe")
    forward = Elimination(tn, records=False)
    forward.run(_order(forward.scopes, tn.universe, keep_set))
    carried = {ax for scope, alive in zip(forward.scopes, forward.live) if alive for ax in scope}
    ones = [trusted(Factor, (v,), np.ones(tn.universe[v])) for v in keep_set - carried]
    return trusted(Factor, *forward.run((), *ones).table())
