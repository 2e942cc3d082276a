"""Dense factors over integer variable axes.

The engine uses only `Factor`: `bnsens.network` contracts whole buckets in
one kernel. `factor_product`, `factor_sum_out` and `factor_div` (a guarded
pointwise division) remain as plain references for the tests and as the
functions that `bench/spans.py` hooks."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import AxisCardinalityMismatchError, DivisionByZeroError, UnknownAxisError

# Numerators at or below this magnitude divide to 0 over a zero denominator.
ZERO_NUMERATOR_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class Factor:
    """A dense real array over an ascending tuple of variable ids.

    `values.shape` holds the per-axis cardinalities; entries are row-major
    in axis order. Factors are immutable values.
    """

    axes: tuple[int, ...]
    values: np.ndarray

    def __post_init__(self):
        axes = tuple(int(a) for a in self.axes)
        values = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "axes", axes)
        object.__setattr__(self, "values", values)
        if list(axes) != sorted(set(axes)):
            raise ValueError(f"axes must be unique and ascending, got {axes}")
        if values.ndim != len(axes):
            raise ValueError(f"{values.ndim}-d values for {len(axes)} axes")

    @classmethod
    def of(cls, axes: Iterable[int], values) -> "Factor":
        """Build a factor from axes in any order, transposing into the
        canonical ascending layout."""
        axes = [int(a) for a in axes]
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != len(axes):
            raise ValueError(f"{values.ndim}-d values for {len(axes)} axes")
        return cls(*transposed(axes, values))

    @classmethod
    def scalar(cls, value: float) -> "Factor":
        return cls((), np.asarray(float(value)))


def transposed(axes: Sequence[int], values: np.ndarray) -> tuple[tuple[int, ...], np.ndarray]:
    """The axes ascending and `values` over them in that order, a view."""
    ascending = tuple(sorted(axes))
    if ascending == tuple(axes):
        return ascending, values
    return ascending, values.transpose(sorted(range(len(axes)), key=axes.__getitem__))


def trusted(cls, *fields):
    """An instance of the frozen dataclass `cls` with these fields, in order,
    made without `__post_init__`: for fields that would pass its checks."""
    self = object.__new__(cls)
    self.__dict__.update(zip(cls.__dataclass_fields__, fields))
    return self


def _merged_axes(a: Factor, b: Factor) -> tuple[tuple[int, ...], tuple[int, ...]]:
    cards: dict[int, int] = {}
    for f in (a, b):
        for ax, card in zip(f.axes, f.values.shape):
            if cards.setdefault(ax, card) != card:
                raise AxisCardinalityMismatchError(
                    f"axis {ax}: cardinality {cards[ax]} vs {card}"
                )
    axes = tuple(sorted(cards))
    return axes, tuple(cards[ax] for ax in axes)


def _expanded(f: Factor, axes: tuple[int, ...]) -> np.ndarray:
    """View of f.values with size-1 dims inserted for the missing axes.

    Valid because f.axes is a subsequence of the (ascending) merged axes.
    """
    if f.axes == axes:
        return f.values
    view = [1] * len(axes)
    for ax, card in zip(f.axes, f.values.shape):
        view[axes.index(ax)] = card
    return f.values.reshape(view)


def factor_product(a: Factor, b: Factor) -> Factor:
    """Pointwise product over the union of axes."""
    axes, _ = _merged_axes(a, b)
    return Factor(axes, _expanded(a, axes) * _expanded(b, axes))


def factor_sum_out(a: Factor, variables: Iterable[int]) -> Factor:
    """Sum the given axes away; the result ranges over the remaining ones."""
    drop = {int(v) for v in variables}
    unknown = drop - set(a.axes)
    if unknown:
        raise UnknownAxisError(f"cannot sum out {sorted(unknown)}: not axes of {a.axes}")
    if not drop:
        return a
    positions = tuple(i for i, ax in enumerate(a.axes) if ax in drop)
    kept = tuple(ax for ax in a.axes if ax not in drop)
    return Factor(kept, a.values.sum(axis=positions))


def factor_div(a: Factor, b: Factor) -> Factor:
    """Pointwise a / b over the union of axes.

    Cells where b is zero yield 0 provided |a| <= ZERO_NUMERATOR_TOL there;
    a genuinely nonzero numerator over a zero denominator raises, since it
    signals an inconsistent network rather than zero-probability evidence.
    """
    axes, shape = _merged_axes(a, b)
    num = np.broadcast_to(_expanded(a, axes), shape)
    den = np.broadcast_to(_expanded(b, axes), shape)
    zero = den == 0.0
    if zero.any():
        if (zero & (np.abs(num) > ZERO_NUMERATOR_TOL)).any():
            raise DivisionByZeroError("nonzero numerator over zero potential")
        out = np.divide(num, den, out=np.zeros(shape), where=~zero)
    else:
        out = num / den
    return Factor(axes, out)

