"""Discrete Bayesian networks: variables, CPTs, validation, and the
output/evidential/chance partition used by the sensitivity pipeline."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import (
    CyclicGraphError,
    EmptyEvidenceSetError,
    InvalidAssignmentError,
    MissingValueMapError,
    OverlappingPartitionError,
    PartitionError,
    ShapeMismatchError,
    UnnormalizedCptError,
    ValidationError,
)
from .graph import as_ids

ROW_SUM_TOL = 1e-9
ENTRY_RANGE_TOL = 1e-12


@dataclass(frozen=True)
class Variable:
    """A named variable with a finite, ordered domain of labels."""

    id: int
    name: str
    domain: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "domain", tuple(str(d) for d in self.domain))

    @property
    def cardinality(self) -> int:
        return len(self.domain)

    def index_of(self, label: str) -> int:
        try:
            return self.domain.index(label)
        except ValueError:
            raise InvalidAssignmentError(
                f"variable {self.name!r} has no label {label!r}"
            ) from None


@dataclass(frozen=True, eq=False)
class Cpt:
    """Conditional probability table of one node given its listed parents.

    Rows enumerate parent configurations row-major over the listed parent
    order; columns enumerate the child domain. Root nodes have an empty
    parent list and a single row. The table is a read-only copy of the
    given array, so a network that passed validation cannot change later.
    """

    child: int
    parents: tuple[int, ...]
    table: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "child", int(self.child))
        object.__setattr__(self, "parents", tuple(int(p) for p in self.parents))
        table = np.array(self.table, dtype=np.float64)
        if table.ndim == 1:
            table = table.reshape(1, -1)
        table.flags.writeable = False
        object.__setattr__(self, "table", table)


@dataclass(frozen=True, eq=False)
class DiscreteBayesNet:
    """Variables plus one CPT per variable; edges are implied by the CPT
    parent lists. Construction runs `validate_network`, so every instance
    is valid, and it is immutable afterwards."""

    variables: tuple[Variable, ...]
    cpts: tuple[Cpt, ...]

    def __post_init__(self):
        object.__setattr__(self, "variables", tuple(self.variables))
        object.__setattr__(
            self, "cpts", tuple(sorted(self.cpts, key=lambda c: c.child))
        )
        validate_network(self)

    @property
    def n(self) -> int:
        return len(self.variables)

    def variable_named(self, name: str) -> Variable:
        for v in self.variables:
            if v.name == name:
                return v
        raise InvalidAssignmentError(f"no variable named {name!r}")

    def roots(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.n) if not self.cpts[i].parents)

    def dag(self) -> tuple[tuple[int, ...], ...]:
        """The parent tuple of each variable, the DAG form of `bnsens.graph`."""
        return tuple(c.parents for c in self.cpts)


def validate_network(bn: DiscreteBayesNet) -> None:
    """Check every structural invariant; raise on the first violation.
    Every `DiscreteBayesNet` runs this once, when it is built.

    This is the only check of the parent lists: each parent in range, not
    the node itself, not repeated, and no directed cycle. Raises
    CyclicGraphError, UnnormalizedCptError, ShapeMismatchError, or a
    generic ValidationError naming the offending node.
    """
    n = len(bn.variables)
    if n == 0:
        raise ValidationError("network has no variables")
    for pos, v in enumerate(bn.variables):
        if v.id != pos:
            raise ValidationError(
                f"variable ids must be dense 0..{n - 1}; position {pos} has id {v.id}"
            )
        if v.cardinality < 2:
            raise ValidationError(f"variable {v.name!r} needs at least 2 labels")
        if len(set(v.domain)) != len(v.domain):
            raise ValidationError(f"variable {v.name!r} repeats a domain label")
    names = [v.name for v in bn.variables]
    if len(set(names)) != n:
        dup = sorted({x for x in names if names.count(x) > 1})
        raise ValidationError(f"duplicate variable names {dup}")
    if len(bn.cpts) != n or any(c.child != i for i, c in enumerate(bn.cpts)):
        raise ValidationError("network must carry exactly one CPT per variable")
    for i, cpt in enumerate(bn.cpts):
        for p in cpt.parents:
            if not 0 <= p < n:
                raise ValidationError(f"node {names[i]!r}: parent id {p} out of range")
        if i in cpt.parents:
            raise ValidationError(f"node {names[i]!r} lists itself as a parent")
        if len(set(cpt.parents)) != len(cpt.parents):
            raise ValidationError(f"node {names[i]!r} repeats a parent")
    _check_acyclic(bn.dag())
    for i, cpt in enumerate(bn.cpts):
        rows = 1
        for p in cpt.parents:
            rows *= bn.variables[p].cardinality
        expected = (rows, bn.variables[i].cardinality)
        if cpt.table.shape != expected:
            raise ShapeMismatchError(
                f"node {names[i]!r}: table shape {cpt.table.shape}, expected {expected}"
            )
        lo, hi = cpt.table.min(), cpt.table.max()
        if not (lo >= -ENTRY_RANGE_TOL and hi <= 1.0 + ENTRY_RANGE_TOL):  # NaN fails too
            raise UnnormalizedCptError(f"node {names[i]!r}: entries outside [0, 1]")
        sums = cpt.table.sum(axis=1)
        off = np.abs(sums - 1.0)
        if off.max() > ROW_SUM_TOL:
            r = int(off.argmax())
            raise UnnormalizedCptError(
                f"node {names[i]!r}: row {r} sums to {sums[r]!r}"
            )


def _check_acyclic(parent_lists: tuple[tuple[int, ...], ...]) -> None:
    # Kahn's algorithm over the child relation.
    n = len(parent_lists)
    outstanding = [len(ps) for ps in parent_lists]
    child_lists: list[list[int]] = [[] for _ in range(n)]
    for v, ps in enumerate(parent_lists):
        for p in ps:
            child_lists[p].append(v)
    ready = deque(v for v in range(n) if outstanding[v] == 0)
    seen = 0
    while ready:
        v = ready.popleft()
        seen += 1
        for c in child_lists[v]:
            outstanding[c] -= 1
            if outstanding[c] == 0:
                ready.append(c)
    if seen != n:
        cyclic = sorted(v for v in range(n) if outstanding[v] > 0)
        raise CyclicGraphError(f"directed cycle through vertices {cyclic}")


def joint_probability(bn: DiscreteBayesNet, assignment: Mapping[str, str]) -> float:
    """Probability of one full assignment (variable name -> label): the
    product of each node's CPT entry given its parents."""
    extra = set(assignment) - {v.name for v in bn.variables}
    if extra:
        raise InvalidAssignmentError(f"unknown variables {sorted(extra)}")
    values: dict[int, int] = {}
    for v in bn.variables:
        if v.name not in assignment:
            raise InvalidAssignmentError(f"assignment misses variable {v.name!r}")
        values[v.id] = v.index_of(assignment[v.name])
    p = 1.0
    for i, cpt in enumerate(bn.cpts):
        row = 0
        for parent in cpt.parents:
            row = row * bn.variables[parent].cardinality + values[parent]
        p *= cpt.table[row, values[i]]
    return float(p)


@dataclass(frozen=True, eq=False)
class AnalysisSpec:
    """Output node, evidential set, and the numeric map for output labels.

    The chance set is the complement of {output} and the evidential set.
    """

    output: int
    evidential: frozenset[int]
    value_map: Mapping[str, float]

    def __post_init__(self):
        object.__setattr__(self, "output", as_ids([self.output], PartitionError)[0])
        object.__setattr__(self, "evidential", frozenset(as_ids(self.evidential, PartitionError)))
        object.__setattr__(
            self, "value_map", {str(k): float(v) for k, v in dict(self.value_map).items()}
        )


def output_values(bn: DiscreteBayesNet, spec: AnalysisSpec) -> np.ndarray:
    """The value map applied to the output domain, in domain order; every
    label needs a finite value, and the map may name no other label."""
    domain = bn.variables[spec.output].domain
    name = bn.variables[spec.output].name
    missing = [label for label in domain if label not in spec.value_map]
    if missing:
        raise MissingValueMapError(f"value map misses label(s) {missing} of output {name!r}")
    unknown = sorted(set(spec.value_map) - set(domain))
    if unknown:
        raise InvalidAssignmentError(
            f"value map names label(s) {unknown} that output {name!r} does not have"
        )
    values = np.array([spec.value_map[label] for label in domain], dtype=np.float64)
    bad = [label for label, x in zip(domain, values) if not np.isfinite(x)]
    if bad:
        raise MissingValueMapError(
            f"value map gives label(s) {bad} of output {name!r} no finite value"
        )
    return values


def validate_partition(bn: DiscreteBayesNet, spec: AnalysisSpec) -> None:
    """Check the O/E/U partition and value-map coverage against a network."""
    if not 0 <= spec.output < bn.n:
        raise PartitionError(f"output id {spec.output} out of range")
    out_of_range = sorted(i for i in spec.evidential if not 0 <= i < bn.n)
    if out_of_range:
        raise PartitionError(f"evidential ids {out_of_range} out of range")
    if spec.output in spec.evidential:
        raise OverlappingPartitionError(
            f"output node {bn.variables[spec.output].name!r} is also evidential"
        )
    if not spec.evidential:
        raise EmptyEvidenceSetError("the evidential set is empty")
    output_values(bn, spec)
