import itertools

import numpy as np
import pytest

from bnsens import (
    AnalysisSpec,
    ComputeOptions,
    Cpt,
    CyclicGraphError,
    DiscreteBayesNet,
    EmptyEvidenceSetError,
    InvalidAssignmentError,
    MissingValueMapError,
    NativeDocument,
    OverlappingPartitionError,
    PartitionError,
    ShapeMismatchError,
    UnnormalizedCptError,
    ValidationError,
    Variable,
    compute_all,
    joint_probability,
    load_native,
    output_values,
    save_native,
    validate_network,
    validate_partition,
)
from bnsens.oracle import brute_force_indices, mc_indices
from helpers import relabeled_network


def test_chain_is_valid(chain):
    validate_network(chain)


def test_unnormalized_row_is_rejected():
    variables = (Variable(0, "E", ("0", "1")), Variable(1, "O", ("0", "1")))
    cpts = (Cpt(0, (), [[0.7, 0.3]]), Cpt(1, (0,), [[0.8, 0.3], [0.1, 0.9]]))
    with pytest.raises(UnnormalizedCptError, match="'O'"):
        validate_network(DiscreteBayesNet(variables, cpts))


def test_cycle_is_rejected():
    variables = (
        Variable(0, "A", ("0", "1")),
        Variable(1, "B", ("0", "1")),
        Variable(2, "C", ("0", "1")),
    )
    cpts = (
        Cpt(0, (), [[0.5, 0.5]]),
        Cpt(1, (2,), [[0.5, 0.5], [0.5, 0.5]]),
        Cpt(2, (1,), [[0.5, 0.5], [0.5, 0.5]]),
    )
    with pytest.raises(CyclicGraphError):
        validate_network(DiscreteBayesNet(variables, cpts))


def test_shape_mismatch_is_rejected():
    variables = (Variable(0, "A", ("0", "1")), Variable(1, "B", ("0", "1", "2")))
    cpts = (Cpt(0, (), [[0.5, 0.5]]), Cpt(1, (0,), [[0.5, 0.5], [0.5, 0.5]]))
    with pytest.raises(ShapeMismatchError, match="'B'"):
        validate_network(DiscreteBayesNet(variables, cpts))


def test_duplicate_names_rejected():
    variables = (Variable(0, "A", ("0", "1")), Variable(1, "A", ("0", "1")))
    cpts = (Cpt(0, (), [[0.5, 0.5]]), Cpt(1, (), [[0.5, 0.5]]))
    with pytest.raises(ValidationError, match="duplicate"):
        validate_network(DiscreteBayesNet(variables, cpts))


def test_nan_entry_is_rejected():
    variables = (Variable(0, "E", ("0", "1")), Variable(1, "O", ("0", "1")))
    cpts = (Cpt(0, (), [[np.nan, np.nan]]), Cpt(1, (0,), [[0.8, 0.2], [0.1, 0.9]]))
    with pytest.raises(UnnormalizedCptError, match="'E'"):
        DiscreteBayesNet(variables, cpts)


def _binary(*names):
    return tuple(Variable(i, name, ("0", "1")) for i, name in enumerate(names))


_ROOT = [[0.5, 0.5]]
_ONE_PARENT = [[0.9, 0.1], [0.2, 0.8]]


# validate_network is the only check of a network's parents.
@pytest.mark.parametrize(
    "variables, cpts, error, match",
    [
        ((), (), ValidationError, "no variables"),
        ((Variable(1, "A", ("0", "1")), Variable(0, "B", ("0", "1"))),
         (Cpt(0, (), _ROOT), Cpt(1, (), _ROOT)), ValidationError, "dense"),
        (_binary("A", "B"), (Cpt(0, (), _ROOT),), ValidationError, "one CPT"),
        (_binary("A", "B"), (Cpt(0, (), _ROOT), Cpt(5, (), _ROOT)),
         ValidationError, "one CPT"),
        (_binary("A", "B"), (Cpt(0, (), _ROOT), Cpt(1, (2,), _ONE_PARENT)),
         ValidationError, "parent id 2 out of range"),
        (_binary("A", "B"), (Cpt(0, (), _ROOT), Cpt(1, (-1,), _ONE_PARENT)),
         ValidationError, "parent id -1 out of range"),
        (_binary("A", "B"), (Cpt(0, (), _ROOT), Cpt(1, (1,), _ONE_PARENT)),
         ValidationError, "itself"),
        (_binary("A", "B"), (Cpt(0, (), _ROOT), Cpt(1, (0, 0), [[0.5, 0.5]] * 4)),
         ValidationError, "repeats a parent"),
        (_binary("A", "B"), (Cpt(0, (1,), _ONE_PARENT), Cpt(1, (0,), _ONE_PARENT)),
         CyclicGraphError, "cycle"),
    ],
    ids=["empty", "non-dense-ids", "cpt-count", "cpt-child", "parent-above",
         "parent-below", "self-parent", "repeated-parent", "cycle"],
)
def test_network_validation_errors(variables, cpts, error, match):
    with pytest.raises(error, match=match) as info:
        DiscreteBayesNet(variables, cpts)
    assert type(info.value) is error


def test_cpt_table_is_a_read_only_copy(chain):
    with pytest.raises(ValueError):
        chain.cpts[0].table[0, 0] = 0.5
    rows = np.array([[0.7, 0.3]])
    cpt = Cpt(0, (), rows)
    rows[0, 0] = 0.1
    assert cpt.table[0, 0] == 0.7


def test_joint_probability_chain(chain):
    # Pr(E=1) * Pr(O=1 | E=1) = 0.3 * 0.9
    assert joint_probability(chain, {"E": "1", "O": "1"}) == pytest.approx(0.27, abs=1e-15)


def test_joint_probability_zero_entry():
    variables = (Variable(0, "A", ("0", "1")), Variable(1, "B", ("0", "1")))
    cpts = (Cpt(0, (), [[1.0, 0.0]]), Cpt(1, (0,), [[0.5, 0.5], [0.5, 0.5]]))
    bn = DiscreteBayesNet(variables, cpts)
    assert joint_probability(bn, {"A": "1", "B": "0"}) == 0.0


def test_joint_probability_rejects_bad_assignments(chain):
    with pytest.raises(InvalidAssignmentError):
        joint_probability(chain, {"E": "0"})
    with pytest.raises(InvalidAssignmentError):
        joint_probability(chain, {"E": "0", "O": "2"})
    with pytest.raises(InvalidAssignmentError):
        joint_probability(chain, {"E": "0", "O": "0", "Z": "0"})


def test_joint_sums_to_one(five_node):
    total = 0.0
    labels = [v.domain for v in five_node.variables]
    names = [v.name for v in five_node.variables]
    for combo in itertools.product(*labels):
        total += joint_probability(five_node, dict(zip(names, combo)))
    assert total == pytest.approx(1.0, abs=1e-9)


def test_joint_sums_to_one_random_networks():
    from bnsens import generate_random_bn

    for seed in (0, 1, 2):
        bn = generate_random_bn(seed, 8, 3, (2, 3))
        names = [v.name for v in bn.variables]
        labels = [v.domain for v in bn.variables]
        total = sum(
            joint_probability(bn, dict(zip(names, combo)))
            for combo in itertools.product(*labels)
        )
        assert total == pytest.approx(1.0, abs=1e-9)


def test_joint_factorization_structure(five_node):
    # The five family factors of the 0->2, 0->3, 1->3, 2->4, 3->4 graph.
    assignment = {v.name: v.domain[0] for v in five_node.variables}
    expected = 1.0
    for i, cpt in enumerate(five_node.cpts):
        row = 0
        for p in cpt.parents:
            row = row * 2 + 0
        expected *= cpt.table[row, 0]
    assert joint_probability(five_node, assignment) == pytest.approx(expected, rel=1e-12)


def test_joint_invariant_under_relabeling(five_node):
    perm = [3, 0, 4, 1, 2]
    relabeled = relabeled_network(five_node, perm)
    validate_network(relabeled)
    assignment = {"V0": "1", "V1": "0", "V2": "1", "V3": "0", "V4": "1"}
    assert joint_probability(five_node, assignment) == pytest.approx(
        joint_probability(relabeled, assignment), rel=1e-12
    )


def test_partition_valid(chain, chain_analysis):
    validate_partition(chain, chain_analysis)


@pytest.mark.parametrize(
    "output, evidential, error",
    [
        (2, {0}, PartitionError),
        (-1, {0}, PartitionError),
        (1, {0, 2}, PartitionError),
        (1, {-1}, PartitionError),
        (1, {0, 1}, OverlappingPartitionError),
        (1, set(), EmptyEvidenceSetError),
    ],
    ids=["output-above", "output-below", "evidence-above", "evidence-below",
         "overlap", "empty-evidence"],
)
def test_partition_errors(chain, output, evidential, error):
    spec = AnalysisSpec(output, frozenset(evidential), {"0": 0.0, "1": 1.0})
    with pytest.raises(error) as info:
        validate_partition(chain, spec)
    assert type(info.value) is error


def test_partition_overlap(chain):
    spec = AnalysisSpec(1, frozenset({0, 1}), {"0": 0.0, "1": 1.0})
    with pytest.raises(OverlappingPartitionError):
        validate_partition(chain, spec)


def test_partition_empty_evidence(chain):
    spec = AnalysisSpec(1, frozenset(), {"0": 0.0, "1": 1.0})
    with pytest.raises(EmptyEvidenceSetError):
        validate_partition(chain, spec)


def test_partition_missing_value_map():
    variables = (Variable(0, "E", ("0", "1")), Variable(1, "O", ("low", "medium", "high")))
    rows = [[0.2, 0.3, 0.5], [0.5, 0.4, 0.1]]
    bn = DiscreteBayesNet(variables, (Cpt(0, (), [[0.5, 0.5]]), Cpt(1, (0,), rows)))
    spec = AnalysisSpec(1, frozenset({0}), {"low": 0.0, "medium": 1.0})
    with pytest.raises(MissingValueMapError, match="high"):
        validate_partition(bn, spec)


def test_output_values_in_domain_order():
    variables = (Variable(0, "E", ("0", "1")), Variable(1, "O", ("low", "medium", "high")))
    rows = [[0.2, 0.3, 0.5], [0.5, 0.4, 0.1]]
    bn = DiscreteBayesNet(variables, (Cpt(0, (), [[0.5, 0.5]]), Cpt(1, (0,), rows)))
    spec = AnalysisSpec(1, frozenset({0}), {"high": 2.0, "low": 0.0, "medium": 1.0})
    assert output_values(bn, spec).tolist() == [0.0, 1.0, 2.0]


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_value_map_is_rejected(chain, value):
    spec = AnalysisSpec(1, frozenset({0}), {"0": value, "1": 1.0})
    with pytest.raises(MissingValueMapError, match="finite"):
        output_values(chain, spec)
    for run in (
        lambda: validate_partition(chain, spec),
        lambda: compute_all(chain, spec, ComputeOptions()),
        lambda: brute_force_indices(chain, spec),
        lambda: mc_indices(chain, spec, samples=10, seed=0),
        lambda: load_native(save_native(NativeDocument(chain, spec))),
    ):
        with pytest.raises(MissingValueMapError):
            run()


def test_value_map_naming_an_unknown_label_is_rejected(chain):
    # A mistyped label used to be dropped silently.
    spec = AnalysisSpec(1, frozenset({0}), {"0": 0.0, "1": 1.0, "hgih": 5.0})
    with pytest.raises(InvalidAssignmentError, match="hgih"):
        output_values(chain, spec)
    # save_native refuses the spec itself, so the label is written in by hand.
    valid = AnalysisSpec(1, frozenset({0}), {"0": 0.0, "1": 1.0})
    document = save_native(NativeDocument(chain, valid)).replace(
        '"1": 1.0\n', '"1": 1.0, "hgih": 5.0\n'
    )
    for run in (
        lambda: validate_partition(chain, spec),
        lambda: compute_all(chain, spec, ComputeOptions()),
        lambda: brute_force_indices(chain, spec),
        lambda: mc_indices(chain, spec, samples=10, seed=0),
        lambda: load_native(document),
    ):
        with pytest.raises(InvalidAssignmentError, match="hgih"):
            run()
