import warnings

import numpy as np
import pytest

import bnsens.network
from bnsens import (
    AnalysisSpec,
    ComputeOptions,
    Cpt,
    DegenerateOutputError,
    DiscreteBayesNet,
    NotEvidentialError,
    PartialFunctionError,
    Variable,
    closed_index,
    compute_all,
    encode_utility_node,
    expected_value,
    function_tn,
    global_variance,
    marginalize,
    mrf_from_bn,
    total_index,
    variance_component,
)
from bnsens.oracle import brute_force_closed, brute_force_f, brute_force_indices
from helpers import (
    additive_bn,
    chain_bn,
    chain_spec,
    common_parent_bn,
    layered_network,
    random_instance,
    random_roots_instance,
    xor_bn,
)


def _networks(bn, spec):
    mrf = mrf_from_bn(bn)
    t = function_tn(mrf, spec, bn)
    j = marginalize(mrf, set(mrf.universe) - spec.evidential)
    return t, j


def test_chain_report(chain, chain_analysis):
    report = compute_all(chain, chain_analysis)
    assert report.expected_value == pytest.approx(0.41, abs=1e-12)
    assert report.variance == pytest.approx(0.1029, abs=1e-12)
    entry = report.indices[0]
    assert entry.name == "E"
    assert entry.s == pytest.approx(1.0, abs=1e-12)
    assert entry.st == pytest.approx(1.0, abs=1e-12)
    assert entry.s_time is not None and entry.st_time is not None


def test_expected_value_scales_linearly(chain):
    base = chain_spec()
    scaled = AnalysisSpec(1, frozenset({0}), {"0": 0.0, "1": 3.0})
    t_base, _ = _networks(chain, base)
    t_scaled, _ = _networks(chain, scaled)
    assert expected_value(t_scaled) == pytest.approx(3.0 * expected_value(t_base), rel=1e-12)


def test_constant_map_is_degenerate(chain):
    spec = AnalysisSpec(1, frozenset({0}), {"0": 2.0, "1": 2.0})
    t, j = _networks(chain, spec)
    assert expected_value(t) == pytest.approx(2.0)
    with pytest.raises(DegenerateOutputError):
        global_variance(t, j)
    assert global_variance(t, j, check=False) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(DegenerateOutputError):
        compute_all(chain, spec)


def test_single_evidential_variable_has_unit_indices(chain, chain_analysis):
    t, j = _networks(chain, chain_analysis)
    assert variance_component(0, t, j) == pytest.approx(1.0, abs=1e-12)
    assert total_index(0, t, j) == pytest.approx(1.0, abs=1e-12)


def test_not_evidential_rejected(chain, chain_analysis):
    t, j = _networks(chain, chain_analysis)
    with pytest.raises(NotEvidentialError):
        variance_component(1, t, j)
    with pytest.raises(NotEvidentialError):
        total_index(1, t, j)
    with pytest.raises(NotEvidentialError):
        closed_index((), t, j)


def test_xor_interaction_only():
    bn, spec = xor_bn()
    report = compute_all(bn, spec)
    for entry in report.indices:
        assert abs(entry.s) <= 1e-12
        assert entry.st == pytest.approx(1.0, abs=1e-12)


def test_additive_function_has_equal_indices():
    bn, spec = additive_bn()
    report = compute_all(bn, spec)
    for entry in report.indices:
        assert entry.s == pytest.approx(entry.st, abs=1e-12)


def test_dependent_inputs_exceed_total():
    bn, spec = common_parent_bn()
    report = compute_all(bn, spec)
    reference = brute_force_indices(bn, spec)
    assert any(e.s > e.st for e in report.indices)
    for mine, ref in zip(report.indices, reference.indices):
        assert mine.s == pytest.approx(ref.s, abs=1e-10)
        assert mine.st == pytest.approx(ref.st, abs=1e-10)


def test_independent_roots_ordering_and_sum():
    for seed in range(8):
        bn, spec = random_roots_instance(seed)
        report = compute_all(bn, spec)
        total = 0.0
        for entry in report.indices:
            assert entry.s >= -1e-10
            assert entry.s <= entry.st + 1e-10
            total += entry.s
        assert total <= 1.0 + 1e-9


def test_matches_oracle_on_random_instances():
    for seed in range(25):
        bn, spec = random_instance(seed)
        mine = compute_all(bn, spec)
        reference = brute_force_indices(bn, spec)
        assert mine.expected_value == pytest.approx(reference.expected_value, abs=1e-10)
        assert mine.variance == pytest.approx(reference.variance, abs=1e-10)
        for a, b in zip(mine.indices, reference.indices):
            assert a.s == pytest.approx(b.s, abs=1e-8)
            assert a.st == pytest.approx(b.st, abs=1e-8)


def test_closed_index_of_singleton_matches_component():
    for seed in range(6):
        bn, spec = random_instance(seed + 200)
        t, j = _networks(bn, spec)
        for i in sorted(spec.evidential):
            assert closed_index({i}, t, j) == pytest.approx(
                variance_component(i, t, j), abs=1e-12
            )


def test_queries_agree_on_full_and_reduced_function_network():
    for seed in range(6):
        bn, spec = random_instance(seed + 250)
        t, j = _networks(bn, spec)
        reduced = marginalize(t, set(t.universe) - spec.evidential)
        assert global_variance(reduced, j) == pytest.approx(global_variance(t, j), abs=1e-12)
        evid = sorted(spec.evidential)
        for i in evid:
            for query in (variance_component, total_index):
                assert query(i, reduced, j) == pytest.approx(query(i, t, j), abs=1e-12)
        assert closed_index(evid[:2], reduced, j) == pytest.approx(
            closed_index(evid[:2], t, j), abs=1e-12
        )


def test_compute_all_never_squares_chance_variables(monkeypatch):
    # Ten 5-7-state roots under five interior nodes: squaring the interior
    # nodes along with the evidence asks for products of ~3e9 cells.
    bn, spec = layered_network(4, 10, 5, (5, 7))
    product = bnsens.network.factor_product

    def capped(a, b):
        cards = dict(zip(a.axes, a.values.shape)) | dict(zip(b.axes, b.values.shape))
        cells = int(np.prod(list(cards.values()), dtype=np.int64))
        assert cells <= 1e8, f"factor_product asked for {cells:.3g} cells"
        return product(a, b)

    monkeypatch.setattr(bnsens.network, "factor_product", capped)
    report = compute_all(bn, spec)
    for entry in report.indices:
        assert -1e-12 <= entry.s <= entry.st + 1e-12
        assert entry.st <= 1.0 + 1e-12


def test_closed_index_of_full_set_is_one():
    for seed in range(6):
        bn, spec = random_instance(seed + 300)
        t, j = _networks(bn, spec)
        assert closed_index(spec.evidential, t, j) == pytest.approx(1.0, abs=1e-9)


def test_closed_index_pairs_match_oracle():
    checked = 0
    for seed in range(12):
        bn, spec = random_instance(seed + 400)
        evid = sorted(spec.evidential)
        if len(evid) < 2:
            continue
        t, j = _networks(bn, spec)
        pair = (evid[0], evid[1])
        assert closed_index(pair, t, j) == pytest.approx(
            brute_force_closed(bn, spec, pair), abs=1e-8
        )
        checked += 1
    assert checked >= 5


def test_affine_invariance_of_indices():
    for seed in range(6):
        bn, spec = random_instance(seed + 500)
        shifted = AnalysisSpec(
            spec.output,
            spec.evidential,
            {k: 2.0 * v + 5.0 for k, v in spec.value_map.items()},
        )
        base = compute_all(bn, spec)
        moved = compute_all(bn, shifted)
        assert moved.expected_value == pytest.approx(
            2.0 * base.expected_value + 5.0, rel=1e-9, abs=1e-9
        )
        assert moved.variance == pytest.approx(4.0 * base.variance, rel=1e-9)
        for a, b in zip(base.indices, moved.indices):
            assert a.s == pytest.approx(b.s, abs=1e-9)
            assert a.st == pytest.approx(b.st, abs=1e-9)


def test_freezing_a_zero_total_index_variable():
    # A root with no path to the output has a null total index, and the
    # function of interest is flat along it.
    variables = (
        Variable(0, "A", ("0", "1")),
        Variable(1, "B", ("0", "1")),
        Variable(2, "O", ("0", "1")),
    )
    cpts = (
        Cpt(0, (), [[0.4, 0.6]]),
        Cpt(1, (), [[0.3, 0.7]]),
        Cpt(2, (0,), [[0.9, 0.1], [0.2, 0.8]]),
    )
    bn = DiscreteBayesNet(variables, cpts)
    spec = AnalysisSpec(2, frozenset({0, 1}), {"0": 0.0, "1": 1.0})
    report = compute_all(bn, spec)
    by_name = {e.name: e for e in report.indices}
    assert abs(by_name["B"].st) <= 1e-10
    table = brute_force_f(bn, spec)
    frozen = table.values[:, 0]
    assert np.abs(table.values - frozen[:, None]).max() <= 1e-6


def test_compute_all_parallel_matches_sequential():
    bn, spec = random_instance(601)
    sequential = compute_all(bn, spec)
    parallel = compute_all(bn, spec, ComputeOptions(workers=4))
    for a, b in zip(sequential.indices, parallel.indices):
        assert a.variables == b.variables
        assert a.s == pytest.approx(b.s, abs=1e-12)
        assert a.st == pytest.approx(b.st, abs=1e-12)


def test_compute_all_closed_option():
    bn, spec = common_parent_bn()
    report = compute_all(bn, spec, ComputeOptions(closed=((1, 2),)))
    closed_entry = report.indices[-1]
    assert closed_entry.name == "E1+E2"
    assert closed_entry.st is None
    assert closed_entry.s == pytest.approx(brute_force_closed(bn, spec, (1, 2)), abs=1e-10)


def test_negative_index_warning_not_triggered_on_clean_instance():
    bn, spec = random_instance(602)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        compute_all(bn, spec)


# -------------------------------------------------------- utility encoding

def test_utility_identity_matches_direct_output():
    bn = chain_bn()
    extended = encode_utility_node(bn, lambda labels: labels[0], (1,), ("0", "1"))
    assert extended.n == 3
    spec_direct = chain_spec()
    spec_encoded = AnalysisSpec(2, frozenset({0}), {"0": 0.0, "1": 1.0})
    direct = compute_all(bn, spec_direct)
    encoded = compute_all(extended, spec_encoded)
    assert encoded.expected_value == pytest.approx(direct.expected_value, abs=1e-12)
    for a, b in zip(direct.indices, encoded.indices):
        assert a.s == pytest.approx(b.s, abs=1e-10)
        assert a.st == pytest.approx(b.st, abs=1e-10)


def test_utility_sum_of_three_ternary_nodes():
    rng = np.random.default_rng(8)
    variables = tuple(Variable(i, f"N{i}", ("0", "1", "2")) for i in range(5))
    cpts = (
        Cpt(0, (), rng.dirichlet(np.ones(3))),
        Cpt(1, (), rng.dirichlet(np.ones(3))),
        Cpt(2, (0,), rng.dirichlet(np.ones(3), size=3)),
        Cpt(3, (0, 1), rng.dirichlet(np.ones(3), size=9)),
        Cpt(4, (1,), rng.dirichlet(np.ones(3), size=3)),
    )
    bn = DiscreteBayesNet(variables, cpts)
    domain = tuple(str(k) for k in range(7))
    extended = encode_utility_node(
        bn, lambda labels: str(sum(int(x) for x in labels)), (2, 3, 4), domain
    )
    assert extended.variables[5].domain == domain
    table = extended.cpts[5].table
    assert table.shape == (27, 7)
    assert (table.sum(axis=1) == 1.0).all()
    assert ((table == 0.0) | (table == 1.0)).all()
    spec = AnalysisSpec(5, frozenset({0, 1}), {lab: float(lab) for lab in domain})
    mine = compute_all(extended, spec)
    reference = brute_force_indices(extended, spec)
    for a, b in zip(mine.indices, reference.indices):
        assert a.s == pytest.approx(b.s, abs=1e-8)
        assert a.st == pytest.approx(b.st, abs=1e-8)


def test_utility_rejects_partial_functions():
    bn = chain_bn()
    with pytest.raises(PartialFunctionError):
        encode_utility_node(bn, lambda labels: {"0": "0"}[labels[0]], (1,), ("0", "1"))
    with pytest.raises(PartialFunctionError):
        encode_utility_node(bn, lambda labels: "nope", (1,), ("0", "1"))
