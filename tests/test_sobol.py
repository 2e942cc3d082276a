import math
import time
import warnings
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bnsens.network
import bnsens.sobol
from bnsens import (
    AnalysisSpec,
    ComputeOptions,
    Cpt,
    DegenerateOutputError,
    DiscreteBayesNet,
    Factor,
    NotEvidentialError,
    PartialFunctionError,
    ValidationError,
    Variable,
    compute_all,
    contract_all,
    encode_utility_node,
    function_tn,
    marginalize,
    mrf_from_bn,
    output_values,
)
from bnsens.oracle import brute_force_closed, brute_force_f, brute_force_indices
from bnsens.sobol import _conditional_second_moment
from bnsens.tensor import factor_product, factor_sum_out
from helpers import (
    additive_bn,
    chain_bn,
    chain_spec,
    common_parent_bn,
    concrete_style_network,
    constant_behind_rare_evidence,
    constant_on_support_chain,
    driven_chain,
    fault_tree,
    gate_tree,
    impossible_label_grid,
    layered_network,
    random_instance,
    random_roots_instance,
    rare_chance_gate,
    sparse_instance,
    wide_chance_network,
    xor_bn,
)


def _networks(bn, spec):
    mrf = mrf_from_bn(bn)
    t = function_tn(mrf, spec.output, output_values(bn, spec))
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
    assert contract_all(t_scaled) == pytest.approx(3.0 * contract_all(t_base), rel=1e-12)


def test_constant_map_is_degenerate(chain):
    spec = AnalysisSpec(1, frozenset({0}), {"0": 2.0, "1": 2.0})
    t, _ = _networks(chain, spec)
    assert contract_all(t) == pytest.approx(2.0)
    with pytest.raises(DegenerateOutputError):
        compute_all(chain, spec)


def test_not_evidential_rejected(chain, chain_analysis, monkeypatch):
    # Closed subsets are checked before anything is eliminated.
    eliminated = []
    eliminate = bnsens.network._eliminate

    def recording(factors, drop):
        eliminated.append(drop)
        return eliminate(factors, drop)

    monkeypatch.setattr(bnsens.network, "_eliminate", recording)
    for subset in ((), (1,), (0, 0)):
        with pytest.raises(NotEvidentialError):
            compute_all(chain, chain_analysis, ComputeOptions(closed=(subset,)))
    assert eliminated == []


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


def test_first_order_indices_match_oracle_with_non_root_evidence():
    checked = 0
    for seed in range(40):
        bn, spec = random_instance(seed + 700)
        if all(not bn.cpts[i].parents for i in spec.evidential):
            continue
        mine = compute_all(bn, spec, ComputeOptions(total=False))
        reference = brute_force_indices(bn, spec)
        for a, b in zip(mine.indices, reference.indices):
            assert a.variables == b.variables
            assert a.s == pytest.approx(b.s, abs=1e-10)
        checked += 1
    assert checked >= 20


@pytest.mark.parametrize("p", [1e-3, 1e-6])
def test_first_order_indices_match_oracle_on_zero_probability_evidence_cells(p):
    # B0 never fails, so the marginal of B0 has a zero cell; G1 = AND(B2,
    # B3) makes zero cells in the joint evidence marginal as well.
    bn, spec = fault_tree(p)
    bn = DiscreteBayesNet(bn.variables, (Cpt(0, (), [[1.0, 0.0]]), *bn.cpts[1:]))
    mine = compute_all(bn, spec)
    reference = brute_force_indices(bn, spec)
    for a, b in zip(mine.indices, reference.indices):
        assert a.name == b.name
        assert a.s == pytest.approx(b.s, abs=1e-12)
        assert a.st == pytest.approx(b.st, abs=1e-12)


def test_first_order_indices_take_a_fixed_number_of_orderings(monkeypatch):
    # All first-order indices come from one calibration of each network,
    # so the ordering calls do not grow with the number of evidential roots.
    order = bnsens.network.min_weight_order
    counts = []
    for roots in (4, 12):
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return order(*args, **kwargs)

        bn, spec = layered_network(5, roots, 5, 2)
        with monkeypatch.context() as m:
            m.setattr(bnsens.network, "min_weight_order", counted)
            report = compute_all(bn, spec, ComputeOptions(total=False))
        assert sum(e.s > 0.0 for e in report.indices) >= 2
        counts.append(len(calls))
    assert counts[0] == counts[1]


def test_first_order_times_share_the_calibration(monkeypatch):
    # Each calibration is slowed by 20 ms: the first-order times must still
    # add up to the work, shared equally by the variables that used it.
    calibrate = bnsens.sobol.marginals

    def slow(tn):
        time.sleep(0.02)
        return calibrate(tn)

    monkeypatch.setattr(bnsens.sobol, "marginals", slow)
    bn, spec = layered_network(5, 4, 5, 2)
    entries = compute_all(bn, spec, ComputeOptions(total=False)).indices
    queried = [e for e in entries if e.s != 0.0]
    assert len(queried) >= 2
    for entry in queried:
        assert entry.s_time >= 0.04 / len(queried)
    assert sum(e.s_time for e in entries) >= 0.04


def test_closed_index_of_singleton_matches_component():
    for seed in range(6):
        bn, spec = random_instance(seed + 200)
        evid = sorted(spec.evidential)
        options = ComputeOptions(total=False, closed=tuple((i,) for i in evid))
        report = compute_all(bn, spec, options)
        singles, closed = report.indices[: len(evid)], report.indices[len(evid):]
        for single, group in zip(singles, closed):
            assert group.variables == single.variables
            assert group.s == pytest.approx(single.s, abs=1e-12)


def test_queries_agree_on_full_and_reduced_function_network():
    for seed in range(6):
        bn, spec = random_instance(seed + 250)
        t, j = _networks(bn, spec)
        reduced = marginalize(t, set(t.universe) - spec.evidential)
        evid = sorted(spec.evidential)
        keeps = [spec.evidential, frozenset(evid[:2])]
        for i in evid:
            keeps += [frozenset({i}), spec.evidential - {i}]
        for keep in keeps:
            assert _conditional_second_moment(reduced, j, keep) == pytest.approx(
                _conditional_second_moment(t, j, keep), abs=1e-12
            )


def test_compute_all_never_squares_chance_variables(monkeypatch):
    # Ten 5-7-state roots under five interior nodes, some of them barren:
    # squaring every interior node along with the evidence makes buckets of
    # ~3e9 cells. In the second network every node is relevant, and summing
    # its root out with the chance nodes kept makes a bucket of 1.28e8.
    eliminate = bnsens.network._eliminate

    def capped(factors, drop):
        cards = {ax: n for f in factors for ax, n in zip(f.axes, f.values.shape)}
        cells = math.prod(cards.values())
        assert cells <= 1e8, f"a bucket spans {cells:.3g} cells"
        return eliminate(factors, drop)

    monkeypatch.setattr(bnsens.network, "_eliminate", capped)
    bn, spec = layered_network(4, 10, 5, (5, 7))
    for entry in compute_all(bn, spec).indices:
        assert -1e-12 <= entry.s <= entry.st + 1e-12
        assert entry.st <= 1.0 + 1e-12
    # R and F0-F2 are linked through the C's, so S_i <= S^T_i need not hold
    # here (F1, F2: S^T = 0 by d-separation, S > 0); only the range is checked.
    bn, spec = wide_chance_network(400)
    report = compute_all(bn, spec)
    assert len(report.indices) == len(spec.evidential)
    for entry in report.indices:
        for value in (entry.s, entry.st):
            assert -1e-12 <= value <= 1.0 + 1e-12


def _gate_tree_root_evidence(leaves):
    # Every fourth basic event alone: independent roots.
    bn, spec, _ = gate_tree(leaves, 0)
    return bn, AnalysisSpec(spec.output, frozenset(range(0, leaves, 4)), spec.value_map)


def _refuse_queries(monkeypatch):
    def refuse(*args):
        raise AssertionError("a conditional-moment query ran")

    monkeypatch.setattr(bnsens.sobol, "_conditional_second_moment", refuse)


@pytest.mark.parametrize(
    "network",
    [concrete_style_network, lambda: _gate_tree_root_evidence(64)],
    ids=["concrete-style", "gate-tree-64"],
)
def test_coupled_totals_match_their_per_query_moments(monkeypatch, network):
    # Root evidence makes the evidence marginal one-axis factors, and both
    # networks cost fewer cells coupled than summing t_full down to t; the
    # coupled plan then runs no conditional-moment query at all.
    bn, spec = network()
    with monkeypatch.context() as m:
        _refuse_queries(m)
        report = compute_all(bn, spec)
    mrf = mrf_from_bn(bn)
    values = output_values(bn, spec) - report.expected_value
    t_full = function_tn(mrf, spec.output, values)
    t = marginalize(t_full, set(mrf.universe) - spec.evidential)
    j = marginalize(mrf, set(mrf.universe) - spec.evidential)
    mean = contract_all(t)
    variance = _conditional_second_moment(t, j, spec.evidential) - mean * mean
    for entry in report.indices:
        (i,) = entry.variables
        rest = _conditional_second_moment(t, j, spec.evidential - {i})
        assert entry.st == pytest.approx(1.0 - (rest - mean * mean) / variance, abs=1e-12)


def test_coupled_plan_matches_brute_force_on_a_driven_chain(monkeypatch):
    # Ten roots drive a chain: building t would span 2478 cells, the
    # coupled calibration 1028, and the joint (3e6 cells) is still small
    # enough for the oracle.
    bn, spec = driven_chain(10, 3)
    with monkeypatch.context() as m:
        _refuse_queries(m)
        report = compute_all(bn, spec)
    reference = brute_force_indices(bn, spec)
    assert report.variance == pytest.approx(reference.variance, rel=1e-12)
    for a, b in zip(report.indices, reference.indices):
        assert a.name == b.name
        assert a.s == pytest.approx(b.s, abs=1e-12)
        assert a.st == pytest.approx(b.st, abs=1e-12)


def test_coupled_totals_take_a_fixed_number_of_orderings(monkeypatch):
    # Gate trees of 64 and 128 leaves have 16 and 32 evidential roots.
    order = bnsens.network.min_weight_order
    counts = []
    for leaves in (64, 128):
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return order(*args, **kwargs)

        bn, spec = _gate_tree_root_evidence(leaves)
        with monkeypatch.context() as m:
            _refuse_queries(m)
            m.setattr(bnsens.network, "min_weight_order", counted)
            report = compute_all(bn, spec, ComputeOptions(first=False))
        assert sum(e.st > 0.0 for e in report.indices) >= 8
        counts.append(len(calls))
    assert counts[0] == counts[1]


def test_gate_tree_of_256_leaves_with_root_evidence_finishes_in_seconds():
    # Summing the chance variables out of t_full for the per-query plan
    # would make a bucket of about 3.7e19 cells.
    bn, spec = _gate_tree_root_evidence(256)
    started = time.perf_counter()
    report = compute_all(bn, spec)
    assert time.perf_counter() - started < 30.0
    assert len(report.indices) == 64
    for entry in report.indices:
        assert 0.0 <= entry.s <= entry.st + 1e-12
        assert entry.st <= 1.0 + 1e-12
    assert sum(e.s for e in report.indices) <= 1.0 + 1e-12
    assert sum(e.st for e in report.indices) >= 1.0 - 1e-12


def test_bucket_beyond_einsum_operand_cap_matches_stepwise(monkeypatch):
    # An evidential root C with an output child and 64 evidential leaves:
    # min-weight eliminates each leaf first, leaving C's bucket 66 factors,
    # more operands than one np.einsum call accepts (63; 31 on numpy 1.x).
    # Total indices are left out: S^T of C keeps all 64 leaves, 2^64 cells.
    n = 64
    rng = np.random.default_rng(7)
    variables = [Variable(0, "C", ("0", "1")), Variable(1, "O", ("0", "1"))]
    variables += [Variable(k, f"E{k}", ("0", "1")) for k in range(2, n + 2)]
    cpts = [Cpt(0, (), [[0.4, 0.6]]), Cpt(1, (0,), [[0.7, 0.3], [0.2, 0.8]])]
    for k in range(2, n + 2):
        p, q = rng.uniform(0.05, 0.95, size=2)
        cpts.append(Cpt(k, (0,), [[p, 1 - p], [q, 1 - q]]))
    spec = AnalysisSpec(1, frozenset({0, *range(2, n + 2)}), {"0": 0.0, "1": 1.0})
    bn = DiscreteBayesNet(variables, cpts)
    first_only = ComputeOptions(total=False)
    fused = compute_all(bn, spec, first_only)

    def stepwise(factors, axes):
        product = reduce(factor_product, factors, Factor.scalar(1.0))
        return factor_sum_out(product, set(product.axes) - set(axes)).values

    monkeypatch.setattr(bnsens.network, "_einsum", stepwise)
    reference = compute_all(bn, spec, first_only)
    assert len(fused.indices) == n + 1
    for a, b in zip(fused.indices, reference.indices):
        assert a.variables == b.variables
        assert a.s == pytest.approx(b.s, abs=1e-12)


def test_closed_index_of_full_set_is_one():
    for seed in range(6):
        bn, spec = random_instance(seed + 300)
        options = ComputeOptions(first=False, total=False, closed=(tuple(spec.evidential),))
        (entry,) = compute_all(bn, spec, options).indices
        assert entry.s == pytest.approx(1.0, abs=1e-9)


def test_closed_index_pairs_match_oracle():
    checked = 0
    for seed in range(12):
        bn, spec = random_instance(seed + 400)
        evid = sorted(spec.evidential)
        if len(evid) < 2:
            continue
        pair = (evid[0], evid[1])
        options = ComputeOptions(first=False, total=False, closed=(pair,))
        (entry,) = compute_all(bn, spec, options).indices
        assert entry.s == pytest.approx(brute_force_closed(bn, spec, pair), abs=1e-8)
        checked += 1
    assert checked >= 5


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    eighths=st.lists(st.integers(0, 16), min_size=3, max_size=3),
    shift=st.integers(-10**8, 10**8),
    mantissa=st.integers(-15, 15).filter(bool),
    exponent=st.integers(-30, 3),
)
def test_affine_invariance_of_indices(seed, eighths, shift, mantissa, exponent):
    # Multiples of 1/8 shifted by an integer up to 1e8, times a scale of at
    # most four significant bits (2^-30 ~ 9e-10 up to 120), are exact
    # doubles: the moved map is exactly the affine image of the base map.
    scale = mantissa * 2.0**exponent
    bn, spec = random_instance(seed, max_nodes=9, max_evidence=4)
    domain = bn.variables[spec.output].domain
    values = {label: k / 8 for label, k in zip(domain, eighths)}
    base_spec = AnalysisSpec(spec.output, spec.evidential, values)
    moved_spec = AnalysisSpec(
        spec.output,
        spec.evidential,
        {label: scale * (v + shift) for label, v in values.items()},
    )
    try:
        base = compute_all(bn, base_spec)
    except DegenerateOutputError:
        with pytest.raises(DegenerateOutputError):
            compute_all(bn, moved_spec)
        return
    moved = compute_all(bn, moved_spec)
    assert moved.expected_value == pytest.approx(
        scale * (base.expected_value + shift), rel=1e-9
    )
    assert moved.variance == pytest.approx(scale * scale * base.variance, rel=1e-9)
    for a, b in zip(base.indices, moved.indices):
        assert a.s == pytest.approx(b.s, abs=1e-9)
        assert a.st == pytest.approx(b.st, abs=1e-9)


@pytest.mark.parametrize("output_parent", ["E0", "U"])
def test_output_ignoring_the_evidence_is_degenerate_under_a_shift(output_parent):
    # O's rows are all equal, so f is constant whatever the evidence.
    variables = tuple(
        Variable(i, name, ("0", "1")) for i, name in enumerate(("E0", "E1", "U", "O"))
    )
    parent = 0 if output_parent == "E0" else 2
    bn = DiscreteBayesNet(
        variables,
        (
            Cpt(0, (), [[0.6, 0.4]]),
            Cpt(1, (), [[0.25, 0.75]]),
            Cpt(2, (0, 1), [[0.9, 0.1], [0.5, 0.5], [0.3, 0.7], [0.2, 0.8]]),
            Cpt(3, (parent,), [[0.3, 0.7], [0.3, 0.7]]),
        ),
    )
    spec = AnalysisSpec(3, frozenset({0, 1}), {"0": 1e6, "1": 1e6 + 1.0})
    with pytest.raises(DegenerateOutputError):
        compute_all(bn, spec)


@pytest.mark.parametrize("shift", [0.0, 1e6])
@pytest.mark.parametrize("analysis", [compute_all, brute_force_indices])
def test_output_constant_through_a_chance_node_is_degenerate(analysis, shift):
    # Every row of P(U | E) gives P(O=1 | E) = 0.45, but each through its own
    # rounded sums, so the conditional means differ by rounding noise alone.
    variables = (
        Variable(0, "E", ("a", "b", "c", "d")),
        Variable(1, "U", ("0", "1", "2")),
        Variable(2, "O", ("0", "1")),
    )
    rows = [[0.5, 0.0, 0.5], [0.0, 0.7, 0.3], [0.25, 0.35, 0.4], [0.125, 0.525, 0.35]]
    bn = DiscreteBayesNet(
        variables,
        (
            Cpt(0, (), [[0.1, 0.2, 0.3, 0.4]]),
            Cpt(1, (0,), rows),
            Cpt(2, (1,), [[0.9, 0.1], [0.7, 0.3], [0.2, 0.8]]),
        ),
    )
    spec = AnalysisSpec(2, frozenset({0}), {"0": shift, "1": shift + 1.0})
    with pytest.raises(DegenerateOutputError):
        analysis(bn, spec)


@pytest.mark.parametrize("network", [constant_on_support_chain, impossible_label_grid])
@pytest.mark.parametrize("analysis", [compute_all, brute_force_indices])
def test_map_constant_on_the_output_support_is_degenerate(analysis, network):
    # Only O = "0" has nonzero probability, so f is constant, and Var[f] and
    # Var[g(O)] are both rounding noise: their ratio can clear any relative
    # floor and give indices such as S_A = 0.5 or S = 2.0.
    bn, spec = network()
    with pytest.raises(DegenerateOutputError):
        analysis(bn, spec)


@pytest.mark.parametrize("analysis", [compute_all, brute_force_indices])
def test_constant_output_behind_rare_evidence_is_degenerate(analysis):
    # f is constant and Var[f] is rounding noise of order 1e-33 p. A floor
    # relative to (E|g(O)|)^2, of order p^2, would let that noise through
    # as indices on about half of these networks; the floor relative to
    # Var[g(O)], of order p, stops all of them.
    for seed in range(40):
        bn, spec = constant_behind_rare_evidence(seed)
        with pytest.raises(DegenerateOutputError):
            analysis(bn, spec)


@pytest.mark.parametrize(
    "q",
    [
        1e-20,
        pytest.param(
            1e-26,
            marks=pytest.mark.xfail(
                raises=DegenerateOutputError,
                strict=True,
                reason="Var[f] is 0.72q of Var[g(O)], below the 1e-24 floor, "
                "although Var[f] is exact",
            ),
        ),
    ],
)
@pytest.mark.parametrize("analysis", [compute_all, brute_force_indices])
def test_rare_chance_factor_leaves_the_indices_exact(analysis, q):
    bn, spec = rare_chance_gate(q)
    report = analysis(bn, spec)
    assert report.variance == pytest.approx(0.2016 * q * q, rel=1e-12)
    for entry, s, st in zip(report.indices, (2 / 7, 9 / 14), (5 / 14, 5 / 7), strict=True):
        assert entry.s == pytest.approx(s, abs=1e-12)
        assert entry.st == pytest.approx(st, abs=1e-12)


def test_sparse_networks_agree_with_the_oracle():
    # Zero CPT entries, impossible output labels and affinely moved maps:
    # the engine and the oracle both call the analysis degenerate, or agree.
    for seed in range(300):
        bn, spec = sparse_instance(seed)
        try:
            reference = brute_force_indices(bn, spec)
        except DegenerateOutputError:
            with pytest.raises(DegenerateOutputError):
                compute_all(bn, spec)
            continue
        report = compute_all(bn, spec)
        for mine, ref in zip(report.indices, reference.indices, strict=True):
            assert mine.s == pytest.approx(ref.s, abs=1e-9), seed
            assert mine.st == pytest.approx(ref.st, abs=1e-9), seed


@pytest.mark.parametrize("p",[1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7])
def test_rare_event_fault_tree_matches_centred_oracle(p):
    bn, spec = fault_tree(p)
    report = compute_all(bn, spec)
    reference = brute_force_indices(bn, spec)
    assert report.expected_value == pytest.approx(reference.expected_value, rel=1e-9)
    assert report.variance == pytest.approx(reference.variance, rel=1e-9)
    for mine, ref in zip(report.indices, reference.indices):
        assert mine.name == ref.name
        assert mine.s == pytest.approx(ref.s, abs=1e-12)
        assert mine.st == pytest.approx(ref.st, abs=1e-12)
    assert max(e.st for e in report.indices) > 0.1


@pytest.mark.parametrize("q", [1e-12, 1e-13, 1e-14, 1e-15, 1e-16])
@pytest.mark.parametrize("analysis", [compute_all, brute_force_indices])
def test_rare_evidence_is_not_degenerate(analysis, q):
    # TOP = OR(A, B): the evidential root A fails with probability q, the
    # chance root B with 1/2. E[TOP | A] is 1 or 1/2, so Var[f] = q(1 - q)/4,
    # a share of about q of Var[TOP], and all of it is A's.
    variables = tuple(
        Variable(i, name, ("ok", "failed")) for i, name in enumerate(("A", "B", "TOP"))
    )
    bn = DiscreteBayesNet(
        variables,
        (
            Cpt(0, (), [[1.0 - q, q]]),
            Cpt(1, (), [[0.5, 0.5]]),
            Cpt(2, (0, 1), [[1.0, 0.0], [0.0, 1.0], [0.0, 1.0], [0.0, 1.0]]),
        ),
    )
    spec = AnalysisSpec(2, frozenset({0}), {"ok": 0.0, "failed": 1.0})
    report = analysis(bn, spec)
    assert report.variance == pytest.approx(q * (1.0 - q) / 4.0, rel=1e-9)
    (entry,) = report.indices
    assert entry.s == pytest.approx(1.0, abs=1e-9)
    assert entry.st == pytest.approx(1.0, abs=1e-9)


def test_subnormal_root_prior_matches_oracle():
    # P(A = 1) = 1e-310 is subnormal and its reciprocal overflows, so the
    # evidence marginal's reciprocal must count that cell as zero.
    variables = tuple(
        Variable(i, name, ("0", "1")) for i, name in enumerate(("A", "B", "O"))
    )
    bn = DiscreteBayesNet(
        variables,
        (
            Cpt(0, (), [[1.0 - 1e-310, 1e-310]]),
            Cpt(1, (), [[0.3, 0.7]]),
            Cpt(2, (0, 1), [[0.9, 0.1], [0.4, 0.6], [0.2, 0.8], [0.05, 0.95]]),
        ),
    )
    spec = AnalysisSpec(2, frozenset({0, 1}), {"0": 0.0, "1": 1.0})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = compute_all(bn, spec)
        reference = brute_force_indices(bn, spec)
    assert report.expected_value == pytest.approx(reference.expected_value, abs=1e-12)
    assert report.variance == pytest.approx(reference.variance, abs=1e-12)
    for mine, ref in zip(report.indices, reference.indices):
        assert mine.s == pytest.approx(ref.s, abs=1e-12)
        assert mine.st == pytest.approx(ref.st, abs=1e-12)


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


def test_compute_options_workers_is_accepted_and_ignored():
    bn, spec = random_instance(601)
    default = compute_all(bn, spec)
    workers = compute_all(bn, spec, ComputeOptions(workers=4))
    assert workers.expected_value == default.expected_value
    assert workers.variance == default.variance
    assert len(workers.indices) == len(default.indices)
    for a, b in zip(default.indices, workers.indices):
        assert (a.variables, a.s, a.st) == (b.variables, b.s, b.st)


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


@pytest.mark.parametrize(
    "g, parents, error",
    [
        (lambda labels: labels[0], (0, 2), ValueError),
        (lambda labels: labels[0], (-1,), ValueError),
        (lambda labels: None, (1,), PartialFunctionError),
    ],
    ids=["parent-above", "parent-below", "g-returns-none"],
)
def test_utility_node_argument_errors(g, parents, error):
    with pytest.raises(error) as info:
        encode_utility_node(chain_bn(), g, parents, ("0", "1"))
    assert type(info.value) is error


def test_utility_node_sorts_a_set_of_parents():
    extended = encode_utility_node(chain_bn(), lambda labels: labels[0], {1, 0}, ("0", "1"))
    assert extended.cpts[2].parents == (0, 1)
    np.testing.assert_array_equal(extended.cpts[2].table, [[1, 0], [1, 0], [0, 1], [0, 1]])


@pytest.mark.parametrize(
    "parents, domain, name",
    [((0, 0), ("0", "1"), None), ((0,), ("a", "a"), None), ((0,), ("a",), None),
     ((0,), ("0", "1"), "E")],
)
def test_utility_node_is_checked_as_the_network_is_built(parents, domain, name):
    with pytest.raises(ValidationError):
        encode_utility_node(chain_bn(), lambda labels: domain[0], parents, domain, name)
