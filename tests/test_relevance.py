"""Relevance pruning in `compute_all`: barren nodes never reach a factor,
and evidential variables d-separated from the output get exact zeros
without a query. Every case is checked against the brute-force oracle."""

import logging
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bnsens.graph
import bnsens.network
import bnsens.sobol
from bnsens import (
    AnalysisSpec,
    ComputeOptions,
    Cpt,
    DiscreteBayesNet,
    Variable,
    compute_all,
)
from bnsens.oracle import brute_force_indices
from helpers import gate_tree, random_instance, random_roots_instance


def binary_bn(parent_map, tables):
    """Binary nodes named by `parent_map` keys (in id order) with the given
    rows of P(node = 1 | parents)."""
    names = list(parent_map)
    ids = {name: i for i, name in enumerate(names)}
    variables = tuple(Variable(i, name, ("0", "1")) for i, name in enumerate(names))
    cpts = tuple(
        Cpt(ids[name], tuple(ids[p] for p in parent_map[name]),
            [[1.0 - q, q] for q in tables[name]])
        for name in names
    )
    return DiscreteBayesNet(variables, cpts), ids


def spec_for(ids, output, evidential):
    return AnalysisSpec(ids[output], frozenset(ids[e] for e in evidential),
                        {"0": 0.0, "1": 1.0})


def by_name(report):
    return {entry.name: entry for entry in report.indices}


def assert_matches_oracle(report, bn, spec, tol=1e-10):
    reference = brute_force_indices(bn, spec)
    assert report.expected_value == pytest.approx(reference.expected_value, abs=tol)
    assert report.variance == pytest.approx(reference.variance, abs=tol)
    for mine, ref in zip(report.indices, reference.indices):
        assert mine.name == ref.name
        assert mine.s == pytest.approx(ref.s, abs=tol)
        assert mine.st == pytest.approx(ref.st, abs=tol)


def with_barren_nodes(bn, spec, count, seed):
    """`bn` plus `count` random nodes that are ancestors of neither the
    output nor the evidence, their ids scattered among the original ones.
    Returns the network, the spec carried over, and the added ids."""
    rng = np.random.default_rng(seed)
    n = bn.n
    parent_map = {i: bn.cpts[i].parents for i in range(n)}
    domains = {i: bn.variables[i].domain for i in range(n)}
    tables = {i: bn.cpts[i].table for i in range(n)}
    for b in range(n, n + count):
        chosen = rng.choice(b, size=int(rng.integers(0, min(3, b) + 1)), replace=False)
        parent_map[b] = tuple(int(p) for p in chosen)
        domains[b] = tuple(str(d) for d in range(int(rng.integers(2, 4))))
        rows = int(np.prod([len(domains[p]) for p in parent_map[b]]))
        tables[b] = rng.dirichlet(np.ones(len(domains[b])), size=rows)
    # The original nodes keep their relative id order, so the pruned network
    # is the original one relabelled and eliminates in the same order.
    slots = rng.permutation(n + count)
    new_id = sorted(int(x) for x in slots[:n]) + [int(x) for x in slots[n:]]
    variables = tuple(sorted(
        (Variable(new_id[i], bn.variables[i].name if i < n else f"B{i}", domains[i])
         for i in range(n + count)),
        key=lambda v: v.id,
    ))
    cpts = tuple(
        Cpt(new_id[i], tuple(new_id[p] for p in parent_map[i]), tables[i])
        for i in range(n + count)
    )
    moved = AnalysisSpec(new_id[spec.output],
                         frozenset(new_id[e] for e in spec.evidential), spec.value_map)
    return DiscreteBayesNet(variables, cpts), moved, {new_id[b] for b in range(n, n + count)}


@settings(max_examples=25, deadline=None)
@given(
    instance_seed=st.integers(0, 10**6),
    count=st.integers(1, 4),
    barren_seed=st.integers(0, 10**6),
)
def test_barren_subnetwork_changes_nothing(instance_seed, count, barren_seed):
    bn, spec = random_instance(instance_seed, max_nodes=7, max_evidence=4)
    grown, grown_spec, barren = with_barren_nodes(bn, spec, count, barren_seed)
    derive = bnsens.network._subscripts  # once per bucket and per table
    named_axes: set[int] = set()
    summed = []  # the variables summed away by each call

    def recording(scopes, cards, axes):
        named_axes.update(*scopes, cards, axes)
        summed.append(set(cards).difference(axes))
        return derive(scopes, cards, axes)

    with mock.patch.object(bnsens.network, "_subscripts", recording):
        report = compute_all(grown, grown_spec)
    assert any(summed)  # the hook saw the elimination buckets, not only tables
    assert not named_axes & barren
    base = compute_all(bn, spec)
    assert report.expected_value == pytest.approx(base.expected_value, abs=1e-12)
    assert report.variance == pytest.approx(base.variance, abs=1e-12)
    grown_entries = by_name(report)
    assert set(grown_entries) == set(by_name(base))
    for name, entry in by_name(base).items():
        assert grown_entries[name].s == pytest.approx(entry.s, abs=1e-12)
        assert grown_entries[name].st == pytest.approx(entry.st, abs=1e-12)
    assert_matches_oracle(report, grown, grown_spec, tol=1e-9)


def test_evidence_marginal_of_root_evidence_eliminates_nothing(monkeypatch):
    # The evidence marginal needs only An(E); with root evidence that is E
    # itself, and every other node, the output included, is barren for it.
    # Its factors are then the evidence's own CPT factors, taken from the
    # one probability network built: no second network, and no elimination
    # that could have produced them. Only j's network is over E alone.
    bn, spec = random_roots_instance(4)
    built, reduced = [], []
    mrf_from_bn, marginalize = bnsens.sobol.mrf_from_bn, bnsens.sobol.marginalize

    def recording_mrf(bn, nodes):
        built.append(mrf_from_bn(bn, nodes))
        return built[-1]

    def recording_marginalize(tn, eliminate):
        reduced.append((set(tn.universe), set(eliminate), marginalize(tn, eliminate)))
        return reduced[-1][2]

    monkeypatch.setattr(bnsens.sobol, "mrf_from_bn", recording_mrf)
    monkeypatch.setattr(bnsens.sobol, "marginalize", recording_marginalize)
    report = compute_all(bn, spec)
    (mrf,) = built
    ((eliminated, j),) = [(e, out) for u, e, out in reduced if u == spec.evidential]
    assert eliminated == set()
    own = [f for f in mrf.factors if len(f.axes) == 1 and f.axes[0] in spec.evidential]
    assert set(j.universe) == spec.evidential
    assert len(j.factors) == len(own) == len(spec.evidential)
    assert all(a is b for a, b in zip(j.factors, own))
    assert_matches_oracle(report, bn, spec)


def isolated_root_bn():
    # B is an evidential root with no path to O; D is a barren child of O.
    return binary_bn(
        {"A": (), "B": (), "O": ("A",), "D": ("O",)},
        {"A": [0.4], "B": [0.7], "O": [0.1, 0.8], "D": [0.3, 0.6]},
    )


def test_isolated_root_gets_exact_zeros_without_a_query(monkeypatch):
    bn, ids = isolated_root_bn()
    spec = spec_for(ids, "O", ("A", "B"))
    queried = []
    for name in ("variance_component", "total_index"):
        original = getattr(bnsens.sobol, name)

        def recording(i, *args, _original=original, **kwargs):
            queried.append(i)
            return _original(i, *args, **kwargs)

        monkeypatch.setattr(bnsens.sobol, name, recording)
    report = compute_all(bn, spec)
    isolated = by_name(report)["B"]
    assert isolated.s == 0.0 and isolated.st == 0.0
    assert sorted(queried) == [ids["A"], ids["A"]]
    assert_matches_oracle(report, bn, spec)


def test_chain_total_index_is_zero_but_first_order_is_not():
    # i -> k -> O with E = {i, k}: k screens i off the output, so f is flat
    # along i, yet i still moves E[f | i] through k.
    bn, ids = binary_bn(
        {"i": (), "k": ("i",), "O": ("k",)},
        {"i": [0.4], "k": [0.2, 0.9], "O": [0.1, 0.7]},
    )
    spec = spec_for(ids, "O", ("i", "k"))
    report = compute_all(bn, spec)
    entry = by_name(report)["i"]
    assert entry.st == 0.0
    assert entry.s > 0.1
    assert_matches_oracle(report, bn, spec)


def test_collider_first_order_is_zero_but_total_index_is_not():
    # i -> C <- X -> O with E = {i, C}: i alone says nothing about O, but
    # once C is known, i explains X away.
    bn, ids = binary_bn(
        {"i": (), "X": (), "C": ("i", "X"), "O": ("X",)},
        {"i": [0.5], "X": [0.3], "C": [0.05, 0.9, 0.6, 0.95], "O": [0.1, 0.8]},
    )
    spec = spec_for(ids, "O", ("i", "C"))
    report = compute_all(bn, spec)
    entry = by_name(report)["i"]
    assert entry.s == 0.0
    assert entry.st > 0.01
    assert_matches_oracle(report, bn, spec)


def test_pruning_and_zeros_are_logged(caplog):
    bn, ids = isolated_root_bn()
    spec = spec_for(ids, "O", ("A", "B"))
    with caplog.at_level(logging.DEBUG, logger="bnsens.sobol"):
        compute_all(bn, spec)
    messages = [r.getMessage() for r in caplog.records if r.name == "bnsens.sobol"]
    assert f"pruned barren nodes [{ids['D']}]" in messages
    assert f"S of B (id {ids['B']}) = 0.0 by d-separation from the output" in messages
    assert f"ST of B (id {ids['B']}) = 0.0 by d-separation from the output" in messages
    assert not any("of A " in m for m in messages)


@pytest.mark.parametrize("shared", [True, False], ids=["shared", "per-query"])
def test_separated_group_gets_an_exact_zero_without_a_query(monkeypatch, caplog, shared):
    # B and its child C share no ancestor with O, so the group {B, C} is
    # d-separated from it. Its closed index used to come out as rounding
    # noise (-1.67e-30 on a generated network).
    bn, ids = binary_bn(
        {"A": (), "B": (), "C": ("B",), "O": ("A",)},
        {"A": [0.4], "B": [0.7], "C": [0.2, 0.9], "O": [0.1, 0.8]},
    )
    spec = spec_for(ids, "O", ("A", "B", "C"))
    group = (ids["B"], ids["C"])
    if not shared:
        monkeypatch.setattr(bnsens.sobol, "SHARED_ELIMINATION_CELLS", 0)
    query = bnsens.sobol._second_moment
    queried = []

    def recording(q, *args):
        queried.append(q.keep)
        return query(q, *args)

    monkeypatch.setattr(bnsens.sobol, "_second_moment", recording)
    options = ComputeOptions(first=False, total=False, closed=(group, (ids["A"], ids["B"])))
    with caplog.at_level(logging.DEBUG, logger="bnsens.sobol"):
        report = compute_all(bn, spec, options)
    separated, pair = report.indices
    assert separated.s == 0.0 and pair.s > 0.1
    assert frozenset(group) not in queried
    # C, the rest of the evidence beside A+B, is screened from O, so A+B
    # reads the moment of the whole evidence that Var[f] was taken from.
    assert len(queried) == (0 if shared else 1)
    messages = [r.getMessage() for r in caplog.records if r.name == "bnsens.sobol"]
    assert "S of B+C = 0.0 by d-separation from the output" in messages
    assert not any("of A+B" in m for m in messages)


def test_relevance_builds_one_moral_graph_whatever_the_evidence(monkeypatch):
    # Gate trees of 64 and 256 leaves with every fourth basic event as
    # evidence: 16 and 64 independent roots. Both zero sets come from one
    # moral graph, so the neighbour-set graphs built do not grow with the
    # evidence.
    primal = bnsens.graph._primal
    counts = []
    for leaves in (64, 256):
        bn, spec, _ = gate_tree(leaves, 0)
        spec = AnalysisSpec(spec.output, frozenset(range(0, leaves, 4)), spec.value_map)
        calls = []

        def counted(*args):
            calls.append(1)
            return primal(*args)

        with monkeypatch.context() as m:
            m.setattr(bnsens.graph, "_primal", counted)
            compute_all(bn, spec)
        counts.append(len(calls))
    assert counts[0] == counts[1]
