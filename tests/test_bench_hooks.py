"""The benchmark's tracer (bench/spans.py) replaces engine functions by
name; every name it hooks must still exist, or `--trace 1` breaks. Each
benchmark workload (bench/workloads.py) must take the plan its timings
stand for, and the coupled plan must cost the network it runs before
building it."""

import heapq
import logging
import sys

import numpy as np
import pytest

import bnsens.network
import bnsens.sobol
from bnsens import (
    AnalysisSpec,
    Factor,
    TensorNetwork,
    compute_all,
    min_weight_order,
    square_wrt,
)
from bnsens.graph import _primal
from bnsens.tensor import reciprocal
from helpers import bench_module, bench_workload, concrete_style_network, gate_tree


def test_every_bench_hook_resolves(monkeypatch):
    spans = bench_module(monkeypatch, "spans")
    assert spans.HOOKS
    for module, attr, _, _ in spans.HOOKS:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"


@pytest.mark.parametrize(
    "name, plan",
    [
        ("grid3e16", "coupled"),
        ("sparse200", "shared-elimination"),
        ("dense-card", "per-query"),
    ],
)
def test_each_workload_takes_its_plan(monkeypatch, caplog, name, plan):
    # A plan that flips would otherwise show only as a timing change. The
    # tables over the evidence and the output have 1.3e8 (grid3e16), 648
    # (sparse200) and 3.4e7 (dense-card) cells: only sparse200 is small
    # enough to sum its chance variables out once for P(O) and T, its one
    # ordering. The other two order the probability network once, for P(O)
    # and the first-order calibration; grid3e16 then the coupled network,
    # whose cells fall below the least cells of t, so t is not ordered, and
    # dense-card t_full down to t and the contraction of each of its 7 total
    # queries and of its Var[f] query. The orderings per
    # analysis are the `graph.order_calls` of `--trace 1`, which hooks the
    # same name.
    workloads = bench_module(monkeypatch, "workloads")
    bn, output, evidential = workloads.network(name)
    spec = AnalysisSpec(output, evidential, workloads.seeded_map(bn, output, 1))
    calls = []
    order = bnsens.network.min_weight_order

    def counted(*args, **kwargs):
        calls.append(1)
        return order(*args, **kwargs)

    monkeypatch.setattr(bnsens.network, "min_weight_order", counted)
    with caplog.at_level(logging.DEBUG, logger="bnsens.sobol"):
        compute_all(bn, spec)
    lines = [r.getMessage() for r in caplog.records if r.name == "bnsens.sobol"]
    assert [line.split(" plan:")[0] for line in lines if " plan:" in line] == [plan]
    assert len(calls) == {"grid3e16": 2, "sparse200": 1, "dense-card": 11}[name]


@pytest.mark.parametrize(
    "name, cpus", [("grid3e16", 8), ("sparse200", 8), ("dense-card", 1), ("dense-card", 8)]
)
def test_an_analysis_without_helpers_leaves_the_switch_interval_alone(monkeypatch, name, cpus):
    # The coupled and shared plans start no helper, and neither does the
    # per-query plan on one CPU; on 8 it starts 7 query helpers. No
    # analysis sets the switch interval, with helpers or without.
    monkeypatch.setattr(bnsens.sobol, "_cpus", lambda: cpus)
    bn, spec = bench_workload(monkeypatch, name)
    intervals = []
    monkeypatch.setattr(sys, "setswitchinterval", intervals.append)
    compute_all(bn, spec)
    assert intervals == []


def _gate_tree_root_evidence(leaves):
    bn, spec, _ = gate_tree(leaves, 0)
    return bn, AnalysisSpec(spec.output, frozenset(range(0, leaves, 4)), spec.value_map)


@pytest.mark.parametrize(
    "network",
    [
        lambda m: bench_workload(m, "grid3e16"),
        lambda m: concrete_style_network(),
        lambda m: _gate_tree_root_evidence(64),
        lambda m: _gate_tree_root_evidence(128),
    ],
    ids=["grid3e16", "concrete-style", "gate-tree-64", "gate-tree-128"],
)
def test_coupled_order_from_scopes_is_the_order_of_the_built_network(
    monkeypatch, network
):
    # The coupled plan orders the factor scopes of square_wrt(t_full, ())
    # and the coupling pairs, and adds the couplings only once the plan is
    # taken. The Elimination that marginals calibrates must run over
    # square_wrt's network plus those couplings, by the order costed. Its
    # operands are recorded as `run` receives them: after the run the
    # consumed arrays are None.
    bn, spec = network(monkeypatch)
    orders, squares, priors, runs, calibrated = [], [], [], [], []
    order, square, prior = bnsens.network.min_weight_order, square_wrt, bnsens.sobol._priors
    run, calibrate = bnsens.network.Elimination.run, bnsens.sobol.marginals

    def recording_order(scopes, cardinalities, keep=()):
        orders.append((set(cardinalities), order(scopes, cardinalities, keep=keep)))
        return orders[-1][1]

    def recording_square(tn, shared):
        squares.append((tn, tuple(shared)))
        return square(tn, shared)

    def recording_priors(j):
        priors.append(prior(j))
        return priors[-1]

    def recording_run(self, order, *factors, **kwargs):
        runs.append((self, dict(self.universe), [*self.scopes], [*self.arrays], order, factors,
                     kwargs.get("records")))
        return run(self, order, *factors, **kwargs)

    def recording_calibration(tn, **kwargs):
        if kwargs.get("outside_of") is not None:
            calibrated.append(tn)
        return calibrate(tn, **kwargs)

    monkeypatch.setattr(bnsens.network, "min_weight_order", recording_order)
    monkeypatch.setattr(bnsens.sobol, "square_wrt", recording_square)
    monkeypatch.setattr(bnsens.sobol, "_priors", recording_priors)
    monkeypatch.setattr(bnsens.network.Elimination, "run", recording_run)
    monkeypatch.setattr(bnsens.sobol, "marginals", recording_calibration)
    compute_all(bn, spec)
    ((t_full, shared),) = squares
    (coupled,) = calibrated
    ((universe, scopes, arrays, ran, added, records),) = [r[1:] for r in runs if r[0] is coupled]
    (p,) = priors
    assert shared == ()
    squared = square_wrt(t_full, ())
    stride = max(t_full.universe) + 1
    factors = [*squared.factors]
    factors += [Factor((k, k + stride), np.diag(reciprocal(q))) for k, q in p.items()]
    assert universe == squared.universe
    assert [*scopes, *(f.axes for f in added)] == [f.axes for f in factors]
    values = [*arrays, *(f.values for f in added)]
    assert all(np.array_equal(a, b.values) for a, b in zip(values, factors))
    expected = min_weight_order([f.axes for f in factors], squared.universe)
    (costed,) = [found for vertices, found in orders if vertices == set(squared.universe)]
    assert costed == expected
    assert costed.cells == expected.cells
    assert ran == ()  # the run replays the records alone
    # the records the plan derived from the costed order, which the run replays
    added_scopes = [f.axes for f in added]
    assert records == bnsens.network.Schedule(universe, [*scopes]).derive(costed, added_scopes)


def test_dense_card_never_builds_the_coupled_network(monkeypatch, caplog):
    # dense-card costs the coupled plan and declines it, from scopes alone:
    # no coupling diagonal is made, and no elimination, calibrated or not,
    # runs over replicas.
    bn, spec = bench_workload(monkeypatch, "dense-card")
    calibrated, ran = [], []
    run, calibrate = bnsens.network.Elimination.run, bnsens.sobol.marginals

    def refuse(*args, **kwargs):
        raise AssertionError("a coupling diagonal was built")

    def recording_run(self, order, *factors, **kwargs):
        ran.append(set(self.universe))
        return run(self, order, *factors, **kwargs)

    def recording_calibration(tn, **kwargs):
        calibrated.append((set(tn.universe), kwargs.get("outside_of")))
        return calibrate(tn, **kwargs)

    monkeypatch.setattr(bnsens.sobol.np, "diag", refuse)
    monkeypatch.setattr(bnsens.network.Elimination, "run", recording_run)
    monkeypatch.setattr(bnsens.sobol, "marginals", recording_calibration)
    with caplog.at_level(logging.DEBUG, logger="bnsens.sobol"):
        compute_all(bn, spec)
    assert any("coupled plan declined" in r.getMessage() for r in caplog.records)
    assert calibrated and ran
    assert all(outside is None and max(variables) < bn.n for variables, outside in calibrated)
    assert all(max(variables) < bn.n for variables in ran)


@pytest.mark.parametrize("name", ["grid3e16", "sparse200", "dense-card"])
def test_analysis_runs_no_constructor_check(monkeypatch, name):
    # Every network of an analysis derives from the validated input network
    # and is built without the checks of Factor and TensorNetwork, which the
    # public constructors keep.
    bn, spec = bench_workload(monkeypatch, name)
    checked = []
    for cls in (Factor, TensorNetwork):

        def counted(self, _check=cls.__post_init__):
            checked.append(type(self).__name__)
            _check(self)

        monkeypatch.setattr(cls, "__post_init__", counted)
    compute_all(bn, spec)
    assert checked == []
    TensorNetwork({0: 2}, (Factor((0,), [0.5, 0.5]),))
    assert checked == ["Factor", "TensorNetwork"]


def _order_pushing_every_neighbour(scopes, cardinalities, keep=()):
    """`min_weight_order` with the loop that pushed every neighbour of the
    eliminated vertex again, its weight changed or not: the order, the
    cells, and how many of those pushes left a weight unchanged."""
    graph = _primal(scopes, cardinalities)
    cards = {int(v): int(c) for v, c in cardinalities.items()}

    def weight(v):
        w = 1
        for u in graph[v]:
            w *= cards[u]
        return w

    weights = {v: weight(v) for v in graph if v not in set(keep)}
    heap = sorted((w, v) for v, w in weights.items())
    order, cells, unchanged = [], [], 0
    while heap:
        w, v = heapq.heappop(heap)
        if weights.get(v) != w:
            continue
        del weights[v]
        order.append(v)
        cells.append(w * cards[v])
        neighbours = graph.pop(v)
        for u in neighbours:
            joined = graph[u]
            joined |= neighbours
            joined.discard(u)
            joined.discard(v)
            if u in weights:
                unchanged += weights[u] == weight(u)
                weights[u] = weight(u)
                heapq.heappush(heap, (weights[u], u))
    return order, cells, unchanged


@pytest.mark.parametrize(
    "network",
    [lambda m: bench_workload(m, "grid3e16"), lambda m: _gate_tree_root_evidence(256)],
    ids=["grid3e16", "gate-tree-256"],
)
def test_min_weight_order_pushes_only_changed_weights_to_the_same_order(
    monkeypatch, network
):
    # Each ordering of the analysis (P(O) and the coupled network) must
    # come out in the same order and with the same cells as from the loop
    # that pushed every neighbour again; some of those pushes were of an
    # unchanged weight, which the heap now never sees. Each order is
    # checked before the analysis runs it, so a wrong one allocates nothing.
    bn, spec = network(monkeypatch)
    unchanged = []
    order = bnsens.network.min_weight_order

    def checked(scopes, cardinalities, keep=()):
        scopes = list(scopes)
        found = order(scopes, cardinalities, keep=keep)
        expected, cells, pushes = _order_pushing_every_neighbour(scopes, cardinalities, keep)
        assert list(found) == expected
        assert list(found.cells) == cells
        unchanged.append(pushes)
        return found

    monkeypatch.setattr(bnsens.network, "min_weight_order", checked)
    compute_all(bn, spec)
    assert len(unchanged) == 2
    assert sum(unchanged) > 0
