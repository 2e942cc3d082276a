"""An analysis keeps its plan, everything it derives from scopes alone, with
its network: a later analysis of the same network object under the same key
(output, evidence, `first`, `total`, `closed`) runs that plan under its own
value map, and gives the bits of a fresh network's analysis. A test that
patches SHARED_ELIMINATION_CELLS to force a plan builds its network after."""

import gc
import logging
import sys
import threading
import types
import weakref

import pytest

import bnsens.network
import bnsens.sobol
from bnsens import (
    AnalysisSpec,
    ComputeOptions,
    Cpt,
    DiscreteBayesNet,
    StateSpaceTooLargeError,
    Variable,
    compute_all,
)
from helpers import bench_workload, chain_bn, chain_spec, concrete_style_network, layered_network

REUSED = "reusing the network's plan"


def _bits(report) -> tuple:
    """E[f], Var[f] and every index of a report, as `float.hex`."""
    def hexed(x):
        return None if x is None else x.hex()

    return (report.expected_value.hex(), report.variance.hex(),
            [(e.variables, hexed(e.s), hexed(e.st)) for e in report.indices])


def _fresh(bn: DiscreteBayesNet) -> DiscreteBayesNet:
    """An equal network that is another object, so it has no plan yet."""
    return DiscreteBayesNet(bn.variables, bn.cpts)


def _remapped(spec: AnalysisSpec) -> AnalysisSpec:
    """`spec` under another value map, not an affine image of the first."""
    labels = sorted(spec.value_map, key=spec.value_map.get)
    values = {label: float((3 * k) % 5) + 0.125 * k * k for k, label in enumerate(labels)}
    return AnalysisSpec(spec.output, spec.evidential, values)


def _plan_names(caplog) -> list[str]:
    return [m.split(" plan:")[0] for m in caplog.messages if " plan:" in m]


def _dense_card():
    """The benchmark's dense-card network, with output label k scoring k."""
    return layered_network(1, 8, 5, (5, 8))


def _dependent_dense_card():
    """dense-card with interior node 9 as evidence instead of root 7."""
    bn, spec = _dense_card()
    return bn, AnalysisSpec(spec.output, frozenset({0, 1, 2, 3, 4, 5, 6, 9}), spec.value_map)


@pytest.mark.parametrize(
    "network, options, patches, plan",
    [
        (lambda: (chain_bn(), chain_spec()), ComputeOptions(), {}, "shared-elimination"),
        (concrete_style_network, ComputeOptions(), {"SHARED_ELIMINATION_CELLS": 0}, "coupled"),
        (_dense_card, ComputeOptions(), {"_cpus": lambda: 2}, "per-query"),
        (lambda: layered_network(5, 6, 5, 2), ComputeOptions(),
         {"SHARED_ELIMINATION_CELLS": 0, "_cpus": lambda: 1}, "per-query"),
        (_dependent_dense_card, ComputeOptions(closed=((0, 9), (1, 2, 3), (4,))),
         {"_cpus": lambda: 2}, "per-query"),
    ],
    ids=["shared", "coupled", "per-query-threaded", "per-query-inline", "dependent-closed"],
)
def test_a_kept_plan_gives_the_bits_of_a_fresh_analysis(
    monkeypatch, caplog, network, options, patches, plan
):
    # The second analysis of one network runs the first one's plan under
    # another value map; a fresh network plans that map's analysis anew.
    for name, value in patches.items():
        monkeypatch.setattr(bnsens.sobol, name, value)
    threads = []

    class Counted(threading.Thread):
        def start(self):
            threads.append(self)
            super().start()

    monkeypatch.setattr(bnsens.sobol, "threading", types.SimpleNamespace(
        Thread=Counted, Lock=threading.Lock, Event=threading.Event))
    bn, spec = network()
    with caplog.at_level(logging.DEBUG, logger="bnsens.sobol"):
        compute_all(bn, spec, options)
        kept = repr(bnsens.sobol._plans[bn])  # every record, query and order it holds
        assert REUSED not in caplog.messages
        caplog.clear()
        warm = compute_all(bn, _remapped(spec), options)
        assert caplog.messages.count(REUSED) == 1
        assert _plan_names(caplog) == [plan]
    assert repr(bnsens.sobol._plans[bn]) == kept  # the run changed nothing the plan holds
    assert bool(threads) == (patches.get("_cpus", lambda: 1)() > 1)
    assert _bits(warm) == _bits(compute_all(_fresh(bn), _remapped(spec), options))


@pytest.mark.parametrize("name", ["grid3e16", "sparse200", "dense-card"])
def test_a_second_analysis_orders_and_derives_nothing(monkeypatch, name):
    # Every ordering, `least_cells`, `separated_evidence` and every bucket
    # record belongs to the plan; the hooks see them in a cold analysis.
    bn, spec = bench_workload(monkeypatch, name)
    symbolic = []

    def counted(module, attr):
        original = getattr(module, attr)

        def counting(*args, **kwargs):
            symbolic.append(attr)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, attr, counting)

    derive = bnsens.network.Schedule.derive

    def deriving(self, *args, **kwargs):
        records = derive(self, *args, **kwargs)
        if records:
            symbolic.append("derive")
        return records

    compute_all(bn, spec)
    counted(bnsens.network, "min_weight_order")
    counted(bnsens.sobol, "least_cells")
    counted(bnsens.sobol, "separated_evidence")
    monkeypatch.setattr(bnsens.network.Schedule, "derive", deriving)
    compute_all(bn, _remapped(spec))
    assert symbolic == []
    compute_all(_fresh(bn), spec)
    assert {"min_weight_order", "separated_evidence", "derive"} <= set(symbolic)


def test_a_changed_key_builds_a_new_plan(monkeypatch):
    bn, spec = _dense_card()
    planned = []
    plan = bnsens.sobol._planned

    def counted(*args):
        planned.append(args[-1])  # the key
        return plan(*args)

    monkeypatch.setattr(bnsens.sobol, "_planned", counted)
    fewer = AnalysisSpec(spec.output, spec.evidential - {0}, spec.value_map)
    analyses = [
        (spec, ComputeOptions(), True),
        (_remapped(spec), ComputeOptions(), False),
        (fewer, ComputeOptions(), True),
        (fewer, ComputeOptions(first=False), True),
        (fewer, ComputeOptions(first=False, total=False, closed=((1, 2),)), True),
        (fewer, ComputeOptions(total=False), True),
        (fewer, ComputeOptions(total=False, closed=((1, 2),)), True),
        (fewer, ComputeOptions(total=False, closed=((2, 1),)), False),
        (spec, ComputeOptions(), True),  # one slot: the first key was replaced
    ]
    for analysis, options, new in analyses:
        count = len(planned)
        compute_all(bn, analysis, options)
        assert len(planned) == count + new
        assert bnsens.sobol._plans[bn].key == planned[-1]


def _wide():
    """A chance root with 53 evidential children: summing it out of the
    evidence marginal leaves a bucket over 54 axes, which einsum cannot label."""
    n = 53
    variables = [Variable(0, "C", ("0", "1"))]
    variables += [Variable(k, f"E{k}", ("0", "1")) for k in range(1, n + 1)]
    variables.append(Variable(n + 1, "O", ("0", "1")))
    cpts = [Cpt(0, (), [[0.5, 0.5]])]
    cpts += [Cpt(k, (0,), [[0.9, 0.1], [0.2, 0.8]]) for k in range(1, n + 1)]
    cpts.append(Cpt(n + 1, (1,), [[0.7, 0.3], [0.4, 0.6]]))
    spec = AnalysisSpec(n + 1, frozenset(range(1, n + 1)), {"0": 0.0, "1": 1.0})
    return DiscreteBayesNet(variables, cpts), spec


def test_a_plan_that_raises_is_not_kept(monkeypatch):
    bn, spec = _wide()
    planned = []
    plan = bnsens.sobol._planned
    monkeypatch.setattr(bnsens.sobol, "_planned", lambda *a: planned.append(1) or plan(*a))
    for _ in range(2):
        with pytest.raises(StateSpaceTooLargeError, match="54 axes"):
            compute_all(bn, spec)
        assert bn not in bnsens.sobol._plans
    assert planned == [1, 1]


def test_the_plan_goes_with_its_network():
    bn, spec = chain_bn(), chain_spec()
    compute_all(bn, spec)
    assert bn in bnsens.sobol._plans
    gc.collect()
    kept, gone = len(bnsens.sobol._plans), weakref.ref(bn)
    del bn
    gc.collect()
    assert gone() is None
    assert len(bnsens.sobol._plans) == kept - 1


def test_threads_analysing_one_network_at_once_get_the_single_thread_bits(monkeypatch):
    # Four threads on two cores analyse one network under three keys at
    # once, so they plan, replace and run its one plan while the others do,
    # with a switch interval short enough to interleave them. Each result
    # must have the bits of a single-threaded analysis of a fresh network.
    bn, spec = _dense_card()
    specs = [spec, _remapped(spec), AnalysisSpec(spec.output, spec.evidential - {3},
                                                 spec.value_map)]
    monkeypatch.setattr(bnsens.sobol, "_cpus", lambda: 1)
    expected = [_bits(compute_all(_fresh(bn), s)) for s in specs]
    monkeypatch.setattr(bnsens.sobol, "_cpus", lambda: 2)
    start, found = threading.Barrier(4, timeout=10), {}

    def analyse(k):
        start.wait()
        for n in range(6):
            which = (k + n) % len(specs)
            found[k, n] = _bits(compute_all(bn, specs[which])) == expected[which]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        analyses = [threading.Thread(target=analyse, args=(k,)) for k in range(4)]
        for analysis in analyses:
            analysis.start()
        for analysis in analyses:
            analysis.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(analysis.is_alive() for analysis in analyses)
    assert len(found) == 24 and all(found.values())
    assert bnsens.sobol._plans[bn].key[1] in {s.evidential for s in specs}


def test_a_warm_analysis_logs_its_plan_and_that_it_reused_it(monkeypatch, caplog):
    # Every analysis logs its plan line and its d-separation lines; one that
    # runs a kept plan says so first.
    bn, spec = bench_workload(monkeypatch, "grid3e16")
    lines = []
    for s in (spec, _remapped(spec)):
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="bnsens.sobol"):
            compute_all(bn, s)
        lines.append([r.getMessage() for r in caplog.records if r.name == "bnsens.sobol"])
    cold, warm = lines
    assert REUSED not in cold
    assert warm == [REUSED, *cold]
    assert any("by d-separation from the output" in line for line in cold)
    assert _plan_names(caplog) == ["coupled"]
