"""An analysis keeps its plan, everything it derives from scopes alone, with
its network, and the plan keeps the arrays that read no value, the messages
from its second run on: a later analysis of the same network object under the
same key (output, evidence, `first`, `total`, `closed`) runs that plan under
its own value map, contracts only what reads it, and gives the bits of a
fresh network's analysis. A test that patches SHARED_ELIMINATION_CELLS to force a plan builds
its network after."""

import gc
import logging
import sys
import threading
import types
import weakref

import numpy as np
import pytest

import bnsens.network
import bnsens.sobol
from bnsens import (
    AnalysisSpec,
    ComputeOptions,
    Cpt,
    DegenerateOutputError,
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
        Thread=Counted, Lock=threading.Lock))
    bn, spec = network()
    with caplog.at_level(logging.DEBUG, logger="bnsens.sobol"):
        compute_all(bn, spec, options)
        first = bnsens.sobol._plans[bn]
        kept = repr(first)  # every record, query, order and array it holds
        assert REUSED not in caplog.messages
        caplog.clear()
        warm = compute_all(bn, _remapped(spec), options)
        assert caplog.messages.count(REUSED) == 1
        assert _plan_names(caplog) == [plan]
    # The run changed nothing the plan holds; it added the messages it keeps.
    after = bnsens.sobol._plans[bn]
    assert after.kept.keys() - first.kept.keys() <= {"forward", "build", "coupled"}
    assert repr(after._replace(kept=types.MappingProxyType(
        {k: v for k, v in after.kept.items() if k in first.kept}))) == kept
    assert bool(threads) == (patches.get("_cpus", lambda: 1)() > 1)
    assert _bits(warm) == _bits(compute_all(_fresh(bn), _remapped(spec), options))


def _workload(monkeypatch, name):
    """A benchmark workload, or dense-card with dependent evidence."""
    return _dependent_dense_card() if name == "dependent" else bench_workload(monkeypatch, name)


def _mapped(spec: AnalysisSpec, shift: float = 0.0, scale: float = 1.0) -> AnalysisSpec:
    return AnalysisSpec(spec.output, spec.evidential,
                        {k: v * scale + shift for k, v in spec.value_map.items()})


def _kept_arrays(plan) -> list:
    """Every array the plan keeps, the probability network's included."""
    arrays, values = [], [*plan.kept.values()]
    while values:
        value = values.pop()
        if isinstance(value, np.ndarray):
            arrays.append(value)
        elif isinstance(value, bnsens.network.TensorNetwork):
            values += [f.values for f in value.factors]
        elif isinstance(value, (dict, list, tuple)):
            values += value.values() if isinstance(value, dict) else value
    return arrays


@pytest.mark.parametrize(
    "name, cpus",
    [("sparse200", 1), ("grid3e16", 1), ("dense-card", 1), ("dense-card", 2), ("dependent", 2)],
    ids=["shared", "coupled", "per-query-inline", "per-query-threaded", "dependent"],
)
def test_kept_arrays_give_the_bits_of_a_fresh_analysis_under_any_value_map(
    monkeypatch, name, cpus
):
    # One network object under maps A, B, A, A + 1e6 and A * 1e-5: each
    # analysis after the first runs on the arrays that the first kept, each
    # after the second also on the messages that the second kept, and none
    # of them changes; a fresh network computes every array anew.
    monkeypatch.setattr(bnsens.sobol, "_cpus", lambda: cpus)
    bn, spec = _workload(monkeypatch, name)
    maps = [spec, _remapped(spec), spec, _mapped(spec, shift=1e6), _mapped(spec, scale=1e-5)]
    kept = {}  # by run: the first, and the second and later
    for n, analysis in enumerate(maps):
        assert _bits(compute_all(bn, analysis)) == _bits(compute_all(_fresh(bn), analysis))
        plan = bnsens.sobol._plans[bn]
        kept.setdefault(min(n, 1), (plan.kept, [a.copy() for a in _kept_arrays(plan)]))
        assert plan.kept is kept[min(n, 1)][0]
    assert all(np.array_equal(a, b) for a, b in zip(_kept_arrays(plan), kept[1][1]))


@pytest.mark.parametrize("name", ["sparse200", "grid3e16", "dense-card", "dependent"])
def test_a_repeated_analysis_contracts_only_what_reads_the_value_map(monkeypatch, name):
    # A first analysis keeps no message: a network analysed once would never
    # read one. A repeated analysis builds neither the probability network
    # nor the evidence marginal, nor its priors. Every kept array is
    # read-only, and an array the value map made is not, so a contraction of
    # kept arrays alone would repeat value-free work: from the third
    # analysis on, each `_contract` reads an array of its own run. Not yet
    # inside the per-query queries, whose programs run whole, so a bucket
    # over kept arrays alone is contracted again there in every analysis;
    # their calls are not checked.
    monkeypatch.setattr(bnsens.sobol, "_cpus", lambda: 1)
    bn, spec = _workload(monkeypatch, name)
    compute_all(bn, spec)
    assert not bnsens.sobol._plans[bn].kept.keys() & {"forward", "build", "coupled"}
    calls, querying = [], []

    def hooked(module, attr, wrap):
        original = getattr(module, attr)
        monkeypatch.setattr(module, attr, lambda *args, **kwargs: wrap(original, *args, **kwargs))

    def contracting(original, scopes, operands, *args):
        calls.append(bool(querying) or any(a.flags.writeable for a in operands))
        return original(scopes, operands, *args)

    def query(original, *args):
        querying.append(True)
        try:
            return original(*args)
        finally:
            querying.pop()

    def refused(original, *args, **kwargs):
        raise AssertionError("a repeated analysis rebuilt a value-free array")

    hooked(bnsens.network, "_contract", contracting)
    hooked(bnsens.sobol, "_second_moment", query)
    compute_all(_fresh(bn), spec)
    cold, calls[:] = len(calls), []
    for attr in ("mrf_from_bn", "marginalize", "_priors"):
        hooked(bnsens.sobol, attr, refused)
    compute_all(bn, spec)
    arrays = _kept_arrays(bnsens.sobol._plans[bn])
    assert arrays and not any(a.flags.writeable for a in arrays)
    calls[:] = []
    compute_all(bn, _remapped(spec))
    assert calls and all(calls) and len(calls) < cold


@pytest.mark.parametrize("name", ["grid3e16", "sparse200", "dense-card", "dependent"])
def test_a_second_analysis_orders_and_derives_nothing(monkeypatch, name):
    # Every ordering, `least_cells`, `separated_evidence` and every bucket
    # record belongs to the plan, and so does the calibration of a dependent
    # evidence marginal; the hooks see them in a cold analysis.
    bn, spec = _workload(monkeypatch, name)
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


@pytest.mark.parametrize("name", ["grid3e16", "sparse200", "dense-card", "dependent"])
@pytest.mark.parametrize("cpus", [1, 2])
def test_a_first_run_orders_and_derives_nothing(monkeypatch, name, cpus):
    # The plan holds every program of a first analysis, each query's and
    # the calibration of a dependent evidence marginal included: once
    # `_planned` returns, no ordering and no bucket record is made.
    monkeypatch.setattr(bnsens.sobol, "_cpus", lambda: cpus)
    bn, spec = _workload(monkeypatch, name)
    order, derive = bnsens.network.min_weight_order, bnsens.network.Schedule.derive
    plan = bnsens.sobol._planned
    calls, planned = {"before": [], "after": []}, []

    def planning(*args):
        found = plan(*args)
        planned.append(True)
        return found

    def ordering(*args, **kwargs):
        calls["after" if planned else "before"].append("order")
        return order(*args, **kwargs)

    def deriving(self, *args, **kwargs):
        calls["after" if planned else "before"].append("derive")
        return derive(self, *args, **kwargs)

    monkeypatch.setattr(bnsens.sobol, "_planned", planning)
    monkeypatch.setattr(bnsens.network, "min_weight_order", ordering)
    monkeypatch.setattr(bnsens.network.Schedule, "derive", deriving)
    compute_all(bn, spec, ComputeOptions(closed=((min(spec.evidential), 9),))
                if name == "dependent" else None)
    assert planned == [True] and "order" in calls["before"] and calls["after"] == []


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

    # A first run raises after its first arrays: a constant map once P(O)
    # is made, a failed query once every other array is. Neither keeps its
    # plan or its arrays, and a kept plan outlives a later run that raises.
    monkeypatch.setattr(bnsens.sobol, "_cpus", lambda: 1)
    bn, spec = _dense_card()
    constant = _mapped(spec, scale=0.0)
    query = bnsens.sobol._second_moment

    def failing(q, *args):
        if q.keep != spec.evidential:
            raise MemoryError("cannot allocate the bucket")
        return query(q, *args)

    with pytest.raises(DegenerateOutputError):
        compute_all(bn, constant)
    assert bn not in bnsens.sobol._plans
    with monkeypatch.context() as m:
        m.setattr(bnsens.sobol, "_second_moment", failing)
        with pytest.raises(MemoryError):
            compute_all(bn, spec)
    assert bn not in bnsens.sobol._plans
    expected = _bits(compute_all(bn, spec))
    kept = bnsens.sobol._plans[bn]
    assert kept.kept is not None
    with pytest.raises(DegenerateOutputError):
        compute_all(bn, constant)
    assert bnsens.sobol._plans[bn] is kept
    assert _bits(compute_all(bn, spec)) == expected


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
