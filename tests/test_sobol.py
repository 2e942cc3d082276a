import itertools
import logging
import math
import sys
import threading
import time
import types
import warnings
from fractions import Fraction
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
    ContractionUnderflowWarning,
    Cpt,
    DegenerateOutputError,
    DiscreteBayesNet,
    Factor,
    NotEvidentialError,
    PartialFunctionError,
    ValidationError,
    Variable,
    ancestors,
    collapse,
    compute_all,
    contract_all,
    encode_utility_node,
    marginalize,
    mrf_from_bn,
    output_values,
    separated_evidence,
)
from bnsens.cli import main
from bnsens.ingest import NativeDocument, save_native
from bnsens.oracle import brute_force_closed, brute_force_f, brute_force_indices
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
    exact_gate_tree_indices,
    exact_indices,
    fan_in,
    fault_tree,
    function_tn,
    gate_tree,
    gate_tree_reference,
    impossible_label_grid,
    inflated_orders,
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
    derive = bnsens.network._kernel  # once per bucket and per table, forward or backward

    def recording(scopes, cards, axes):
        eliminated.append(set(cards).difference(axes))
        return derive(scopes, cards, axes)

    monkeypatch.setattr(bnsens.network, "_kernel", recording)
    for subset in ((), (1,), (0, 0)):
        with pytest.raises(NotEvidentialError):
            compute_all(chain, chain_analysis, ComputeOptions(closed=(subset,)))
    assert eliminated == []


def test_closed_subset_ids_must_be_integers():
    # 2.9 and "2" were once read as variable 2, and NaN raised an untyped
    # ValueError; an integer of any type is taken as the int it is.
    bn, spec = random_instance(3)
    assert 2 in spec.evidential
    for bad in (2.9, "2", math.nan):
        with pytest.raises(NotEvidentialError):
            compute_all(bn, spec, ComputeOptions(closed=((bad,),)))
    options = ComputeOptions(first=False, total=False, closed=((np.int64(2),),))
    (entry,) = compute_all(bn, spec, options).indices
    assert entry.variables == (2,) and type(entry.variables[0]) is int


def test_a_non_finite_index_raises(monkeypatch):
    monkeypatch.setattr(bnsens.sobol, "total_index", lambda *args: math.nan)
    with pytest.raises(DegenerateOutputError, match=r"ST of .* is not finite \(nan\)"):
        compute_all(chain_bn(), chain_spec())


def test_a_negative_index_warns_where_compute_all_is_called(monkeypatch):
    monkeypatch.setattr(bnsens.sobol, "variance_component", lambda *args: -1e-3)
    with pytest.warns(RuntimeWarning, match="S of .* is -1.000e-03, negative") as caught:
        compute_all(chain_bn(), chain_spec())
    assert [w.filename for w in caught] == [__file__]


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


def _count_orderings(monkeypatch, analysis):
    """The `min_weight_order` calls that `analysis()` makes, and its result."""
    order = bnsens.network.min_weight_order
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return order(*args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(bnsens.network, "min_weight_order", counted)
        result = analysis()
    return len(calls), result


def test_first_order_indices_take_a_fixed_number_of_orderings(monkeypatch):
    # All first-order indices come from one calibration of each network,
    # so the ordering calls do not grow with the number of evidential roots.
    # The first network's table over the evidence and the output (128
    # cells) is small enough for the shared elimination, switched off here,
    # so both take the per-query plan.
    monkeypatch.setattr(bnsens.sobol, "SHARED_ELIMINATION_CELLS", 0)
    counts = []
    for roots in (6, 12):
        bn, spec = layered_network(5, roots, 5, 2)
        calls, report = _count_orderings(
            monkeypatch, lambda: compute_all(bn, spec, ComputeOptions(total=False))
        )
        assert sum(e.s > 0.0 for e in report.indices) >= 2
        counts.append(calls)
    assert counts[0] == counts[1]


def test_shared_elimination_indices_take_a_fixed_number_of_orderings(monkeypatch):
    # The tables take no ordering, and neither does anything else here, so
    # every index of 4 or 10 roots takes none: C, the one chance variable,
    # and then the output are each eliminated alone, P(O) is a sum of the
    # table over the evidence and the output, and the root evidence's
    # marginal is its own factors.
    counts = []
    for roots in (4, 10):
        bn, spec = fan_in(roots, 0)
        with monkeypatch.context() as m:
            _refuse_queries(m)
            calls, report = _count_orderings(m, lambda: compute_all(bn, spec))
        assert all(e.s > 0.0 and e.st > 0.0 for e in report.indices)
        counts.append(calls)
    assert counts == [0, 0]


def test_first_order_times_share_the_calibration(monkeypatch):
    # Each calibration is slowed by 20 ms: the first-order times must still
    # add up to the work, shared equally by the variables that used it.
    # The network stays per-query once the shared elimination is switched
    # off; with root evidence it calibrates t_full alone, and j would add a
    # second calibration.
    monkeypatch.setattr(bnsens.sobol, "SHARED_ELIMINATION_CELLS", 0)
    calibrate = bnsens.sobol.marginals
    calls = []

    def slow(tn, **kwargs):
        calls.append(tn)
        time.sleep(0.02)
        return calibrate(tn, **kwargs)

    monkeypatch.setattr(bnsens.sobol, "marginals", slow)
    bn, spec = layered_network(5, 6, 5, 2)
    entries = compute_all(bn, spec, ComputeOptions(total=False)).indices
    queried = [e for e in entries if e.s != 0.0]
    assert len(queried) >= 2 and calls
    work = 0.02 * len(calls)
    for entry in queried:
        assert entry.s_time >= work / len(queried)
    assert sum(e.s_time for e in entries) >= work


def test_per_query_times_share_the_queries(monkeypatch):
    # Each query is slowed by 20 ms, on one CPU so that they run one after
    # another: the total-index times must add up to the work, Var[f]'s
    # query included, shared equally by the 7 indices that read it.
    monkeypatch.setattr(bnsens.sobol, "_cpus", lambda: 1)
    query = bnsens.sobol._second_moment
    calls = []

    def slow(*args):
        calls.append(args[0].keep)
        time.sleep(0.02)
        return query(*args)

    monkeypatch.setattr(bnsens.sobol, "_second_moment", slow)
    bn, spec = layered_network(4, 10, 5, (5, 7))
    entries = compute_all(bn, spec, ComputeOptions(first=False)).indices
    queried = [e for e in entries if e.st != 0.0]
    assert len(calls) == len(queried) + 1 == 8
    work = 0.02 * len(calls)
    for entry in queried:
        assert entry.st_time >= work / len(queried)
    assert sum(e.st_time for e in entries) >= work


def test_shared_elimination_times_share_the_tables(monkeypatch):
    # Each of the two tables over the evidence is slowed by 20 ms: the
    # times of the 4 first-order, 4 total and 1 closed index taken from
    # them must add up to the tables' time, in equal shares.
    bn, spec = fan_in(4, 0)
    table = bnsens.network.Elimination.table

    def slow(self, *args):
        axes, values = table(self, *args)
        if set(axes) == spec.evidential:
            time.sleep(0.02)
        return axes, values

    monkeypatch.setattr(bnsens.network.Elimination, "table", slow)
    entries = compute_all(bn, spec, ComputeOptions(closed=((0, 1),))).indices
    times = [e.s_time for e in entries] + [e.st_time for e in entries[:-1]]
    assert len(times) == 9
    for elapsed in times:
        assert elapsed >= 0.04 / 9
    assert sum(times) >= 0.04


def _plans(caplog) -> list[str]:
    """The plan named by each analysis's DEBUG plan line, in order."""
    return [
        message.split(" plan:")[0]
        for message in (r.getMessage() for r in caplog.records if r.name == "bnsens.sobol")
        if " plan:" in message
    ]


def test_plan_line_names_the_plan_and_its_cells(monkeypatch, caplog):
    # fan_in(4, 0) has four binary roots and a binary output, a table of 32
    # cells, so it shares one elimination. With that switched off, the
    # layered network, whose six binary roots and binary output span 128
    # cells, takes the per-query plan and reports the cells of building t.
    with caplog.at_level(logging.DEBUG, logger="bnsens.sobol"):
        compute_all(*fan_in(4, 0))
        monkeypatch.setattr(bnsens.sobol, "SHARED_ELIMINATION_CELLS", 0)
        compute_all(*layered_network(5, 6, 5, 2))
    lines = [r.getMessage() for r in caplog.records if " plan:" in r.getMessage()]
    assert lines == [
        "shared-elimination plan: table over the evidence and the output 32 cells, "
        "at most 4096",
        "per-query plan: table over the evidence and the output 128 cells, above 0; "
        "building t 432 cells",
    ]


def _evidence_marginal(bn, spec):
    mrf = mrf_from_bn(bn, ancestors(bn.dag(), spec.evidential))
    return marginalize(mrf, set(mrf.universe) - spec.evidential)


def _guard_per_query(monkeypatch, spec):
    """Record the networks (or forward passes, for `t_full`) that `marginals`
    calibrates and the programs that `network._executed` runs outside
    conditional-moment queries and their divisors (`_divisors`), and outside
    t's one build (the `build` records of the plan that `_run` runs, derived
    or kept); refuse a calibration of the reduced t, which unlike t_full
    lacks the output and unlike the evidence marginal does not sum to 1. A
    forward pass is whole by then: its live arrays are scalars whose product
    is its contraction."""
    calibrated, contracted, inside, builds = [], [], [], []
    calibrate, executed, run = bnsens.sobol.marginals, bnsens.network._executed, bnsens.sobol._run
    query, divisors = bnsens.sobol._second_moment, bnsens.sobol._divisors

    def guarded(tn, *args, **kwargs):
        total = math.prod(float(a) for a in tn.arrays if a is not None) if isinstance(
            tn, bnsens.network.Elimination) else contract_all(tn)
        if spec.output not in tn.universe and abs(total - 1.0) > 1e-9:
            raise AssertionError("the reduced t was calibrated")
        calibrated.append(tn)
        return calibrate(tn, *args, **kwargs)

    def running(plan, *args):
        builds[:] = [plan.build]  # t is built once: a second build counts as a contraction
        return run(plan, *args)

    def recorded(records, *args):
        if builds and records is builds[0]:
            builds.clear()
        elif not inside:
            contracted.append(records)
        return executed(records, *args)

    def within(fn, *args):
        inside.append(True)
        try:
            return fn(*args)
        finally:
            inside.pop()

    def queried(*args):
        return within(query, *args)

    def divided(*args):  # the queries' divisors, which contract the evidence marginal
        return within(divisors, *args)

    monkeypatch.setattr(bnsens.sobol, "marginals", guarded)
    monkeypatch.setattr(bnsens.sobol, "_run", running)
    monkeypatch.setattr(bnsens.network, "_executed", recorded)
    monkeypatch.setattr(bnsens.sobol, "_second_moment", queried)
    monkeypatch.setattr(bnsens.sobol, "_divisors", divided)
    return calibrated, contracted


def _per_query_instances(monkeypatch, caplog, count):
    """The first `count` networks of `random_roots_instance` (independent
    evidence) and of `random_instance` (mostly dependent evidence) that take
    the per-query plan. Every one of them is small enough for the shared
    elimination, which stays switched off for the rest of the test."""
    monkeypatch.setattr(bnsens.sobol, "SHARED_ELIMINATION_CELLS", 0)
    found = []
    for make in (random_roots_instance, random_instance):
        taken = 0
        for seed in itertools.count(400):
            bn, spec = make(seed)
            caplog.clear()
            with caplog.at_level(logging.DEBUG, logger="bnsens.sobol"):
                compute_all(bn, spec)
            if _plans(caplog) == ["per-query"]:  # an equal network, with no plan kept
                found.append((DiscreteBayesNet(bn.variables, bn.cpts), spec))
                taken += 1
                if taken == count:
                    break
    return found


def test_per_query_plan_calibrates_t_full_and_never_t(monkeypatch, caplog):
    # Independent evidence: one calibration, of t_full, gives E[f] and every
    # S_i, and the queries divide by the priors. Dependent evidence adds one
    # calibration of the evidence marginal j. Neither calibrates t or
    # contracts it outside a query; without an S_i to compute (first=False,
    # one evidential variable, or every S_i zero by d-separation), nothing
    # is calibrated or contracted: E[f] is the sum of P(O) g, and P(O) comes
    # from the forward pass that the calibration would have continued.
    kinds = {True: 0, False: 0}
    for bn, spec in _per_query_instances(monkeypatch, caplog, 15):
        independent = bnsens.sobol._priors(_evidence_marginal(bn, spec)) is not None
        separated, _ = separated_evidence(bn.dag(), spec.output, spec.evidential)
        calibrates = len(spec.evidential) > 1 and spec.evidential - separated
        for first in (True, False):
            with monkeypatch.context() as m:
                calibrated, contracted = _guard_per_query(m, spec)
                compute_all(bn, spec, ComputeOptions(first=first))
            if first and calibrates:
                assert spec.output in calibrated[0].universe
                assert len(calibrated) == (1 if independent else 2)
                assert contracted == []
                kinds[independent] += 1
            else:
                assert calibrated == [] and contracted == []
    assert kinds[True] >= 5 and kinds[False] >= 5


@pytest.mark.parametrize(
    "make, shared",
    [
        (random_instance, False),
        (random_roots_instance, False),
        (random_instance, True),
        (random_roots_instance, True),
    ],
    ids=["random_instance", "random_roots_instance", "random_instance-shared",
         "random_roots_instance-shared"],
)
def test_output_marginal_from_the_forward_pass_is_the_collapse_bit_for_bit(
    monkeypatch, make, shared
):
    # P(O) is the first table, that of the one forward pass when it reaches
    # O's bucket, summed over every axis but O. With the shared elimination
    # switched off, the pass keeps O alone, and the table must be the
    # collapse of the probability network on O; in the shared plan, which
    # every instance here takes, it keeps the evidence too, and the table
    # must be the collapse on E | {O}, so that P(O) is that collapse summed
    # over the evidence axes. Bit for bit, even where the analysis goes on
    # to raise. `collapse` reads an `Elimination.table` too, so each
    # expected collapse is taken before the recorder is installed. Outside
    # the shared plan, the first table is the only one over any axis: the
    # per-query plan's scalar contractions, the table records (variable
    # None) that `_execute` runs, are the only other tables.
    if not shared:
        monkeypatch.setattr(bnsens.sobol, "SHARED_ELIMINATION_CELLS", 0)
    instances = []
    for seed in range(40):
        bn, spec = make(seed)
        relevant = ancestors(bn.dag(), spec.evidential | {spec.output})
        keep = spec.evidential | {spec.output} if shared else {spec.output}
        instances.append((bn, spec, collapse(mrf_from_bn(bn, relevant), keep)))
    table, execute = bnsens.network.Elimination.table, bnsens.network._execute
    tables, scalars = [], []

    def recording(self, *args):
        tables.append(table(self, *args))
        return tables[-1]

    def executing(records, *args):
        def seen():
            for record in records:
                if record[0] is None:  # a table: the record's message scope
                    tables.append((record[3], None))
                    scalars.append(record[3] == ())
                yield record

        return execute(seen(), *args)

    monkeypatch.setattr(bnsens.network.Elimination, "table", recording)
    monkeypatch.setattr(bnsens.network, "_execute", executing)
    for bn, spec, expected in instances:
        tables.clear()
        try:
            compute_all(bn, spec)
        except DegenerateOutputError:
            pass
        axes, first = tables[0]
        assert axes == expected.axes
        assert first.tobytes() == expected.values.tobytes()
        summed = tuple(a for a, k in enumerate(axes) if k != spec.output)
        assert first.sum(axis=summed).tobytes() == expected.values.sum(axis=summed).tobytes()
        if not shared:
            assert [axes for axes, _ in tables if axes] == [(spec.output,)]
    assert all(scalars) and len(scalars) >= (0 if shared else 20)


def test_per_query_plan_matches_the_oracle(monkeypatch, caplog):
    dependent = 0
    for bn, spec in _per_query_instances(monkeypatch, caplog, 15):
        evid = sorted(spec.evidential)
        options = ComputeOptions(closed=(tuple(evid[:2]),))
        with monkeypatch.context() as m:
            _guard_per_query(m, spec)
            report = compute_all(bn, spec, options)
        reference = brute_force_indices(bn, spec)
        assert report.expected_value == pytest.approx(reference.expected_value, abs=1e-9)
        assert report.variance == pytest.approx(reference.variance, abs=1e-9)
        for a, b in zip(report.indices, reference.indices):
            assert a.variables == b.variables
            assert a.s == pytest.approx(b.s, abs=1e-9)
            assert a.st == pytest.approx(b.st, abs=1e-9)
        pair = report.indices[-1]
        assert pair.s == pytest.approx(brute_force_closed(bn, spec, pair.variables), abs=1e-9)
        dependent += bnsens.sobol._priors(_evidence_marginal(bn, spec)) is None
    assert 10 <= dependent <= 20


def test_shared_elimination_matches_the_oracle(monkeypatch, caplog):
    # A small table over the evidence and the output: the chance variables
    # are summed out once, for P(O) and T alike, and every index, first-
    # order, total and closed, comes from the two tables with no
    # conditional-moment query, with dependent and with root evidence, and
    # with first=False or total=False.
    _refuse_queries(monkeypatch)
    kinds = {True: 0, False: 0}
    for make in (random_instance, random_roots_instance):
        for seed in range(1000, 1015):
            bn, spec = make(seed)
            evid = sorted(spec.evidential)
            closed = (tuple(evid[:2]), tuple(evid))
            reference = brute_force_indices(bn, spec)
            closed_reference = [brute_force_closed(bn, spec, ids) for ids in closed]
            for first, total in ((True, True), (False, True), (True, False)):
                options = ComputeOptions(first=first, total=total, closed=closed)
                caplog.clear()
                with caplog.at_level(logging.DEBUG, logger="bnsens.sobol"):
                    report = compute_all(bn, spec, options)
                assert _plans(caplog) == ["shared-elimination"]
                assert report.expected_value == pytest.approx(
                    reference.expected_value, abs=1e-9
                )
                assert report.variance == pytest.approx(reference.variance, abs=1e-9)
                for a, b in zip(report.indices, reference.indices):
                    assert a.variables == b.variables
                    assert a.s == (pytest.approx(b.s, abs=1e-9) if first else None)
                    assert a.st == (pytest.approx(b.st, abs=1e-9) if total else None)
                for entry, value in zip(report.indices[len(evid):], closed_reference):
                    assert entry.s == pytest.approx(value, abs=1e-9)
            kinds[bnsens.sobol._priors(_evidence_marginal(bn, spec)) is not None] += 1
    assert kinds[True] >= 10 and kinds[False] >= 5


def test_shared_elimination_with_one_evidential_variable():
    # E[f | i] is f itself: S_i = S^T_i = 1, and so is the closed index.
    # The table over i and the output has at most 9 cells.
    checked = 0
    for seed in range(1100, 1110):
        bn, spec = random_instance(seed)
        for i in sorted(spec.evidential):
            single = AnalysisSpec(spec.output, frozenset({i}), spec.value_map)
            try:
                reference = brute_force_indices(bn, single)
            except DegenerateOutputError:
                with pytest.raises(DegenerateOutputError):
                    compute_all(bn, single)
                continue
            report = compute_all(bn, single, ComputeOptions(closed=((i,),)))
            assert report.expected_value == pytest.approx(
                reference.expected_value, abs=1e-9
            )
            assert report.variance == pytest.approx(reference.variance, abs=1e-9)
            entry, group = report.indices
            assert entry.s == 1.0 and entry.st == pytest.approx(1.0, abs=1e-9)
            assert reference.indices[0].st == pytest.approx(1.0, abs=1e-9)
            assert group.s == pytest.approx(1.0, abs=1e-9)
            checked += 1
    assert checked >= 10


def test_shared_elimination_sums_the_chance_variables_out_once(monkeypatch, caplog):
    # With root evidence the evidence marginal eliminates nothing, so each
    # chance variable is summed out in exactly one bucket: P(O) is the sum
    # of the one forward pass's table over the evidence and the output,
    # with nothing collapsed, the pass then eliminates O alone, and the one
    # ordering, of the chance variables when there are two or more, spans
    # no replica of the coupled network. `marginalize` builds the evidence
    # marginal, over An(E), and no other network.
    derive = bnsens.network._kernel  # once per bucket and per table, forward or backward
    order = bnsens.network.min_weight_order
    collapse, marginalize = bnsens.sobol.collapse, bnsens.sobol.marginalize
    dropped, ordered, collapsed, marginalized = [], [], [], []

    def recording_derive(scopes, cards, axes):
        dropped.extend(set(cards).difference(axes))
        return derive(scopes, cards, axes)

    def recording_order(scopes, cardinalities, keep=()):
        ordered.append(set(cardinalities))
        return order(scopes, cardinalities, keep=keep)

    def recording_collapse(tn, keep):
        collapsed.append(set(tn.universe))
        return collapse(tn, keep)

    def recording_marginalize(tn, eliminate):
        marginalized.append(set(tn.universe))
        return marginalize(tn, eliminate)

    monkeypatch.setattr(bnsens.network, "_kernel", recording_derive)
    monkeypatch.setattr(bnsens.network, "min_weight_order", recording_order)
    monkeypatch.setattr(bnsens.sobol, "collapse", recording_collapse)
    monkeypatch.setattr(bnsens.sobol, "marginalize", recording_marginalize)
    checked = 0
    for seed in range(1200, 1220):
        bn, spec = random_roots_instance(seed)
        relevant = ancestors(bn.dag(), spec.evidential | {spec.output})
        chance = relevant - spec.evidential - {spec.output}
        for log in (dropped, ordered, collapsed, marginalized):
            log.clear()
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="bnsens.sobol"):
            compute_all(bn, spec)
        if _plans(caplog) != ["shared-elimination"]:
            continue
        (universe,) = marginalized
        assert universe <= ancestors(bn.dag(), spec.evidential)
        if not chance:
            continue
        assert sorted(v for v in dropped if v in chance) == sorted(chance)
        assert dropped.count(spec.output) == 1  # O's bucket, seen by the hook
        assert collapsed == []
        assert len(ordered) == (len(chance) > 1)
        assert all(vertices <= relevant for vertices in ordered)
        checked += 1
    assert checked >= 8


@pytest.mark.parametrize(
    "network, plan, calibrations",
    [
        (concrete_style_network, "coupled", 1),
        (lambda: layered_network(5, 6, 5, 2), "per-query", 0),
        (lambda: fan_in(4, 0), "shared-elimination", 0),
    ],
    ids=["coupled", "per-query", "shared-elimination"],
)
def test_expected_value_without_first_order_takes_no_backward_pass(
    monkeypatch, caplog, network, plan, calibrations
):
    # With first=False, E[f] is one contraction (or the sum of a table):
    # only the coupled network is calibrated, for its outside factors. The
    # layered network is small enough for the shared elimination, which is
    # switched off outside its own case.
    if plan != "shared-elimination":
        monkeypatch.setattr(bnsens.sobol, "SHARED_ELIMINATION_CELLS", 0)
    bn, spec = network()
    calibrate = bnsens.sobol.marginals
    calibrated = []

    def counted(tn, *args, **kwargs):
        calibrated.append(kwargs)
        return calibrate(tn, *args, **kwargs)

    with monkeypatch.context() as m, caplog.at_level(logging.DEBUG, logger="bnsens.sobol"):
        m.setattr(bnsens.sobol, "marginals", counted)
        report = compute_all(bn, spec, ComputeOptions(first=False))
    assert _plans(caplog) == [plan]
    assert len(calibrated) == calibrations
    assert all(kwargs["program"].outside is not None for kwargs in calibrated)
    assert report.expected_value == pytest.approx(
        compute_all(bn, spec).expected_value, abs=1e-15
    )


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


def test_per_query_closed_indices_read_the_moments_of_the_variable_indices(
    monkeypatch, caplog
):
    # The per-query plan queries each keep once: the closed index of {i}
    # reads the moment S_i came from, and that of E - {i} the one S^T_i
    # came from, so S_i and 1 - S^T_i are equal to them, not merely close.
    # A screened S^T_i is an exact zero taken without its moment.
    monkeypatch.setattr(bnsens.sobol, "SHARED_ELIMINATION_CELLS", 0)
    checked = 0
    for seed in range(40):
        bn, spec = random_instance(seed)
        evid = sorted(spec.evidential)
        if len(evid) < 2:
            continue
        singles = tuple((i,) for i in evid)
        rests = tuple(tuple(k for k in evid if k != i) for i in evid)
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="bnsens.sobol"):
            report = compute_all(bn, spec, ComputeOptions(closed=singles + rests))
        assert _plans(caplog) == ["per-query"]
        _, screened = separated_evidence(bn.dag(), spec.output, spec.evidential)
        n = len(evid)
        entries, ones, others = (
            report.indices[:n], report.indices[n: 2 * n], report.indices[2 * n:]
        )
        for entry, one, other in zip(entries, ones, others):
            assert one.variables == entry.variables and one.s == entry.s
            if entry.variables[0] not in screened:
                assert entry.st == 1.0 - other.s
                checked += 1
    assert checked >= 40


@pytest.mark.parametrize("plan", ["shared-elimination", "per-query"])
def test_closed_index_of_the_rest_of_a_screened_variable_is_exactly_one(
    monkeypatch, caplog, plan
):
    # When the rest of the evidence d-separates i from the output, f is
    # E[f | E - {i}]: the closed index of E - {i} reads the moment of E,
    # so it equals 1 - S^T_i = 1.0 exactly, not up to rounding.
    if plan == "per-query":
        monkeypatch.setattr(bnsens.sobol, "SHARED_ELIMINATION_CELLS", 0)
    checked = 0
    for seed in range(40):
        bn, spec = random_instance(seed)
        _, screened = separated_evidence(bn.dag(), spec.output, spec.evidential)
        if len(spec.evidential) < 2 or not screened:
            continue
        rests = tuple(tuple(sorted(spec.evidential - {i})) for i in sorted(screened))
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="bnsens.sobol"):
            report = compute_all(bn, spec, ComputeOptions(closed=rests))
        assert _plans(caplog) == [plan]
        n = len(spec.evidential)
        entries = [e for e in report.indices[:n] if e.variables[0] in screened]
        for entry, rest in zip(entries, report.indices[n:], strict=True):
            assert entry.st == 0.0
            assert rest.s == 1.0
            checked += 1
    assert checked == 37


@pytest.mark.parametrize("plan", ["shared-elimination", "per-query", "coupled"])
def test_one_evidential_variable_has_a_first_order_index_of_exactly_one(
    monkeypatch, caplog, plan
):
    # With E = {i}, S_i reads the moment that Var[f] was taken from. No
    # network with one evidential variable was found that costs fewer cells
    # coupled than building t, so the coupled case inflates the predicted
    # cells of t's ordering (`inflated_orders`); t is never built.
    bn, spec = driven_chain(4, 0)
    for i in sorted(spec.evidential):
        single = AnalysisSpec(spec.output, frozenset({i}), spec.value_map)
        with monkeypatch.context() as m:
            if plan != "shared-elimination":
                m.setattr(bnsens.sobol, "SHARED_ELIMINATION_CELLS", 0)
            if plan == "coupled":
                m.setattr(bnsens.network, "min_weight_order", inflated_orders(kept=True))
            caplog.clear()
            with caplog.at_level(logging.DEBUG, logger="bnsens.sobol"):
                (entry,) = compute_all(bn, single).indices
        assert _plans(caplog) == [plan]
        assert entry.s == 1.0


def _moment(t, j, keep):
    """E[E[f | keep]^2] by the per-query plan's program of `keep` and its
    execution, over the function network `t` and the evidence marginal `j`."""
    query = bnsens.sobol._plan(t.universe, [f.axes for f in t.factors], j, keep)
    divisor = bnsens.sobol._divisors([query], j, None)[0]
    return bnsens.sobol._second_moment(query, [f.values for f in t.factors], divisor)


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
            assert _moment(reduced, j, keep) == pytest.approx(
                _moment(t, j, keep), abs=1e-12
            )


def test_compute_all_never_squares_chance_variables(monkeypatch):
    # Ten 5-7-state roots under five interior nodes, some of them barren:
    # squaring every interior node along with the evidence makes buckets of
    # ~3e9 cells. In the second network every node is relevant, and summing
    # its root out with the chance nodes kept makes a bucket of 1.28e8.
    derive = bnsens.network._kernel  # once per bucket and per table, forward or backward
    summed = []  # the variables summed away by each call

    def capped(scopes, cards, axes):
        cells = math.prod(cards.values())
        assert cells <= 1e8, f"a bucket spans {cells:.3g} cells"
        summed.append(set(cards).difference(axes))
        return derive(scopes, cards, axes)

    monkeypatch.setattr(bnsens.network, "_kernel", capped)
    bn, spec = layered_network(4, 10, 5, (5, 7))
    for entry in compute_all(bn, spec).indices:
        assert -1e-12 <= entry.s <= entry.st + 1e-12
        assert entry.st <= 1.0 + 1e-12
    assert any(summed)  # the cap saw the elimination buckets, not only tables
    summed.clear()
    # R and F0-F2 are linked through the C's, so S_i <= S^T_i need not hold
    # here (F1, F2: S^T = 0 by d-separation, S > 0); only the range is checked.
    bn, spec = wide_chance_network(400)
    report = compute_all(bn, spec)
    assert len(report.indices) == len(spec.evidential)
    for entry in report.indices:
        for value in (entry.s, entry.st):
            assert -1e-12 <= value <= 1.0 + 1e-12
    assert any(summed)


def _gate_tree_root_evidence(leaves):
    # Every fourth basic event alone: independent roots.
    bn, spec, _ = gate_tree(leaves, 0)
    return bn, AnalysisSpec(spec.output, frozenset(range(0, leaves, 4)), spec.value_map)


def _refuse_queries(monkeypatch):
    def refuse(*args):
        raise AssertionError("a conditional-moment query ran")

    monkeypatch.setattr(bnsens.sobol, "_second_moment", refuse)


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
    variance = _moment(t, j, spec.evidential) - mean * mean
    assert report.variance == pytest.approx(variance, rel=1e-12)
    for entry in report.indices:
        (i,) = entry.variables
        rest = _moment(t, j, spec.evidential - {i})
        assert entry.st == pytest.approx(1.0 - (rest - mean * mean) / variance, abs=1e-12)


def test_coupled_plan_matches_brute_force_on_a_driven_chain(monkeypatch, caplog):
    # Ten roots drive a chain: building t would span 2478 cells, the
    # coupled calibration 1028, and the joint (3e6 cells) is still small
    # enough for the oracle. The table over the evidence and the output
    # (3072 cells) is small enough for the shared elimination, switched off.
    bn, spec = driven_chain(10, 3)
    with caplog.at_level(logging.DEBUG, logger="bnsens.sobol"), monkeypatch.context() as m:
        m.setattr(bnsens.sobol, "SHARED_ELIMINATION_CELLS", 0)
        _refuse_queries(m)
        report = compute_all(bn, spec)
    assert _plans(caplog) == ["coupled"]
    reference = brute_force_indices(bn, spec)
    assert report.variance == pytest.approx(reference.variance, rel=1e-12)
    for a, b in zip(report.indices, reference.indices):
        assert a.name == b.name
        assert a.s == pytest.approx(b.s, abs=1e-12)
        assert a.st == pytest.approx(b.st, abs=1e-12)


def test_coupled_totals_take_a_fixed_number_of_orderings(monkeypatch):
    # Gate trees of 64 and 128 leaves have 16 and 32 evidential roots. The
    # two orderings are of the probability network for P(O), whose forward
    # pass also gives E[f] as the sum of P(O) g, and of the coupled network
    # (costed from scopes, then run by its calibration); t's least cells
    # exceed the coupled cells, so t is not ordered, and the root evidence's
    # marginal is its own factors.
    counts = []
    for leaves in (64, 128):
        bn, spec = _gate_tree_root_evidence(leaves)
        with monkeypatch.context() as m:
            _refuse_queries(m)
            calls, report = _count_orderings(
                m, lambda: compute_all(bn, spec, ComputeOptions(first=False))
            )
        assert sum(e.st > 0.0 for e in report.indices) >= 8
        counts.append(calls)
    assert counts == [2, 2]


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


@pytest.mark.xfail(
    raises=DegenerateOutputError,
    strict=True,
    reason="P(top) is 3.4e-43 and Var[f] 3.3e-76, below the 1e-24 share of "
    "Var[g(O)], although Var[f] is exact",
)
def test_rare_gate_tree_with_root_evidence_matches_the_reference():
    # gate_tree(32, 0) with every fourth basic event as evidence: eight
    # independent roots, checked against the per-gate recursion over the
    # 2^8 evidence cells.
    bn, spec = _gate_tree_root_evidence(32)
    mean, variance, indices = gate_tree_reference(bn, spec)
    report = compute_all(bn, spec)
    assert report.expected_value == pytest.approx(mean, rel=1e-9)
    assert report.variance == pytest.approx(variance, rel=1e-9)
    assert [e.variables for e in report.indices] == [(k,) for k in sorted(indices)]
    for entry in report.indices:
        s, st = indices[entry.variables[0]]
        assert entry.s == pytest.approx(s, abs=1e-9)
        assert entry.st == pytest.approx(st, abs=1e-9)


@pytest.mark.parametrize("leaves, seed", [(4, 0), (4, 1), (4, 2), (4, 3), (8, 0)])
def test_exact_gate_tree_reference_equals_the_exact_enumeration(leaves, seed):
    # Every second basic event as evidence. Both references take each CPT
    # float exactly, so they agree as Fractions, not merely closely.
    bn, spec, _ = gate_tree(leaves, seed)
    spec = AnalysisSpec(spec.output, frozenset(range(0, leaves, 2)), spec.value_map)
    assert exact_gate_tree_indices(bn, spec) == exact_indices(bn, spec)


@pytest.mark.parametrize(
    "leaves, seed, variance_error, index_error",
    [(16, 1, 3e-8, 1e-14), (32, 0, 7e-16, 5e-16), (32, 4, 4e-4, 4e-10)],
)
def test_engine_digits_on_rare_gate_trees(monkeypatch, leaves, seed, variance_error, index_error):
    # Every fourth basic event as evidence. Measured against the exact
    # reference: Var[f] is off by 2.0e-8, 4.4e-16 and 2.6e-4 relative, and
    # the indices by at most 6.2e-15, 2.8e-16 and 2.2e-10. An index is a
    # share of Var[f], so its error is pinned as a share of Var[f] (its
    # absolute error): an index far below the rounding has no digits at
    # all (gate_tree(32, 0)'s S^T of 2.1e-23 reads 2.2e-16).
    # Var[f] / Var[g(O)] of both 32-leaf trees is below
    # DEGENERATE_VARIANCE_TOL, so they raise a false DegenerateOutputError
    # (gate_tree(32, 0) is the strict xfail above); with the floor at 0 the
    # engine returns the Var[f] it computed.
    monkeypatch.setattr(bnsens.sobol, "DEGENERATE_VARIANCE_TOL", 0.0)
    bn, spec, _ = gate_tree(leaves, seed)
    spec = AnalysisSpec(spec.output, frozenset(range(0, leaves, 4)), spec.value_map)
    _, variance, indices = exact_gate_tree_indices(bn, spec)
    report = compute_all(bn, spec)
    assert abs(Fraction(report.variance) - variance) <= variance_error * variance
    assert sorted(indices) == [e.variables[0] for e in report.indices]
    for entry in report.indices:
        for value, exact in zip((entry.s, entry.st), indices[entry.variables[0]]):
            assert abs(Fraction(value) - exact) <= index_error


def test_bucket_beyond_einsum_operand_cap_matches_stepwise(monkeypatch, caplog):
    # An evidential root C with an output child and 64 evidential leaves:
    # min-weight eliminates each leaf first, leaving C's bucket 66 factors,
    # more operands than one np.einsum call accepts (63; 31 on numpy 1.x).
    # Total indices are left out: S^T of C keeps all 64 leaves, 2^64 cells.
    # The table over the 65 evidential variables and the output has 2^66
    # cells, a count that wraps to 0 in int64: the analysis must stay
    # per-query.
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
    with caplog.at_level(logging.DEBUG, logger="bnsens.sobol"):
        fused = compute_all(bn, spec, first_only)
    assert _plans(caplog) == ["per-query"]
    assert f"table over the evidence and the output {2**66} cells" in caplog.text

    # Each kernel a fresh network derives keeps its cells and subscripts,
    # which the backward pass reads, then its scopes and axes, and
    # contracting it multiplies its factors one by one.
    def symbolic(scopes, subscripts, cards, axes, cells):
        return cells, subscripts, list(scopes), tuple(axes)

    def stepwise(kernel, arrays):
        _, _, scopes, axes = kernel
        factors = [Factor(scope, a) for scope, a in zip(scopes, arrays)]
        product = reduce(factor_product, factors, Factor((), 1.0))
        return factor_sum_out(product, set(product.axes) - set(axes)).values

    monkeypatch.setattr(bnsens.network, "_routed", symbolic)
    monkeypatch.setattr(bnsens.network, "_contract", stepwise)
    reference = compute_all(DiscreteBayesNet(variables, cpts), spec, first_only)
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


def _dense_card():
    """The network and evidence of the benchmark's dense-card workload
    (bench/workloads.py), with output label k scoring k: its per-query
    plan's `t` has 107,520 cells in its largest factor per variable."""
    return layered_network(1, 8, 5, (5, 8))


def _dependent_dense_card():
    """dense-card's network with interior node 9 as evidence instead of
    root 7: dependent evidence, and 80,640 cells per variable of `t`."""
    bn, spec = _dense_card()
    return bn, AnalysisSpec(spec.output, frozenset({0, 1, 2, 3, 4, 5, 6, 9}), spec.value_map)


def _gate_evidence_tree():
    return gate_tree(64, 0)[:2]


def _results(report) -> str:
    """E[f], Var[f] and every index of a report, without its times."""
    return repr((report.expected_value, report.variance,
                 [(e.variables, e.name, e.s, e.st) for e in report.indices]))


def _count_threads(monkeypatch) -> list[threading.Thread]:
    """The threads that `bnsens.sobol` starts from now on."""
    started = []

    class Counted(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(
        bnsens.sobol,
        "threading",
        types.SimpleNamespace(Thread=Counted, Lock=threading.Lock),
    )
    return started


@pytest.mark.parametrize(
    "network, options, force",
    [
        (_dense_card, ComputeOptions(), False),
        (_dense_card, ComputeOptions(closed=((0, 1), (2, 3, 5), (4,), (0, 1, 2, 3, 5, 6, 7))),
         False),
        (_dense_card, ComputeOptions(first=False), False),
        (lambda: layered_network(4, 10, 5, (5, 7)), ComputeOptions(), False),
        (lambda: layered_network(1, 8, 5, (4, 7)), ComputeOptions(closed=((0, 2),)), False),
        (_dependent_dense_card, ComputeOptions(), False),
        (_dependent_dense_card, ComputeOptions(first=False, closed=((0, 9),)), False),
        (_gate_evidence_tree, ComputeOptions(), True),
    ],
    ids=["dense-card", "dense-card-closed", "dense-card-totals", "layered-4",
         "layered-1-closed", "dependent", "dependent-totals-closed", "gate-tree-64-forced"],
)
def test_threads_leave_every_result_unchanged(monkeypatch, network, options, force):
    # One CPU runs the queries one after another, two run them on the
    # calling thread and one helper; each query does the same arithmetic
    # either way. The gate tree is below the threads' limit, lifted here.
    if force:
        monkeypatch.setattr(bnsens.sobol, "THREAD_CELLS_PER_VARIABLE", 0)
    bn, spec = network()
    results = []
    for cpus in (1, 2):
        monkeypatch.setattr(bnsens.sobol, "_cpus", lambda cpus=cpus: cpus)
        started = _count_threads(monkeypatch)
        results.append(_results(compute_all(bn, spec, options)))
        assert len(started) == cpus - 1
    assert results[0] == results[1]


def test_queries_take_at_most_one_thread_each_and_leave_none(monkeypatch):
    # 64 CPUs and dense-card's 8 queries: the calling thread and 7 helpers,
    # all joined by the time compute_all returns or raises.
    monkeypatch.setattr(bnsens.sobol, "_cpus", lambda: 64)
    bn, spec = _dense_card()
    query = bnsens.sobol._second_moment
    calls = []

    def counted(*args):
        calls.append(args[0].keep)
        return query(*args)

    monkeypatch.setattr(bnsens.sobol, "_second_moment", counted)
    before = threading.active_count()
    started = _count_threads(monkeypatch)
    compute_all(bn, spec)
    assert len(calls) == 8 and len(started) == len(calls) - 1
    assert threading.active_count() == before

    def failing(*args):
        raise MemoryError("cannot allocate the bucket")

    monkeypatch.setattr(bnsens.sobol, "_second_moment", failing)
    started.clear()
    with pytest.raises(MemoryError):
        compute_all(bn, spec)
    assert len(started) == 7 and not any(t.is_alive() for t in started)
    assert threading.active_count() == before


def test_each_query_runs_once_on_many_threads(monkeypatch):
    # 20 queries on 20 threads, more than there are cores, switching as
    # often as the interpreter allows: a query taken twice or skipped would
    # show in the calls or in the results.
    monkeypatch.setattr(bnsens.sobol, "THREAD_CELLS_PER_VARIABLE", 0)
    bn, spec = _gate_evidence_tree()
    monkeypatch.setattr(bnsens.sobol, "_cpus", lambda: 1)
    expected = _results(compute_all(bn, spec))
    query = bnsens.sobol._second_moment
    calls = []

    def counted(*args):
        calls.append(args[0].keep)
        return query(*args)

    monkeypatch.setattr(bnsens.sobol, "_second_moment", counted)
    monkeypatch.setattr(bnsens.sobol, "_cpus", lambda: 64)
    started = _count_threads(monkeypatch)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            calls.clear()
            assert _results(compute_all(bn, spec)) == expected
            assert len(calls) == len(set(calls)) == 20
    finally:
        sys.setswitchinterval(interval)
    assert len(started) == 3 * 19 and not any(t.is_alive() for t in started)


def _failing_on_a_helper(monkeypatch):
    """With 2 CPUs, make the helper thread's third query raise MemoryError:
    the calling thread holds its first query until then, so the helper runs
    the rest. Returns the ids of the threads that raised."""
    monkeypatch.setattr(bnsens.sobol, "_cpus", lambda: 2)
    query = bnsens.sobol._second_moment
    caller = threading.get_ident()
    raised, helper_calls = [], []
    done = threading.Event()

    def failing(*args):
        if threading.get_ident() == caller:
            done.wait(timeout=10)
            return query(*args)
        helper_calls.append(args[0].keep)
        if len(helper_calls) == 3:
            raised.append(threading.get_ident())
            done.set()
            raise MemoryError("cannot allocate the bucket")
        return query(*args)

    monkeypatch.setattr(bnsens.sobol, "_second_moment", failing)
    return raised


def test_memory_error_on_a_helper_thread_reaches_the_caller(monkeypatch, tmp_path, capsys):
    bn, spec = _dense_card()
    raised = _failing_on_a_helper(monkeypatch)
    with pytest.raises(MemoryError, match="cannot allocate the bucket"):
        compute_all(bn, spec)
    assert len(raised) == 1 and raised[0] != threading.get_ident()

    path = tmp_path / "dense-card.native"
    path.write_text(save_native(NativeDocument(bn, spec, name="dense-card")))
    raised = _failing_on_a_helper(monkeypatch)
    assert main(["compute", "--network", str(path)]) == 4
    assert "error: MemoryError: cannot allocate" in capsys.readouterr().err
    assert len(raised) == 1 and raised[0] != threading.get_ident()


def test_failed_queries_raise_in_list_order_after_the_variance_check(monkeypatch):
    # The queries are Var[f]'s, then each total's in variable order. Var[f]
    # of 0 is degenerate whatever the later queries raise; otherwise the
    # first failing query in that order raises, however they ran.
    monkeypatch.setattr(bnsens.sobol, "_cpus", lambda: 2)
    bn, spec = _dense_card()
    query = bnsens.sobol._second_moment

    def degenerate(query, t, divisor, held):
        if query.keep == spec.evidential:
            return 0.0
        raise MemoryError("cannot allocate the bucket")

    monkeypatch.setattr(bnsens.sobol, "_second_moment", degenerate)
    with pytest.raises(DegenerateOutputError):
        compute_all(bn, spec)

    def failing(q, t, divisor, held):
        if q.keep == spec.evidential:
            return query(q, t, divisor, held)
        time.sleep(0.01 * (8 - min(spec.evidential - q.keep)))  # later ones fail first
        raise ValueError(sorted(spec.evidential - q.keep))

    monkeypatch.setattr(bnsens.sobol, "_second_moment", failing)
    with pytest.raises(ValueError) as first:
        compute_all(bn, spec)
    assert first.value.args == ([0],)

    def var_fails(query, t, divisor, held):
        raise ValueError(len(query.keep))

    monkeypatch.setattr(bnsens.sobol, "_second_moment", var_fails)
    with pytest.raises(ValueError) as first:
        compute_all(bn, spec)
    assert first.value.args == (len(spec.evidential),)


def test_python_bound_queries_start_no_thread(monkeypatch):
    # Below THREAD_CELLS_PER_VARIABLE cells of `t` per variable the queries
    # run one after another however many CPUs there are; dense-card's run
    # on two threads.
    monkeypatch.setattr(bnsens.sobol, "_cpus", lambda: 2)
    for network, threads in [
        (_gate_evidence_tree, 0),
        (lambda: layered_network(3, 8, 5, (4, 7)), 0),
        (lambda: layered_network(1, 6, 4, (5, 8)), 0),
        (_dense_card, 1),
    ]:
        started = _count_threads(monkeypatch)
        compute_all(*network())
        assert len(started) == threads


@pytest.mark.parametrize("network", [_dense_card, _dependent_dense_card],
                         ids=["dense-card", "dependent"])
def test_per_query_programs_predict_the_cells_they_contract(monkeypatch, network):
    # Each bucket that the per-query plan programs, in t's build and in every
    # query, carries the cells a cap can check before any array exists: the
    # `_contract` that runs its kernel spans exactly those cells, and t's build
    # spans the cells of the order that costed it.
    bn, spec = network()
    program, contract = bnsens.network._program, bnsens.network._contract
    programs, spans = [], {}

    def recording_program(universe, scopes, order):
        records, kept = program(universe, scopes, order)
        programs.append((universe, order, records))
        return records, kept

    def recording_contract(kernel, arrays):
        spans[id(kernel)] = [a.shape for a in arrays]
        return contract(kernel, arrays)

    monkeypatch.setattr(bnsens.network, "_program", recording_program)
    monkeypatch.setattr(bnsens.network, "_contract", recording_contract)
    compute_all(bn, spec)
    ((order, build),) = [(o, records) for u, o, records in programs if spec.output in u]
    assert [record[5][0] for record in build] == list(order.cells)
    buckets = [record for _, _, records in programs for record in records if record[1]]
    assert len(programs) > 8 and len(buckets) > len(programs)
    for v, positions, axes, kept, message, kernel in buckets:
        shape = {ax: n for scope, s in zip(axes, spans[id(kernel)]) for ax, n in zip(scope, s)}
        assert math.prod(shape.values()) == kernel[0]


def _hook_t_build(monkeypatch, action):
    """Call `action()` on the thread that builds t, before it does, in each
    analysis from now on: t's build is the `network._executed` of the
    `build` records of the plan that `_run` runs, derived or kept."""
    run, executed, builds = bnsens.sobol._run, bnsens.network._executed, []

    def running(plan, *args):
        builds.append(plan.build)
        return run(plan, *args)

    def hooked(records, *args):
        if any(records is build for build in builds):
            action()
        return executed(records, *args)

    monkeypatch.setattr(bnsens.sobol, "_run", running)
    monkeypatch.setattr(bnsens.network, "_executed", hooked)


def test_threaded_queries_are_all_planned_before_one_contracts(monkeypatch):
    # On two CPUs the caller calibrates, builds t and then shares the
    # queries with one helper: every query's ordering comes before t's
    # build, and t's build before any query runs.
    monkeypatch.setattr(bnsens.sobol, "_cpus", lambda: 2)
    bn, spec = _dense_card()
    order, query = bnsens.network.min_weight_order, bnsens.sobol._second_moment
    events, builders = [], []

    def ordered(*args, **kwargs):
        events.append("order")
        return order(*args, **kwargs)

    def queried(*args):
        events.append("query")
        return query(*args)

    def building():
        events.append("build")
        builders.append(threading.get_ident())

    monkeypatch.setattr(bnsens.network, "min_weight_order", ordered)
    monkeypatch.setattr(bnsens.sobol, "_second_moment", queried)
    _hook_t_build(monkeypatch, building)
    started = _count_threads(monkeypatch)
    compute_all(bn, spec)
    assert events == ["order"] * 11 + ["build"] + ["query"] * 8
    assert len(started) == 1 and builders == [threading.get_ident()]


def test_memory_error_building_t_exits_4(monkeypatch, tmp_path, capsys):
    # t is built on the calling thread before any helper starts.
    monkeypatch.setattr(bnsens.sobol, "_cpus", lambda: 2)
    bn, spec = _dense_card()
    path = tmp_path / "dense-card.native"
    path.write_text(save_native(NativeDocument(bn, spec, name="dense-card")))
    raised = []

    def failing():
        raised.append(threading.get_ident())
        raise MemoryError("cannot allocate t")

    _hook_t_build(monkeypatch, failing)
    before = threading.active_count()
    started = _count_threads(monkeypatch)
    assert main(["compute", "--network", str(path)]) == 4
    assert "error: MemoryError: cannot allocate t" in capsys.readouterr().err
    assert raised == [threading.get_ident()] and started == []
    assert threading.active_count() == before


def _recorded_intervals(monkeypatch) -> list[float]:
    """Every switch interval set from now on."""
    setswitchinterval, intervals = sys.setswitchinterval, []

    def recording(interval):
        intervals.append(interval)
        setswitchinterval(interval)

    monkeypatch.setattr(sys, "setswitchinterval", recording)
    return intervals


@pytest.mark.parametrize("cpus", [2, 8])
@pytest.mark.parametrize("failure", [None, "query", "build", "calibration", "interrupt"])
def test_every_way_out_of_the_threaded_queries_joins_the_helpers(monkeypatch, cpus, failure):
    # A failed query, an error building t, one in the calibration or an
    # interrupt in the caller's query: each reaches the caller after the
    # helpers that started are joined, and none sets the switch interval.
    # An error before the queries starts no helper.
    monkeypatch.setattr(bnsens.sobol, "_cpus", lambda: cpus)
    bn, spec = _dense_card()
    query, caller, reached = bnsens.sobol._second_moment, threading.get_ident(), threading.Event()

    def failing_total(q, *args):
        if q.keep != spec.evidential:
            raise ValueError("query failed")
        return query(q, *args)

    def interrupted(*args):  # the helpers wait until the caller has taken a query
        if threading.get_ident() == caller:
            reached.set()
            raise KeyboardInterrupt
        reached.wait(timeout=10)
        return query(*args)

    def failing(error):
        def fail(*args, **kwargs):
            raise error

        return fail

    if failure == "query":
        monkeypatch.setattr(bnsens.sobol, "_second_moment", failing_total)
    if failure == "interrupt":
        monkeypatch.setattr(bnsens.sobol, "_second_moment", interrupted)
    if failure == "calibration":
        monkeypatch.setattr(bnsens.sobol, "marginals", failing(RuntimeError("calibration failed")))
    if failure == "build":
        _hook_t_build(monkeypatch, failing(MemoryError("cannot allocate t")))
    before = sys.getswitchinterval()
    started = _count_threads(monkeypatch)
    intervals = _recorded_intervals(monkeypatch)
    if failure is None:
        compute_all(bn, spec)
    else:
        errors = {"query": ValueError, "build": MemoryError, "calibration": RuntimeError}
        with pytest.raises(errors.get(failure, KeyboardInterrupt)):
            compute_all(bn, spec)
    assert sys.getswitchinterval() == before and intervals == []
    helpers = 0 if failure in ("build", "calibration") else min(cpus, 8) - 1
    assert len(started) == helpers and not any(t.is_alive() for t in started)


@pytest.mark.parametrize("host", [1e-5, 2e-3])
def test_a_switch_interval_set_during_an_analysis_is_kept(monkeypatch, host):
    # Another thread of the host sets its own interval while a threaded
    # analysis builds t: the analysis sets none, so the host's is kept.
    monkeypatch.setattr(bnsens.sobol, "_cpus", lambda: 2)
    bn, spec = _dense_card()
    expected = _results(compute_all(bn, spec))
    asked, done = threading.Event(), threading.Event()

    def host_thread():
        if asked.wait(timeout=10):
            sys.setswitchinterval(host)
        done.set()

    def building():
        asked.set()
        done.wait(timeout=10)

    _hook_t_build(monkeypatch, building)
    started = _count_threads(monkeypatch)
    interval = sys.getswitchinterval()
    setter = threading.Thread(target=host_thread)
    setter.start()
    try:
        report = compute_all(bn, spec)
        after = sys.getswitchinterval()
    finally:
        asked.set()
        setter.join(timeout=10)
        sys.setswitchinterval(interval)
    assert after == pytest.approx(host, abs=1e-6) and _results(report) == expected
    assert len(started) == 1 and not setter.is_alive()


def test_analyses_on_two_threads_at_once_leave_the_switch_interval(monkeypatch):
    # Both builds of t wait for each other, so both analyses run at once,
    # each with its helper: neither sets the interval, and both give the
    # results of one analysis alone.
    monkeypatch.setattr(bnsens.sobol, "_cpus", lambda: 2)
    bn, spec = _dense_card()
    expected = _results(compute_all(bn, spec))
    both, reports = threading.Barrier(2, timeout=10), []
    _hook_t_build(monkeypatch, both.wait)
    before = sys.getswitchinterval()
    intervals = _recorded_intervals(monkeypatch)
    analyses = [threading.Thread(target=lambda: reports.append(compute_all(bn, spec)))
                for _ in range(2)]
    for analysis in analyses:
        analysis.start()
    for analysis in analyses:
        analysis.join(timeout=30)
    assert not any(analysis.is_alive() for analysis in analyses)
    assert sys.getswitchinterval() == before and intervals == []
    assert [_results(report) for report in reports] == [expected, expected]


@pytest.mark.parametrize("refused", [0, 1], ids=["first-helper", "second-helper"])
def test_a_helper_the_os_refuses_leaves_the_results_unchanged(monkeypatch, refused):
    # Three CPUs ask for two query helpers. When the OS refuses one, as
    # under a limit on threads, no further one is tried and the queries run
    # on the threads that started; t is built on the caller either way.
    bn, spec = _dense_card()
    monkeypatch.setattr(bnsens.sobol, "_cpus", lambda: 1)
    expected = _results(compute_all(bn, spec))
    monkeypatch.setattr(bnsens.sobol, "_cpus", lambda: 3)
    query, tried, started, queriers = bnsens.sobol._second_moment, [], [], set()

    class Refused(threading.Thread):
        def start(self):
            tried.append(self)
            if len(tried) == refused + 1:
                raise RuntimeError("can't start new thread")
            started.append(self)
            super().start()

    def queried(*args):
        queriers.add(threading.get_ident())
        return query(*args)

    monkeypatch.setattr(
        bnsens.sobol, "threading", types.SimpleNamespace(Thread=Refused, Lock=threading.Lock)
    )
    monkeypatch.setattr(bnsens.sobol, "_second_moment", queried)
    before = threading.active_count()
    assert _results(compute_all(bn, spec)) == expected
    assert len(tried) == refused + 1 and len(started) == refused
    assert queriers <= {threading.get_ident(), *(t.ident for t in started)}
    assert not any(t.is_alive() for t in started)
    assert threading.active_count() == before


def test_a_subnormal_query_from_normal_inputs_warns():
    # E[E[f | 0]^2] = (1e-160)^2 is subnormal, and no input entry is.
    query = bnsens.sobol._plan({0: 2}, [(0,)], None, frozenset({0}))
    t, divisor = [np.array([1e-160, 0.0])], [np.array([1.0, 0.0])]
    with pytest.warns(ContractionUnderflowWarning):
        assert bnsens.sobol._second_moment(query, t, divisor) == 1e-320


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
