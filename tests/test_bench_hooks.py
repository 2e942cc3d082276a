"""The benchmark's tracer (bench/spans.py) replaces engine functions by
name; every name it hooks must still exist, or `--trace 1` breaks. Each
benchmark workload (bench/workloads.py) must take the plan its timings
stand for."""

import importlib.util
import logging
import sys
from pathlib import Path

import pytest

import bnsens.network
from bnsens import AnalysisSpec, compute_all

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(monkeypatch, name):
    """bench/<name>.py as a module, read-only."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclass looks it up
    spec.loader.exec_module(module)
    return module


def test_every_bench_hook_resolves(monkeypatch):
    spans = _load(monkeypatch, "spans")
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
    # enough to sum its chance variables out once for P(O) and t. The
    # orderings per analysis are the `graph.order_calls` of `--trace 1`,
    # which hooks the same name.
    workloads = _load(monkeypatch, "workloads")
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
    assert len(calls) == {"grid3e16": 5, "sparse200": 4, "dense-card": 21}[name]
