"""The benchmark's tracer (bench/spans.py) replaces engine functions by
name; every name it hooks must still exist, or `--trace 1` breaks."""

import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_every_bench_hook_resolves(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)  # dataclass looks it up
    spec.loader.exec_module(spans)
    assert spans.HOOKS
    for module, attr, _, _ in spans.HOOKS:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"
