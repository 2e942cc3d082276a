"""Per-layer spans for one `compute_all` call, recorded from outside.

Each hooked public function is replaced, for the duration of `installed()`,
in the module whose code calls it: `bnsens.network` looks up the ordering
and the factor algebra, `bnsens.sobol` the network queries and the
per-index functions. A span holds its name, start, end, the index of its
parent span and the cell counts of a tensor operation; spans stay in memory
and self time is derived from the parent links.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

import bnsens.network
import bnsens.sobol


def _product_cells(args, out):
    return args[0].values.size + args[1].values.size, out.values.size


def _sum_out_cells(args, out):
    return args[0].values.size, out.values.size


def _order_vertices(args, out):
    return 0, len(out)


# (module, attribute, span name, size function)
HOOKS = (
    (bnsens.network, "min_weight_order", "graph.order", _order_vertices),
    (bnsens.network, "factor_product", "tensor.product", _product_cells),
    (bnsens.network, "factor_div", "tensor.div", _product_cells),
    (bnsens.network, "factor_sum_out", "tensor.sum_out", _sum_out_cells),
    (bnsens.network, "marginalize", "network.marginalize", None),
    (bnsens.sobol, "marginalize", "network.marginalize", None),
    (bnsens.sobol, "contract_all", "network.contract", None),
    (bnsens.sobol, "collapse", "network.collapse", None),
    (bnsens.sobol, "variance_component", "sobol.first", None),
    (bnsens.sobol, "total_index", "sobol.total", None),
)
TENSOR_SPANS = ("tensor.product", "tensor.div", "tensor.sum_out")


@dataclass(slots=True)
class Span:
    name: str
    parent: int
    start: float
    end: float = 0.0
    cells_in: int = 0
    cells_out: int = 0

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans of the calls made while `installed()` is active."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    def _begin(self, name: str) -> int:
        self.spans.append(Span(name, self._open[-1] if self._open else -1, perf_counter()))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def _end(self, index: int) -> None:
        self.spans[index].end = perf_counter()
        self._open.pop()

    @contextmanager
    def span(self, name: str):
        index = self._begin(name)
        try:
            yield
        finally:
            self._end(index)

    def _wrap(self, name, fn, sizes):
        def traced(*args, **kwargs):
            index = self._begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._end(index)
            if sizes is not None:
                span = self.spans[index]
                span.cells_in, span.cells_out = sizes(args, out)
            return out

        return traced

    @contextmanager
    def installed(self):
        originals = [(module, attr, getattr(module, attr)) for module, attr, _, _ in HOOKS]
        try:
            for (module, attr, name, sizes), (_, _, fn) in zip(HOOKS, originals):
                setattr(module, attr, self._wrap(name, fn, sizes))
            yield self
        finally:
            for module, attr, fn in originals:
                setattr(module, attr, fn)

    def layer_metrics(self, root: str) -> dict[str, float]:
        """Per-layer totals of the spans under the (single) span named `root`."""
        child_seconds = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child_seconds[span.parent] += span.seconds
        calls: dict[str, int] = {}
        seconds: dict[str, float] = {}
        self_seconds: dict[str, float] = {}
        cells_in: dict[str, int] = {}
        cells_out: dict[str, int] = {}
        peak = bytes_ = 0
        for index, span in enumerate(self.spans):
            n = span.name
            calls[n] = calls.get(n, 0) + 1
            seconds[n] = seconds.get(n, 0.0) + span.seconds
            self_seconds[n] = self_seconds.get(n, 0.0) + span.seconds - child_seconds[index]
            cells_in[n] = cells_in.get(n, 0) + span.cells_in
            cells_out[n] = cells_out.get(n, 0) + span.cells_out
            if n in TENSOR_SPANS:
                peak = max(peak, span.cells_out)
                bytes_ += 8 * (span.cells_in + span.cells_out)
        if calls.get(root) != 1:
            raise ValueError(f"expected one {root!r} span, found {calls.get(root, 0)}")
        return {
            "graph.order_s": seconds.get("graph.order", 0.0),
            "graph.order_calls": calls.get("graph.order", 0),
            "graph.order_vertices": cells_out.get("graph.order", 0),
            "tensor.product_s": seconds.get("tensor.product", 0.0),
            "tensor.product_calls": calls.get("tensor.product", 0),
            "tensor.product_cells": cells_out.get("tensor.product", 0),
            "tensor.div_s": seconds.get("tensor.div", 0.0),
            "tensor.div_calls": calls.get("tensor.div", 0),
            "tensor.div_cells": cells_out.get("tensor.div", 0),
            "tensor.sum_out_s": seconds.get("tensor.sum_out", 0.0),
            "tensor.sum_out_calls": calls.get("tensor.sum_out", 0),
            "tensor.sum_out_cells": cells_in.get("tensor.sum_out", 0),
            "tensor.peak_cells": peak,
            "tensor.bytes_computed": bytes_,
            "network.marginalize_calls": calls.get("network.marginalize", 0),
            "network.marginalize_self_s": self_seconds.get("network.marginalize", 0.0),
            "network.contract_calls": calls.get("network.contract", 0),
            "network.collapse_calls": calls.get("network.collapse", 0),
            "sobol.prepare_s": seconds[root] - seconds.get("sobol.first", 0.0)
            - seconds.get("sobol.total", 0.0),
            "sobol.first_s": seconds.get("sobol.first", 0.0),
            "sobol.first_calls": calls.get("sobol.first", 0),
            "sobol.total_s": seconds.get("sobol.total", 0.0),
            "sobol.total_calls": calls.get("sobol.total", 0),
        }

    def to_json(self) -> list[dict]:
        return [
            {"name": s.name, "parent": s.parent, "start": s.start, "end": s.end,
             "cells_in": s.cells_in, "cells_out": s.cells_out}
            for s in self.spans
        ]
