"""Every plan of `compute_all` against the exact reference.

Each case is a `random_instance` or `random_roots_instance` seed whose joint
has at most 1e4 cells, so that `exact_indices` enumerates it in `Fraction`s.
Each plan that applies is forced by patching module constants (and, for the
coupled and per-query plans, the predicted cells of the orderings), named by
its DEBUG line, and run on a fresh network under three value maps in turn:
the case's own, shifted by +1e6 and scaled by 1e-5, so that the second and
third analyses run the plan the first one kept. E[f], Var[f] and every S and
S^T are compared with the exact values of the case's own map, moved by the
same affine map; the shifted map's labels are rounded to the float grid at
1e6 (spacing 1.2e-10), which bounds its error, not the engine's.
"""

import logging
import math
import warnings
from fractions import Fraction
from functools import cache

import pytest

import bnsens.network
import bnsens.sobol
from bnsens import AnalysisSpec, DiscreteBayesNet, compute_all
from helpers import exact_indices, inflated_orders, random_instance, random_roots_instance

# The seeds of range(40) whose joint has at most 1e4 cells.
RANDOM_SEEDS = (0, 1, 3, 4, 5, 6, 9, 10, 11, 12, 14, 16, 17, 19, 21, 22, 23, 24, 25, 27, 28,
                30, 31, 34, 35, 36, 37, 38)
ROOTS_SEEDS = (2, 3, 4, 5, 6, 7, 8, *range(10, 26), *range(27, 40))
CASES = [*((random_instance, s) for s in RANDOM_SEEDS),
         *((random_roots_instance, s) for s in ROOTS_SEEDS)]

# (name, shift, scale, and the bounds on the relative errors of E[f] and
# Var[f] and on the absolute error of each index). The worst errors over
# every plan, in random_instance / random_roots_instance cases: E[f] 2.2e-16
# under every map; Var[f] 1.3e-15 / 1.1e-15, 7.8e-10 / 5.0e-10 and
# 1.8e-15 / 2.9e-15; the indices 6.1e-16 / 1.0e-15, 7.1e-11 / 5.3e-11 and
# 6.1e-16 / 1.0e-15.
MAPS = (
    ("own", 0.0, 1.0, (1e-15, 1e-14, 4e-15)),
    ("+1e6", 1e6, 1.0, (1e-15, 4e-9, 4e-10)),
    ("x1e-5", 0.0, 1e-5, (1e-15, 1e-14, 4e-15)),
)


# (id, plan, the patches that force it); the coupled plan needs independent
# evidence, and is forced on `random_roots_instance` alone
PLANS = (
    ("shared", "shared-elimination", {"SHARED_ELIMINATION_CELLS": 10**9}),
    ("per-query-1cpu", "per-query", {"SHARED_ELIMINATION_CELLS": 0, "_cpus": lambda: 1,
                                     "min_weight_order": inflated_orders(kept=False)}),
    ("per-query-2cpu", "per-query", {"SHARED_ELIMINATION_CELLS": 0, "_cpus": lambda: 2,
                                     "THREAD_CELLS_PER_VARIABLE": 0,
                                     "min_weight_order": inflated_orders(kept=False)}),
    ("coupled", "coupled", {"SHARED_ELIMINATION_CELLS": 0,
                            "min_weight_order": inflated_orders(kept=True)}),
)


@cache
def _exact(make, seed):
    bn, spec = make(seed)
    assert math.prod(v.cardinality for v in bn.variables) <= 10**4
    return bn, spec, exact_indices(bn, spec)


PARAMS = [pytest.param(make, seed, plan, patches, id=f"{make.__name__}-{seed}-{name}")
          for make, seed in CASES for name, plan, patches in PLANS
          if make is random_roots_instance or plan != "coupled"]


@pytest.mark.parametrize("make, seed, plan, patches", PARAMS)
def test_every_plan_gives_the_exact_indices(monkeypatch, caplog, make, seed, plan, patches):
    bn, spec, (mean, variance, indices) = _exact(make, seed)
    for name, value in patches.items():
        module = bnsens.network if name == "min_weight_order" else bnsens.sobol
        monkeypatch.setattr(module, name, value)
    bn = DiscreteBayesNet(bn.variables, bn.cpts)  # no plan kept
    for label, shift, scale, (e_bound, v_bound, bound) in MAPS:
        mapped = AnalysisSpec(spec.output, spec.evidential,
                              {k: v * scale + shift for k, v in spec.value_map.items()})
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="bnsens.sobol"), warnings.catch_warnings():
            warnings.simplefilter("error")
            report = compute_all(bn, mapped)
        lines = [r.getMessage() for r in caplog.records if " plan:" in r.getMessage()]
        assert [line.split(" plan:")[0] for line in lines] == [plan], lines
        expected = float(mean * Fraction(scale) + Fraction(shift))
        assert report.expected_value == pytest.approx(expected, rel=e_bound, abs=0), label
        expected = float(variance * Fraction(scale) ** 2)
        assert report.variance == pytest.approx(expected, rel=v_bound, abs=0), label
        assert len(report.indices) == len(indices)
        for entry in report.indices:
            s, st = indices[entry.variables[0]]
            assert abs(entry.s - s) <= bound and abs(entry.st - st) <= bound, (label, entry)
