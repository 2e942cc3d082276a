"""Indices for a function of interest with 43 million grid points.

A 24-node ternary network with 16 evidential roots: the function of
interest lives on a 3^16 grid (about 4.3e7 points), far past what the
brute-force oracle will enumerate, yet all 16 index pairs come out of
the factored pipeline in about a hundredth of a second (0.008-0.011 s
for the same network in the grid3e16 benchmark, two shared cores). This
is the point of the method: marginalization queries replace enumeration
or sampling of f, one calibration gives all 16 first-order indices at
once, and the roots are independent, so one calibration of a coupled
squared network gives all 16 total indices. Three interior nodes are
barren and never become factors, and roots N1, N4, N5 and N6 have no
path to the output, so their indices are exact zeros that need no query.
"""

import time

import numpy as np

from bnsens import AnalysisSpec, Cpt, DiscreteBayesNet, Variable, compute_all
from bnsens.errors import StateSpaceTooLargeError
from bnsens.oracle import enumerate_joint

rng = np.random.default_rng(7)
parent_map = {i: () for i in range(16)}
mids = list(range(16, 23))
for k, m in enumerate(mids):
    pool = list(range(16)) + mids[:k]
    count = 3 + (k % 2)
    parent_map[m] = tuple(sorted(int(x) for x in rng.choice(pool, size=count, replace=False)))
parent_map[23] = tuple(sorted(int(x) for x in rng.choice(mids, size=3, replace=False)))

variables = tuple(Variable(i, f"N{i}", ("0", "1", "2")) for i in range(24))
cpts = tuple(
    Cpt(i, parent_map[i], rng.dirichlet(np.ones(3), size=3 ** len(parent_map[i])))
    for i in range(24)
)
bn = DiscreteBayesNet(variables, cpts)
spec = AnalysisSpec(23, frozenset(range(16)), {"0": 0.0, "1": 1.0, "2": 2.0})

print(f"evidence grid: 3^16 = {3**16:,} configurations of f")
try:
    enumerate_joint(bn)
except StateSpaceTooLargeError as exc:
    print(f"brute force refuses: {exc}")

started = time.perf_counter()
report = compute_all(bn, spec)
elapsed = time.perf_counter() - started
print(f"\npipeline: 16 (S, ST) pairs in {elapsed:.3f}s\n")
print(f"{'variable':<6} {'S':>10} {'ST':>10}")
for entry in sorted(report.indices, key=lambda e: -e.st):
    print(f"{entry.name:<6} {entry.s:>10.5f} {entry.st:>10.5f}")
