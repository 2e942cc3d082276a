"""Generate a random network and compute a full sensitivity report.

The generator draws a random DAG over a random topological order and fills
every CPT with rows sampled uniformly from the probability simplex, so the
same seed always yields the same network.
"""

from bnsens import AnalysisSpec, ancestors, compute_all, generate_random_bn

bn = generate_random_bn(seed=15, n=14, max_parents=2, cardinality_range=(2, 3))
roots = bn.roots()
print(f"network with {bn.n} nodes; roots: {[bn.variables[i].name for i in roots]}")

# Output: the non-root node with the most root ancestors; evidence: all roots.
dag = bn.dag()
output = max(
    (i for i in range(bn.n) if i not in roots),
    key=lambda i: len(ancestors(dag, {i}) & set(roots)),
)
value_map = {label: float(k) for k, label in enumerate(bn.variables[output].domain)}
spec = AnalysisSpec(output, frozenset(roots), value_map)

report = compute_all(bn, spec)
print(f"output: {bn.variables[output].name}")
print(f"E[f] = {report.expected_value:.6f}, Var[f] = {report.variance:.6f}\n")
print(f"{'variable':<10} {'S':>10} {'ST':>10}")
for entry in report.indices:
    print(f"{entry.name:<10} {entry.s:>10.5f} {entry.st:>10.5f}")
print(f"\ncomputed {2 * len(report.indices)} indices in {report.total_time:.3f}s")
