"""A complete walkthrough on the smallest possible example.

A two-node network E -> O, where E is the evidential variable and O the
output. Everything is small enough to verify by hand, so this script prints
each intermediate object next to its closed-form value.
"""

from bnsens import (
    AnalysisSpec,
    Cpt,
    DiscreteBayesNet,
    Factor,
    TensorNetwork,
    Variable,
    brute_force_f,
    compute_all,
    contract_all,
    joint_probability,
    mrf_from_bn,
    output_values,
    validate_partition,
)

# Pr(E) = (0.7, 0.3); Pr(O=1 | E=0) = 0.2, Pr(O=1 | E=1) = 0.9. Building
# the network checks it (acyclic, table shapes, rows summing to 1).
bn = DiscreteBayesNet(
    (Variable(0, "E", ("0", "1")), Variable(1, "O", ("0", "1"))),
    (Cpt(0, (), [[0.7, 0.3]]), Cpt(1, (0,), [[0.8, 0.2], [0.1, 0.9]])),
)

print("joint probabilities (should sum to 1):")
for e in "01":
    for o in "01":
        print(f"  Pr(E={e}, O={o}) = {joint_probability(bn, {'E': e, 'O': o}):.4f}")

# The analysis: how strongly does evidence on E drive the expected value of
# O, with O's labels mapped to 0 and 1 (so f(e) = Pr(O=1 | E=e))?
spec = AnalysisSpec(output=1, evidential=frozenset({0}), value_map={"0": 0.0, "1": 1.0})
validate_partition(bn, spec)

mrf = mrf_from_bn(bn)
print(f"\nfull contraction of the probability network: {contract_all(mrf):.6f} (= 1)")

# The function network: the probability network times one factor over O
# holding the value of each of its labels.
values = Factor((spec.output,), output_values(bn, spec))
t = TensorNetwork(mrf.universe, (*mrf.factors, values))
print(f"expected output E[f] = {contract_all(t):.6f} (hand value 0.41)")

# f tabulated by direct summation over the joint (the brute-force oracle).
f_table = brute_force_f(bn, spec).values
for e in (0, 1):
    print(f"f(E={e}) = {f_table[e]:.6f}")

report = compute_all(bn, spec)
print(f"\nVar[f] = {report.variance:.6f} (hand value 0.1029)")
entry = report.indices[0]
print(f"S_E = {entry.s:.6f}, ST_E = {entry.st:.6f} (both 1: E is the only input)")
