"""Independent reference moments for the benchmark workloads.

    python3 bench/reference.py   # validate, then rewrite reference.json

No bnsens elimination code runs here. For every label o of the output,
g_o(e) = Pr(O = o | e) is tabulated over the evidence grid with
`numpy.einsum` over the CPT arrays of the ancestral sub-network (every
evidential node must be a root, so its prior drops out of the product), in
chunks that fix a few evidential variables. Plain weighted sums over the
grid then give, per label pair (a, b):

    mean[a]         E[g_a]
    cov[a][b]       Cov(g_a, g_b)
    first[i][a][b]  Cov(E[g_a | e_i], E[g_b | e_i])
    total[i][a][b]  E[Cov(g_a, g_b | e_~i)]     (covariance over e_i alone)

f = sum_o v_o g_o for a value map v, so E[f] = v.mean, Var[f] = v'cov v,
S_i = v'first[i] v / Var[f] and S^T_i = v'total[i] v / Var[f] for any map,
with every second moment taken about its own mean. Before writing, the
code is checked against `bnsens.oracle.brute_force_indices` (joint
enumeration) on small versions of each workload generator.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
import time
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

from bnsens import AnalysisSpec, DiscreteBayesNet  # noqa: E402
from bnsens.oracle import brute_force_indices  # noqa: E402

import workloads  # noqa: E402

REFERENCE = BENCH / "reference.json"
CHUNK_CELLS = 1 << 21
VALIDATION_TOL = 1e-10


class Moments:
    """Per-label moment matrices of one (network, output, evidence) triple."""

    def __init__(self, mean, cov, first, total):
        self.mean = np.asarray(mean, dtype=np.float64)
        self.cov = np.asarray(cov, dtype=np.float64)
        self.first = {int(i): np.asarray(m, dtype=np.float64) for i, m in first.items()}
        self.total = {int(i): np.asarray(m, dtype=np.float64) for i, m in total.items()}

    @classmethod
    def from_json(cls, data: dict) -> "Moments":
        return cls(data["mean"], data["cov"], data["first"], data["total"])

    def to_json(self) -> dict:
        return {
            "mean": self.mean.tolist(),
            "cov": self.cov.tolist(),
            "first": {str(i): m.tolist() for i, m in sorted(self.first.items())},
            "total": {str(i): m.tolist() for i, m in sorted(self.total.items())},
        }

    def indices(self, values) -> tuple[float, float, dict[int, tuple[float, float]]]:
        """(E[f], Var[f], {i: (S_i, S^T_i)}) for a value vector in domain order."""
        v = np.asarray(values, dtype=np.float64)
        variance = float(v @ self.cov @ v)
        return (
            float(v @ self.mean),
            variance,
            {
                i: (float(v @ self.first[i] @ v) / variance,
                    float(v @ self.total[i] @ v) / variance)
                for i in self.first
            },
        )


def _grid_chunks(bn: DiscreteBayesNet, output: int, evidential: list[int], split: list[int]):
    """Yield (assignment of `split`, its prior weight, the other evidential
    ids, their joint prior over the chunk, g over the chunk).

    g has one axis per remaining evidential variable (ascending id) and a
    last axis over the output labels."""
    keep = workloads.ancestors(bn, {output, *evidential})
    if len(keep) > 52:
        raise ValueError("einsum sublists allow at most 52 variables")
    letter = {v: pos for pos, v in enumerate(sorted(keep))}
    card = {v: bn.variables[v].cardinality for v in keep}
    prior = {e: bn.cpts[e].table[0] for e in evidential}
    rest = [e for e in evidential if e not in split]
    cpts = [
        (bn.cpts[v].table.reshape([card[p] for p in (*bn.cpts[v].parents, v)]),
         (*bn.cpts[v].parents, v))
        for v in sorted(keep - set(evidential))
    ]
    weights = np.ones(())
    for e in rest:
        weights = np.multiply.outer(weights, prior[e])
    for values in itertools.product(*(range(card[s]) for s in split)):
        fixed = dict(zip(split, values))
        operands = []
        for table, axes in cpts:
            index = tuple(fixed.get(a, slice(None)) for a in axes)
            operands += [table[index], [letter[a] for a in axes if a not in fixed]]
        for e in rest:  # an evidential root no CPT mentions still spans the grid
            operands += [np.ones(card[e]), [letter[e]]]
        g = np.einsum(*operands, [letter[e] for e in rest] + [letter[output]],
                      optimize="greedy")
        weight = float(np.prod([prior[s][x] for s, x in fixed.items()]))
        yield fixed, weight, rest, weights, g


def _split(bn: DiscreteBayesNet, output: int, evidential: list[int], chunk_cells: int,
           avoid=()) -> list[int]:
    """Fewest evidential variables (outside `avoid`) to fix so that a chunk
    holds at most `chunk_cells` cells, or all of them if that is not enough."""
    cells = bn.variables[output].cardinality
    for e in evidential:
        cells *= bn.variables[e].cardinality
    split = []
    for e in evidential:
        if cells <= chunk_cells:
            break
        if e not in avoid:
            split.append(e)
            cells //= bn.variables[e].cardinality
    return split


def _weighted_outer(d: np.ndarray, w: np.ndarray, scale: float) -> np.ndarray:
    k = d.shape[-1]
    flat = d.reshape(-1, k)
    return scale * ((flat * w.reshape(-1, 1)).T @ flat)


def moments(bn: DiscreteBayesNet, output: int, evidential,
            chunk_cells: int = CHUNK_CELLS) -> Moments:
    """The moment matrices of g over the grid of the (root) evidential nodes."""
    evidential = sorted(int(e) for e in evidential)
    for e in evidential:
        if bn.cpts[e].parents:
            raise ValueError(f"evidential node {e} is not a root")
    k = bn.variables[output].cardinality
    split = _split(bn, output, evidential, chunk_cells)

    # Pass 1: mean and the conditional means E[g | e_i = x] (sums, no centring).
    total_mass = np.zeros(k)
    by_value = {e: np.zeros((bn.variables[e].cardinality, k)) for e in evidential}
    for fixed, weight, rest, w, g in _grid_chunks(bn, output, evidential, split):
        wg = g * w[..., None]
        mass = weight * wg.reshape(-1, k).sum(axis=0)
        total_mass += mass
        for s, x in fixed.items():
            by_value[s][x] += mass
        for pos, e in enumerate(rest):
            others = tuple(a for a in range(len(rest)) if a != pos)
            by_value[e] += weight * wg.sum(axis=others)
    mean = total_mass
    first = {}
    for e, sums in by_value.items():
        p = bn.cpts[e].table[0]
        cond = np.divide(sums, p[:, None], out=np.tile(mean, (len(p), 1)),
                         where=p[:, None] > 0)
        d = cond - mean
        first[e] = (d * p[:, None]).T @ d

    # Pass 2 (and 3 for the split variables): centred covariance and the
    # expected conditional covariance over each e_i.
    cov = np.zeros((k, k))
    total = {}
    passes = [(split, True)]
    if split:
        passes.append((_split(bn, output, evidential, chunk_cells, avoid=split), False))
    for chunk_split, with_cov in passes:
        wanted = [e for e in evidential if e not in chunk_split and e not in total]
        acc = {e: np.zeros((k, k)) for e in wanted}
        for _, weight, rest, w, g in _grid_chunks(bn, output, evidential, chunk_split):
            if with_cov:
                cov += _weighted_outer(g - mean, w, weight)
            for e in wanted:
                pos = rest.index(e)
                p = bn.cpts[e].table[0].reshape(
                    [-1 if a == pos else 1 for a in range(len(rest))] + [1])
                nu = (g * p).sum(axis=pos, keepdims=True)
                acc[e] += _weighted_outer(g - nu, w, weight)
        total.update(acc)
    return Moments(mean, cov, first, total)


def values(bn: DiscreteBayesNet, spec: AnalysisSpec) -> list[float]:
    """The spec's value map as a vector in output-domain order."""
    return [spec.value_map[label] for label in bn.variables[spec.output].domain]


def validate() -> float:
    """Largest deviation from joint enumeration over small versions of the
    three generators, each with several seeds and value maps."""
    cases = []
    for seed in range(4):
        cases.append(workloads.layered_bn(seed, 6, 3, 3) + (frozenset(range(6)),))
        cases.append(workloads.layered_bn(seed, 4, 3, (2, 4)) + (frozenset(range(4)),))
        cases.append(workloads.sparse_bn(seed, 12))
    worst = 0.0
    for case, (bn, output, evidential) in enumerate(cases):
        # Small chunks, so the split passes run too.
        ref = moments(bn, output, evidential, chunk_cells=256)
        for value_seed in range(2):
            spec = AnalysisSpec(output, evidential,
                                workloads.seeded_map(bn, output, value_seed))
            oracle = brute_force_indices(bn, spec)
            mean, variance, by_var = ref.indices(values(bn, spec))
            devs = [abs(mean - oracle.expected_value), abs(variance - oracle.variance)]
            for entry in oracle.indices:
                s, st = by_var[entry.variables[0]]
                devs += [abs(s - entry.s), abs(st - entry.st)]
            worst = max(worst, *devs)
            if not max(devs) <= VALIDATION_TOL:
                raise SystemExit(f"reference disagrees with the oracle on case {case}: "
                                 f"{max(devs):.3e}")
    return worst


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.split("\n")[0]).parse_args(argv)
    started = time.perf_counter()
    worst = validate()
    print(f"oracle cross-check: max deviation {worst:.3e} "
          f"({time.perf_counter() - started:.1f} s)")
    out = {
        "comment": "Written by bench/reference.py; per-label moments, see its docstring.",
        "workloads": {},
    }
    for name in workloads.NAMES:
        started = time.perf_counter()
        bn, output, evidential = workloads.network(name)
        ref = moments(bn, output, evidential)
        out["workloads"][name] = {
            "network_sha256": workloads.fingerprint(bn),
            "output": output,
            "evidential": sorted(evidential),
            **ref.to_json(),
        }
        _, variance, _ = ref.indices(values(bn, AnalysisSpec(
            output, evidential, workloads.positional_map(bn, output))))
        print(f"{name}: positional-map variance {variance!r} "
              f"({time.perf_counter() - started:.1f} s)")
    REFERENCE.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {REFERENCE.relative_to(BENCH.parent)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
