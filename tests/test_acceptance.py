"""Acceptance suite: every criterion at its stated tolerance, one
pass/fail line printed per criterion (run with -s to see them live)."""

import json
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from bnsens import (
    AnalysisSpec,
    StateSpaceTooLargeError,
    collapse,
    compute_all,
    contract_all,
    encode_utility_node,
    marginalize,
    mrf_from_bn,
    output_values,
    square_wrt,
)
from bnsens.oracle import brute_force_f, brute_force_indices, enumerate_joint
from helpers import (
    additive_bn,
    chain_bn,
    common_parent_bn,
    concrete_style_network,
    function_tn,
    quotient,
    random_instance,
    random_roots_instance,
    random_tn,
    tn_marginal,
    tn_table,
    xor_bn,
)

GOLDEN = Path(__file__).parent / "golden"


@contextmanager
def criterion(tag: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {tag}: FAIL")
        raise
    print(f"ACCEPTANCE {tag}: PASS")


def test_criterion_01_oracle_equivalence_200_networks():
    with criterion("01 oracle equivalence (200 random networks, <=1e-8)"):
        started = time.perf_counter()
        worst = 0.0
        saw_root_evidence = saw_nonroot_evidence = False
        for seed in range(200):
            bn, spec = random_instance(seed, max_nodes=12, max_evidence=6)
            roots = set(bn.roots())
            if spec.evidential & roots:
                saw_root_evidence = True
            if spec.evidential - roots:
                saw_nonroot_evidence = True
            mine = compute_all(bn, spec)
            reference = brute_force_indices(bn, spec)
            for a, b in zip(mine.indices, reference.indices):
                worst = max(worst, abs(a.s - b.s), abs(a.st - b.st))
        elapsed = time.perf_counter() - started
        assert saw_root_evidence and saw_nonroot_evidence
        assert worst <= 1e-8, f"worst deviation {worst}"
        assert elapsed < 300.0, f"suite took {elapsed:.1f}s"


def test_criterion_02_squaring_identity():
    with criterion("02 squaring identity (100 random TNs, rel <=1e-9)"):
        rng = np.random.default_rng(2024)
        for _ in range(100):
            tn = random_tn(rng, n_vars=int(rng.integers(2, 9)))
            k = int(rng.integers(1, len(tn.universe) + 1))
            shared = {
                int(x) for x in rng.choice(list(tn.universe), size=k, replace=False)
            }
            squared_table = collapse(square_wrt(tn, shared), shared).values
            base = tn_marginal(tn, shared)
            scale = np.maximum(np.abs(base * base), 1e-30)
            assert (np.abs(squared_table - base * base) / scale).max() <= 1e-9


def test_criterion_03_quotient_identities():
    with criterion("03 quotient identities (100 random pairs, rel <=1e-9)"):
        rng = np.random.default_rng(3033)
        for trial in range(100):
            n = int(rng.integers(2, 5))
            tn = random_tn(rng, n_vars=n)
            divisor = random_tn(rng, positive=True, universe=tn.universe)
            # Pointwise: the quotient network evaluates to the ratio.
            q = quotient(tn, divisor)
            ratio = tn_table(tn)[1] / tn_table(divisor)[1]
            q_table = tn_table(q)[1]
            scale = np.maximum(np.abs(ratio), 1e-30)
            assert (np.abs(q_table - ratio) / scale).max() <= 1e-9
            # Marginalization commutation against a pre-marginalized divisor,
            # plain and squared.
            inner_size = int(rng.integers(1, n))
            inner = {int(x) for x in rng.choice(n, size=inner_size, replace=False)}
            keep = set(range(n)) - inner
            divisor_marg = marginalize(divisor, inner)
            q2 = quotient(tn, divisor_marg)
            lhs = collapse(marginalize(q2, inner), keep).values
            rhs = tn_marginal(tn, keep) / tn_marginal(divisor, keep)
            scale = np.maximum(np.abs(rhs), 1e-30)
            assert (np.abs(lhs - rhs) / scale).max() <= 1e-9
            squared = square_wrt(q2, keep)
            lhs_sq = collapse(squared, keep).values
            scale = np.maximum(np.abs(rhs * rhs), 1e-30)
            assert (np.abs(lhs_sq - rhs * rhs) / scale).max() <= 1e-9


def test_criterion_04_expectation_and_variance_paths():
    with criterion("04 E[f] identity and variance path equivalence (<=1e-10)"):
        for seed in range(100):
            bn, spec = random_instance(seed + 4000, max_nodes=9, max_evidence=4)
            mrf = mrf_from_bn(bn)
            t = function_tn(mrf, spec.output, output_values(bn, spec))
            j = marginalize(mrf, set(mrf.universe) - spec.evidential)
            # Expectation identity against the enumeration oracle.
            table = brute_force_f(bn, spec)
            expected = float((table.probabilities * table.values).sum())
            assert abs(contract_all(t) - expected) <= 1e-10
            # One-shot squared contraction vs the two-stage path.
            one_shot = contract_all(quotient(square_wrt(t, spec.evidential), j))
            t_over_e = marginalize(t, set(t.universe) - spec.evidential)
            two_stage = contract_all(
                quotient(square_wrt(t_over_e, spec.evidential), j)
            )
            assert abs(one_shot - two_stage) <= 1e-10


def test_criterion_05_independent_input_laws():
    with criterion("05 independent-input laws (ordering, additive, XOR)"):
        for seed in range(30):
            bn, spec = random_roots_instance(seed + 500)
            report = compute_all(bn, spec)
            total = 0.0
            for entry in report.indices:
                assert entry.s <= entry.st + 1e-10
                total += entry.s
            assert total <= 1.0 + 1e-9
        bn, spec = additive_bn()
        for entry in compute_all(bn, spec).indices:
            assert abs(entry.s - entry.st) <= 1e-9
        bn, spec = xor_bn()
        for entry in compute_all(bn, spec).indices:
            assert entry.s <= 1e-9
            assert entry.st >= 1.0 - 1e-9


def test_criterion_06_dependent_inputs_phenomenon():
    with criterion("06 dependent inputs: S_i > S^T_i and oracle match (<=1e-8)"):
        bn, spec = common_parent_bn()
        report = compute_all(bn, spec)
        reference = brute_force_indices(bn, spec)
        assert any(e.s > e.st for e in report.indices)
        for mine, ref in zip(report.indices, reference.indices):
            assert abs(mine.s - ref.s) <= 1e-8
            assert abs(mine.st - ref.st) <= 1e-8


def test_criterion_07_scale_without_enumeration():
    with criterion("07 24-node/16-root fixture under 60s; oracle capped"):
        bn, spec = concrete_style_network(seed=7)
        assert len(spec.evidential) == 16
        assert all(not bn.cpts[i].parents for i in spec.evidential)
        started = time.perf_counter()
        report = compute_all(bn, spec)
        elapsed = time.perf_counter() - started
        assert len(report.indices) == 16
        assert all(e.s is not None and e.st is not None for e in report.indices)
        assert elapsed < 60.0, f"took {elapsed:.2f}s"
        with pytest.raises(StateSpaceTooLargeError):
            enumerate_joint(bn)


def test_criterion_08_utility_encoding():
    with criterion("08 utility encoding (identity <=1e-10, sum vs oracle <=1e-8)"):
        bn = chain_bn()
        extended = encode_utility_node(bn, lambda labels: labels[0], (1,), ("0", "1"))
        direct = compute_all(bn, AnalysisSpec(1, frozenset({0}), {"0": 0.0, "1": 1.0}))
        encoded = compute_all(
            extended, AnalysisSpec(2, frozenset({0}), {"0": 0.0, "1": 1.0})
        )
        for a, b in zip(direct.indices, encoded.indices):
            assert abs(a.s - b.s) <= 1e-10
            assert abs(a.st - b.st) <= 1e-10
        # Sum of three ternary nodes, checked end to end against the oracle.
        rng = np.random.default_rng(88)
        from bnsens import Cpt, DiscreteBayesNet, Variable

        variables = tuple(Variable(i, f"N{i}", ("0", "1", "2")) for i in range(5))
        cpts = (
            Cpt(0, (), rng.dirichlet(np.ones(3))),
            Cpt(1, (), rng.dirichlet(np.ones(3))),
            Cpt(2, (0,), rng.dirichlet(np.ones(3), size=3)),
            Cpt(3, (0, 1), rng.dirichlet(np.ones(3), size=9)),
            Cpt(4, (1, 2), rng.dirichlet(np.ones(3), size=9)),
        )
        base = DiscreteBayesNet(variables, cpts)
        domain = tuple(str(k) for k in range(7))
        summed = encode_utility_node(
            base, lambda labels: str(sum(int(x) for x in labels)), (2, 3, 4), domain
        )
        spec = AnalysisSpec(5, frozenset({0, 1}), {lab: float(lab) for lab in domain})
        mine = compute_all(summed, spec)
        reference = brute_force_indices(summed, spec)
        for a, b in zip(mine.indices, reference.indices):
            assert abs(a.s - b.s) <= 1e-8
            assert abs(a.st - b.st) <= 1e-8


def test_criterion_09_affine_invariance():
    with criterion("09 affine invariance of indices (50 instances, <=1e-9)"):
        for seed in range(50):
            bn, spec = random_instance(seed + 9000, max_nodes=9, max_evidence=4)
            shifted = AnalysisSpec(
                spec.output,
                spec.evidential,
                {k: 2.0 * v + 5.0 for k, v in spec.value_map.items()},
            )
            base = compute_all(bn, spec)
            moved = compute_all(bn, shifted)
            for a, b in zip(base.indices, moved.indices):
                assert abs(a.s - b.s) <= 1e-9
                assert abs(a.st - b.st) <= 1e-9


def test_criterion_10_cli_golden_files():
    with criterion("10 CLI golden files byte-exact"):
        chain = str(GOLDEN / "chain.native")

        def run(*args: str) -> str:
            proc = subprocess.run(
                [sys.executable, "-m", "bnsens", *args],
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 0, proc.stderr
            return proc.stdout

        csv_out = run(
            "compute", "--network", chain, "--indices", "first,total",
            "--format", "csv", "--no-timings",
        )
        assert csv_out == (GOLDEN / "report.csv").read_text()
        json_out = run(
            "compute", "--network", chain, "--format", "json", "--no-timings"
        )
        assert json_out == (GOLDEN / "report.json").read_text()
        dot_out = run("dot", "--network", chain)
        assert dot_out == (GOLDEN / "graph.dot").read_text()
        payload = json.loads(json_out)
        assert payload["schema_version"] == 1
