import math
import warnings

import numpy as np
import pytest

from bnsens import (
    AnalysisSpec,
    DegenerateOutputError,
    DependentInputsError,
    StateSpaceTooLargeError,
    generate_random_bn,
)
from bnsens.oracle import (
    brute_force_closed,
    brute_force_f,
    brute_force_indices,
    enumerate_joint,
    mc_indices,
)
from helpers import (
    common_parent_bn,
    constant_behind_rare_evidence,
    constant_on_support_chain,
    exact_indices,
    impossible_label_grid,
    random_instance,
    xor_bn,
)


def test_enumerate_chain_joint(chain):
    table = enumerate_joint(chain)
    assert table.shape == (2, 2)
    np.testing.assert_allclose(table.reshape(-1), [0.56, 0.14, 0.03, 0.27], atol=1e-15)
    assert table.sum() == pytest.approx(1.0, abs=1e-12)


def test_enumerate_respects_cap():
    bn = generate_random_bn(0, 30, 2, (2, 2))
    with pytest.raises(StateSpaceTooLargeError):
        enumerate_joint(bn)


def test_enumeration_matches_joint_probability():
    from bnsens import joint_probability

    bn = generate_random_bn(9, 6, 3, (2, 3))
    table = enumerate_joint(bn)
    names = [v.name for v in bn.variables]
    domains = [v.domain for v in bn.variables]
    rng = np.random.default_rng(0)
    for _ in range(20):
        idx = tuple(int(rng.integers(0, len(d))) for d in domains)
        assignment = {names[i]: domains[i][idx[i]] for i in range(bn.n)}
        assert table[idx] == pytest.approx(joint_probability(bn, assignment), rel=1e-12)


def test_brute_force_f_chain(chain, chain_analysis):
    table = brute_force_f(chain, chain_analysis)
    np.testing.assert_allclose(table.probabilities, [0.7, 0.3], atol=1e-15)
    np.testing.assert_allclose(table.values, [0.2, 0.9], atol=1e-12)
    assert not table.zero_probability.any()
    assert table.probabilities.sum() == pytest.approx(1.0, abs=1e-12)


def test_brute_force_indices_chain(chain, chain_analysis):
    report = brute_force_indices(chain, chain_analysis)
    assert report.expected_value == pytest.approx(0.41, abs=1e-12)
    assert report.variance == pytest.approx(0.1029, abs=1e-12)
    assert report.indices[0].s == pytest.approx(1.0, abs=1e-12)
    assert report.indices[0].st == pytest.approx(1.0, abs=1e-12)


def test_brute_force_indices_xor():
    bn, spec = xor_bn()
    report = brute_force_indices(bn, spec)
    for entry in report.indices:
        assert abs(entry.s) <= 1e-12
        assert entry.st == pytest.approx(1.0, abs=1e-12)


def test_brute_force_self_consistency():
    bn, spec = common_parent_bn()
    table = brute_force_f(bn, spec)
    report = brute_force_indices(bn, spec)
    mean = float((table.probabilities * table.values).sum())
    second = float((table.probabilities * table.values**2).sum())
    assert report.variance == pytest.approx(second - mean * mean, abs=1e-12)


def test_exact_reference_agrees_with_the_oracle():
    # `exact_indices` enumerates the same joint in Fractions, so the float
    # oracle may differ from it by rounding alone: within 1e-10 on every
    # random instance whose joint has at most 1e4 cells.
    checked = 0
    for seed in range(40):
        bn, spec = random_instance(seed)
        if math.prod(v.cardinality for v in bn.variables) > 10_000:
            continue
        mean, variance, indices = exact_indices(bn, spec)
        report = brute_force_indices(bn, spec)
        assert report.expected_value == pytest.approx(float(mean), abs=1e-10)
        assert report.variance == pytest.approx(float(variance), abs=1e-10)
        assert sorted(indices) == sorted(spec.evidential)
        for entry in report.indices:
            s, st = indices[entry.variables[0]]
            assert entry.s == pytest.approx(float(s), abs=1e-10)
            assert entry.st == pytest.approx(float(st), abs=1e-10)
        checked += 1
    assert checked == 28


@pytest.mark.parametrize("seed", range(6))
def test_exact_reference_of_a_constant_f_has_no_variance(seed):
    # f is constant up to the rounding of its CPT rows, which do not sum to
    # exactly 1: Var[f] taken under the unnormalized joint came out near
    # -(M - 1) E[f]^2 for a total mass M, negative for seeds 3 and 4.
    bn, spec = constant_behind_rare_evidence(seed)
    _, variance, _ = exact_indices(bn, spec)
    assert 0 <= variance <= 1e-39


def test_brute_force_degenerate(chain):
    spec = AnalysisSpec(1, frozenset({0}), {"0": 1.0, "1": 1.0})
    with pytest.raises(DegenerateOutputError):
        brute_force_indices(chain, spec)


@pytest.mark.parametrize("network", [constant_on_support_chain, impossible_label_grid])
def test_map_constant_on_the_output_support_is_degenerate(network):
    # brute_force_f still tabulates f; every index function raises.
    bn, spec = network()
    table = brute_force_f(bn, spec)
    assert np.ptp(table.values[~table.zero_probability]) <= 1e-6
    with pytest.raises(DegenerateOutputError):
        brute_force_indices(bn, spec)
    with pytest.raises(DegenerateOutputError):
        brute_force_closed(bn, spec, sorted(spec.evidential)[:1])
    with pytest.raises(DegenerateOutputError):
        mc_indices(bn, spec, samples=100, seed=1)


def test_mc_within_three_standard_errors(chain, chain_analysis):
    report = mc_indices(chain, chain_analysis, samples=100_000, seed=11)
    est = report.estimates[0]
    assert abs(est.s - 1.0) <= 3.0 * est.s_se
    assert abs(est.st - 1.0) <= 3.0 * est.st_se


@pytest.mark.parametrize("samples", [0, 1])
def test_mc_rejects_fewer_than_two_samples(chain, chain_analysis, samples):
    # 0 samples used to end in a false DegenerateOutputError after "Mean of
    # empty slice" warnings, and 1 sample in S = 2.8 with NaN standard errors.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="at least 2 samples"):
            mc_indices(chain, chain_analysis, samples=samples, seed=0)


def test_mc_is_deterministic(chain, chain_analysis):
    a = mc_indices(chain, chain_analysis, samples=2_000, seed=5)
    b = mc_indices(chain, chain_analysis, samples=2_000, seed=5)
    assert a.estimates == b.estimates
    c = mc_indices(chain, chain_analysis, samples=2_000, seed=6)
    assert a.estimates != c.estimates


def test_mc_rejects_dependent_inputs():
    bn, spec = common_parent_bn()
    with pytest.raises(DependentInputsError):
        mc_indices(bn, spec, samples=100, seed=0)


def test_mc_matches_exact_on_xor():
    bn, spec = xor_bn()
    report = mc_indices(bn, spec, samples=50_000, seed=2)
    for est in report.estimates:
        assert abs(est.s - 0.0) <= 3.0 * max(est.s_se, 1e-3)
        assert abs(est.st - 1.0) <= 3.0 * max(est.st_se, 1e-3)
