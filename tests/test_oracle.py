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
    constant_on_support_chain,
    impossible_label_grid,
    xor_bn,
)


def test_enumerate_chain_joint(chain):
    table = enumerate_joint(chain)
    assert table.variables == (0, 1)
    np.testing.assert_allclose(
        table.probabilities.reshape(-1), [0.56, 0.14, 0.03, 0.27], atol=1e-15
    )
    assert table.probabilities.sum() == pytest.approx(1.0, abs=1e-12)


def test_enumerate_respects_cap():
    bn = generate_random_bn(0, 30, 2, (2, 2))
    with pytest.raises(StateSpaceTooLargeError):
        enumerate_joint(bn)


def test_enumeration_matches_joint_probability():
    from bnsens import joint_probability

    bn = generate_random_bn(9, 6, 3, (2, 3))
    table = enumerate_joint(bn).probabilities
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
