import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dynamite as dm
from dynamite.rng import CHAIN_A, CHAIN_B, stream


def params(lam=0.0, r=1.0, delta_prime=math.exp(-1.0), m=1):
    return dm.ConcentrationParams(lambda_bound=lam, value_range=r, delta_prime=delta_prime, m=m)


def paired(a, b):
    return dm.PairedEvaluations(np.asarray(a, dtype=float), np.asarray(b, dtype=float))


class TestPairedEvaluations:
    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError, match="equal-length"):
            paired([0.0, 1.0], [1.0])

    def test_rejects_identical_streams(self):
        with pytest.raises(ValueError, match="distinct streams"):
            dm.PairedEvaluations(np.zeros(2), np.zeros(2), stream_a=7, stream_b=7)


class TestEmpiricalMean:
    def test_mixed_pair(self):
        assert dm.empirical_mean(paired([0, 1], [1, 0])) == 0.5

    def test_constant(self):
        assert dm.empirical_mean(paired([0.3] * 4, [0.3] * 4)) == pytest.approx(0.3)

    def test_uneven(self):
        assert dm.empirical_mean(paired([0, 0, 1], [1, 1, 1])) == pytest.approx(4 / 6)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            dm.empirical_mean(paired([], []))


class TestTwoChainVariance:
    def test_direct_arithmetic(self):
        assert dm.two_chain_variance(paired([0, 1, 0], [1, 1, 0])) == pytest.approx(1 / 6)

    def test_identical_sequences(self):
        assert dm.two_chain_variance(paired([0.2, 0.9], [0.2, 0.9])) == 0.0

    def test_unbiased_on_cycle(self, cycle8, cycle8_f1):
        # quick version of the acceptance check: 2000 replicates, 4 standard errors
        estimates = np.empty(2000)
        for rep in range(estimates.size):
            starts = stream(99, rep, 0)
            a = cycle8.path(int(starts.integers(0, 8)), 16, stream(99, rep, CHAIN_A))
            b = cycle8.path(int(starts.integers(0, 8)), 16, stream(99, rep, CHAIN_B))
            estimates[rep] = dm.two_chain_variance(paired(cycle8_f1.values(a), cycle8_f1.values(b)))
        se = estimates.std(ddof=1) / math.sqrt(estimates.size)
        assert abs(estimates.mean() - 0.25) <= 4 * se

    @given(
        st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=40),
        st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=40),
    )
    @settings(max_examples=200, deadline=None)
    def test_range_containment(self, a, b):
        size = min(len(a), len(b))
        v = dm.two_chain_variance(paired(a[:size], b[:size]))
        assert 0.0 <= v <= 0.5 + 1e-12  # R == 1 here, so R^2 / 2


class TestSampleComplexities:
    def test_hoeffding_hand_fixtures(self):
        assert dm.hoeffding_sample_complexity(params(lam=0.0, delta_prime=2 / math.e), 0.5) == 2
        assert dm.hoeffding_sample_complexity(params(lam=0.5, delta_prime=2 / math.e), 0.5) == 6
        assert dm.hoeffding_sample_complexity(params(r=0.0), 0.5) == 0

    def test_bernstein_hand_fixtures(self):
        assert dm.bernstein_sample_complexity(params(lam=0.0, delta_prime=2 / math.e), 0.0, 1.0) == 10
        assert dm.bernstein_sample_complexity(params(lam=0.0, delta_prime=2 / math.e), 0.25, 0.5) == 22
        assert dm.bernstein_sample_complexity(params(r=0.0), 0.0, 1.0) == 0

    def test_rejects_nonpositive_epsilon(self):
        with pytest.raises(ValueError):
            dm.hoeffding_sample_complexity(params(), 0.0)
        with pytest.raises(ValueError):
            dm.bernstein_sample_complexity(params(), 0.1, -1.0)


class TestVarianceUpperBound:
    def test_zero_variance_constant(self):
        # L/m == 1 via delta' = 1/e, m = 1
        u = dm.variance_upper_bound(0.0, params())
        assert u == pytest.approx(11 + math.sqrt(21), abs=1e-12)

    def test_quarter_variance(self):
        u = dm.variance_upper_bound(0.25, params())
        assert u == pytest.approx(0.25 + (11 + math.sqrt(21)) + 0.5, abs=1e-12)

    def test_vanishes_with_sample_size(self):
        small = dm.variance_upper_bound(0.1, params(m=10 ** 9))
        assert small == pytest.approx(0.1, abs=1e-3)

    @given(
        st.floats(min_value=0.0, max_value=0.5),
        st.floats(min_value=0.0, max_value=0.95),
        st.integers(min_value=1, max_value=10 ** 6),
    )
    @settings(max_examples=200, deadline=None)
    def test_dominates_the_estimate(self, vhat, lam, m):
        assert dm.variance_upper_bound(vhat, params(lam=lam, m=m)) >= vhat


class TestBernsteinRadius:
    def test_zero_bound(self):
        assert dm.bernstein_radius(0.0, params()) == pytest.approx(10.0, abs=1e-12)

    def test_unit_bound(self):
        assert dm.bernstein_radius(1.0, params()) == pytest.approx(11.0, abs=1e-12)

    def test_degenerate_range(self):
        assert dm.bernstein_radius(0.0, params(r=0.0)) == 0.0

    @given(
        st.floats(min_value=0.0, max_value=2.0),
        st.integers(min_value=1, max_value=20),
    )
    @settings(max_examples=100, deadline=None)
    def test_strictly_decreasing_in_m(self, u, doublings):
        r1 = dm.bernstein_radius(u, params(m=2 ** doublings))
        r2 = dm.bernstein_radius(u, params(m=2 ** (doublings + 1)))
        assert r2 < r1


class TestStaticEstimate:
    def test_identity_chain_returns_start_value(self):
        f = dm.indicator_function([2])
        assert dm.static_estimate(dm.matrix_kernel(np.eye(4), "identity-4"), f, 5, 2, rng=0) == 1.0
        assert dm.static_estimate(dm.matrix_kernel(np.eye(4), "identity-4"), f, 5, 1, rng=0) == 0.0

    def test_rejects_bad_inputs(self, cycle8, cycle8_f1):
        with pytest.raises(ValueError, match="sample count"):
            dm.static_estimate(cycle8, cycle8_f1, 0, 0, rng=0)
        with pytest.raises(ValueError, match="start state"):
            dm.static_estimate(cycle8, cycle8_f1, 3, 99, rng=0)

    def test_single_sample_is_binary(self, cycle8, cycle8_f1):
        v = dm.static_estimate(cycle8, cycle8_f1, 1, 0, rng=3)
        assert v in (0.0, 1.0)

    def test_hoeffding_budget_achieves_coverage(self, cycle8, cycle8_f1):
        lam = dm.summarize(cycle8, cycle8_f1).second_eigenvalue
        p = dm.ConcentrationParams(lambda_bound=lam, value_range=1.0, delta_prime=0.1, m=1)
        budget = dm.hoeffding_sample_complexity(p, 0.1)
        hits = 0
        for rep in range(200):
            start = int(stream(17, rep, 0).integers(0, 8))
            est = dm.static_estimate(cycle8, cycle8_f1, budget, start, stream(17, rep, 1))
            hits += abs(est - 0.5) <= 0.1
        assert hits >= 180
