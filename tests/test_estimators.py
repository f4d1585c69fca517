import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dynamite as dm
from dynamite.adaptive import DEGENERATE_RANGE
from dynamite.chains import CHUNK
from dynamite.rng import CHAIN_A, CHAIN_B, stream

from _oracles import counting_kernel


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
        identity = dm.matrix_kernel(np.eye(4), "identity-4")
        assert dm.static_estimate(2, identity, 0.0, None, f, 0.1, 0.1, seed=0).estimate == 1.0
        assert dm.static_estimate(1, identity, 0.0, None, f, 0.1, 0.1, seed=0).estimate == 0.0

    def test_rejects_bad_inputs(self, cycle8, cycle8_f1):
        # a constant f returns before any step, so its start is checked on entry
        constant = dm.ScalarFunction(lambda xs: np.zeros(len(xs)), lo=0.0, hi=0.0)
        for f in (cycle8_f1, constant):
            with pytest.raises(ValueError, match="start state"):
                dm.static_estimate(99, cycle8, 0.5, None, f, 0.1, 0.1, seed=0)
            with pytest.raises(ValueError, match="start state"):
                dm.static_estimate(8, cycle8, 0.5, 1 / 8, f, 0.1, 0.1, seed=0)

    def test_single_sample_is_binary(self, cycle8, cycle8_f1):
        # at lambda 0 and epsilon 1 the Hoeffding size is ceil(ln(2/delta)/2) = 1
        report = dm.static_estimate(0, cycle8, 0.0, None, cycle8_f1, 1.0, 0.5, seed=3)
        assert report.total_base_steps == 1
        assert report.estimate in (0.0, 1.0)

    def test_hoeffding_budget_achieves_coverage(self, cycle8, cycle8_f1):
        lam = dm.summarize(cycle8, cycle8_f1).second_eigenvalue
        hits = 0
        for rep in range(200):
            start = int(stream(17, rep, 0).integers(0, 8))
            report = dm.static_estimate(start, cycle8, lam, None, cycle8_f1, 0.1, 0.1, seed=17_000 + rep)
            hits += abs(report.estimate - 0.5) <= 0.1
        assert hits >= 180

    def test_constant_function_gives_the_degenerate_report(self, cycle8):
        const = dm.ScalarFunction(lambda xs: np.full(len(xs), 0.7), lo=0.7, hi=0.7, name="const")
        report = dm.static_estimate(3, cycle8, 0.5, 1 / 8, const, 0.05, 0.1, seed=0)
        assert report.estimate == 0.7
        assert report.termination == DEGENERATE_RANGE
        assert report.total_base_steps == report.warmup_steps == 0

    @pytest.mark.parametrize("variance", (None, 0.25))
    def test_sizes_warms_up_and_reports(self, variance, cycle8_f1):
        counted, counter = counting_kernel(dm.make_cycle(8))
        lam = math.cos(math.pi / 8) ** 2
        report = dm.static_estimate(1, counted, lam, 1 / 8, cycle8_f1, 0.05, 0.1, seed=4, variance=variance)
        budget = params(lam=lam, delta_prime=0.1)
        m = (dm.hoeffding_sample_complexity(budget, 0.05) if variance is None
             else dm.bernstein_sample_complexity(budget, variance, 0.05))
        tau = dm.uniform_mixing_steps(lam, 1 / 8)
        assert (report.warmup_steps, report.total_base_steps, counter.count) == (tau, tau + m, tau + m)
        assert (report.termination, report.iterations, report.schedule, report.trace_length) == ("static", (), None, 1)
        assert report.lambda_bound == lam and report.delta == 0.1

    def test_chunked_mean_matches_the_whole_path(self):
        # m ~ 64 CHUNK steps: the sum runs chunk by chunk, on the generator positions of one whole path
        kernel, f = dm.make_cycle(16), dm.make_cycle_function(16, 1)
        lam = math.cos(math.pi / 16) ** 2
        report = dm.static_estimate(5, kernel, lam, None, f, 0.0086, 0.1, seed=21)
        m = report.total_base_steps
        assert 60 * CHUNK < m < 68 * CHUNK
        whole = f.values(kernel.path(5, m, stream(21, CHAIN_A))).mean()
        assert abs(report.estimate - whole) <= 1e-12

    def test_memory_does_not_grow_with_m(self):
        kernel, f = dm.make_cycle(16), dm.make_cycle_function(16, 1)
        lam = math.cos(math.pi / 16) ** 2
        dm.static_estimate(5, kernel, lam, None, f, 0.1, 0.1, seed=21)  # first-call allocations are not m's
        tracemalloc.start()
        try:
            report = dm.static_estimate(5, kernel, lam, None, f, 0.0086, 0.1, seed=21)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.total_base_steps > 60 * CHUNK
        assert peak < 1 << 20  # a whole path's values alone would be 8 bytes a step, ~8 MB