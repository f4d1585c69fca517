import numpy as np
import pytest

import dynamite as dm
from dynamite.errors import NotErgodicError

from _oracles import (
    enumerate_autocovariance,
    enumerate_trace_variance,
    stationary_nullspace,
)

RANK_ONE = np.array([[0.3, 0.7], [0.3, 0.7]])


class TestSummarize:
    def test_cycle_stationary_is_uniform(self):
        s = dm.summarize(dm.make_cycle(4), dm.make_cycle_function(4, 1))
        assert np.allclose(s.stationary, 0.25, atol=1e-12)
        assert s.pi_min == pytest.approx(0.25, abs=1e-12)

    def test_single_state_chain_rejected(self):
        with pytest.raises(NotErgodicError):
            dm.summarize(np.array([[1.0]]), np.array([0.0]))

    def test_periodic_chain_rejected(self):
        with pytest.raises(NotErgodicError):
            dm.summarize(np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([0.0, 1.0]))

    def test_reducible_chain_rejected(self):
        with pytest.raises(NotErgodicError):
            dm.summarize(np.eye(3), np.arange(3.0))

    def test_two_state_uniform(self):
        s = dm.summarize(dm.make_two_state_uniform(), dm.indicator_function([1]))
        assert s.second_eigenvalue == pytest.approx(0.0, abs=1e-12)
        assert s.relaxation_time == pytest.approx(1.0, abs=1e-12)
        assert s.mean == pytest.approx(0.5)
        assert s.stationary_variance == pytest.approx(0.25)

    def test_second_eigenvalue_matches_known_cycle_value(self):
        for n in (4, 8, 16):
            s = dm.summarize(dm.make_cycle(n), dm.make_cycle_function(n, 1))
            assert s.second_eigenvalue == pytest.approx(np.cos(np.pi / n) ** 2, abs=1e-12)

    def test_stationary_is_fixed_point_on_registry(self, registry):
        for name, kernel, f in registry:
            s = dm.summarize(kernel, f)
            assert np.max(np.abs(s.stationary @ kernel.matrix - s.stationary)) < 1e-9, name
            assert s.stationary_variance <= f.value_range ** 2 / 4 + 1e-12

    def test_records_render_arrays_as_lists_of_python_floats(self):
        kernel, f = dm.make_cycle(4), dm.make_cycle_function(4, 1)
        s = dm.summarize(kernel, f)
        profile = dm.exact_trace_variance(kernel, f, 3, summary=s)
        for values in (s.to_json()["stationary"], profile.to_json()["autocovariances"]):
            assert type(values) is list and len(values) in (2, 4)
            assert all(type(v) is float for v in values)


class TestAutocovariance:
    """The autocovariances C_1 .. C_{T-1} that ``exact_trace_variance`` reports."""

    def test_rank_one_chain_has_no_memory(self):
        f = np.array([0.0, 1.0])
        covs = dm.exact_trace_variance(RANK_ONE, f, 6).autocovariances
        assert covs == pytest.approx(np.zeros(5), abs=1e-14)

    def test_constant_function(self):
        f = np.full(4, 0.7)
        lag = 3
        c = dm.exact_trace_variance(dm.make_cycle(4).matrix, f, lag + 1).autocovariances[lag - 1]
        assert c == pytest.approx(0.0, abs=1e-14)

    def test_matches_path_enumeration(self):
        kernel = dm.make_cycle(4)
        f = dm.indicator_function([1, 2])
        fvals = f.values(np.arange(4))
        pi = stationary_nullspace(kernel.matrix)
        covs = dm.exact_trace_variance(kernel, f, 4).autocovariances
        for lag in (1, 2, 3):
            expected = enumerate_autocovariance(kernel.matrix, pi, fvals, lag)
            assert covs[lag - 1] == pytest.approx(expected, abs=1e-12)

    def test_decay_bound_on_registry(self, registry):
        for name, kernel, f in registry:
            s = dm.summarize(kernel, f)
            covs = dm.exact_trace_variance(kernel, f, 21, summary=s).autocovariances
            for lag, c in enumerate(covs, start=1):
                bound = s.second_eigenvalue ** lag * s.stationary_variance
                assert c <= bound + 1e-10, (name, lag)
                assert c >= -1e-10, (name, lag)  # lazy chains have nonnegative memory


class TestExactTraceVariance:
    def test_horizon_one_is_stationary_variance(self, registry):
        for name, kernel, f in registry:
            s = dm.summarize(kernel, f)
            prof = dm.exact_trace_variance(kernel, f, 1, summary=s)
            assert prof.trace_variance == pytest.approx(s.stationary_variance, abs=1e-14), name

    def test_rank_one_chain_scales_like_independence(self):
        f = np.array([0.0, 1.0])
        s = dm.summarize(RANK_ONE, f)
        for horizon in (2, 5, 17):
            prof = dm.exact_trace_variance(RANK_ONE, f, horizon, summary=s)
            assert prof.trace_variance == pytest.approx(s.stationary_variance / horizon, abs=1e-13)

    def test_matches_exhaustive_enumeration(self):
        kernel = dm.make_cycle(4)
        f = dm.indicator_function([1, 2])
        fvals = f.values(np.arange(4))
        s = dm.summarize(kernel, f)
        expected = enumerate_trace_variance(kernel.matrix, s.stationary, fvals, 3, mean=s.mean)
        got = dm.exact_trace_variance(kernel, f, 3, summary=s).trace_variance
        assert got == pytest.approx(expected, abs=1e-12)

    def test_oracle_consistency_on_small_state_spaces(self, registry):
        for name, kernel, f in registry:
            n = kernel.matrix.shape[0]
            s = dm.summarize(kernel, f)
            fvals = f.values(np.arange(n))
            for horizon in (2, 3, 4):
                if n ** horizon > 100_000:
                    continue
                expected = enumerate_trace_variance(kernel.matrix, s.stationary, fvals, horizon, mean=s.mean)
                got = dm.exact_trace_variance(kernel, f, horizon, summary=s).trace_variance
                assert got == pytest.approx(expected, abs=1e-12), (name, horizon)


class TestSandwich:
    def test_rank_one_lower_bound_tight(self):
        f = np.array([0.0, 1.0])
        verdict = dm.check_sandwich(RANK_ONE, f, dm.exact_trace_variance(RANK_ONE, f, 8))
        assert verdict.passed
        assert verdict.trace_variance == pytest.approx(verdict.lower, abs=1e-13)

    def test_cycle8_easy_and_hard_functions(self):
        kernel = dm.make_cycle(8)
        easy, hard = (dm.check_sandwich(kernel, f, dm.exact_trace_variance(kernel, f, 64))
                      for f in (dm.make_cycle_function(8, 1), dm.make_cycle_function(8, 4)))
        assert easy.passed and hard.passed
        # the widest block sits near the top of the sandwich, the parity one at the bottom
        assert hard.trace_variance > 9 * easy.trace_variance

    def test_rejects_nonlazy_kernel(self):
        skewed = dm.matrix_kernel(RANK_ONE, "skew", is_reversible=True)
        f = np.array([0.0, 1.0])
        with pytest.raises(ValueError, match="lazy"):
            dm.check_sandwich(skewed, f, dm.exact_trace_variance(skewed, f, 4))


class TestMonotoneCumulativeVariance:
    def test_t_times_vt_nondecreasing(self, registry):
        for name, kernel, f in registry:
            s = dm.summarize(kernel, f)
            previous = 0.0
            for horizon in range(1, 65):
                v = dm.exact_trace_variance(kernel, f, horizon, summary=s).trace_variance
                assert horizon * v >= previous - 1e-10, (name, horizon)
                previous = horizon * v


class TestCycleSeparation:
    def test_ordering_at_n8(self):
        rows = dict(dm.cycle_separation_profile(8, 64))
        assert set(rows) == {1, 2, 4}
        assert rows[1] < rows[2] < rows[4]

    def test_eightfold_separation_at_n16(self):
        rows = dict(dm.cycle_separation_profile(16, 256))
        assert rows[8] / rows[1] >= 8.0

    def test_horizon_one_collapses_to_quarter(self):
        rows = dict(dm.cycle_separation_profile(4, 1))
        assert set(rows) == {1, 2}
        for v in rows.values():
            assert v == pytest.approx(0.25, abs=1e-12)


class TestProjectionConsistency:
    def test_trace_variance_survives_lumping(self):
        # lumped by residue mod 2i, the lazy n-cycle is the lazy 2i-cycle (the uniform
        # two-state chain when 2i = 2) and block-f_i is that cycle's own block function
        for n, i in ((8, 1), (8, 2), (16, 2), (16, 4)):
            kernel = dm.make_cycle(n)
            f = dm.make_cycle_function(n, i)
            if i == 1:
                lumped, induced = dm.make_two_state_uniform(), dm.indicator_function([1])
            else:
                lumped, induced = dm.make_cycle(2 * i), dm.make_cycle_function(2 * i, i)
            for horizon in (1, 8, 32):
                full = dm.exact_trace_variance(kernel, f, horizon).trace_variance
                reduced = dm.exact_trace_variance(lumped, induced, horizon).trace_variance
                assert full == pytest.approx(reduced, abs=1e-10), (n, i, horizon)
