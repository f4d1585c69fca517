import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dynamite as dm
from dynamite.errors import GuardError

from _oracles import enumerate_trace_mean, stationary_nullspace, trace_chain_matrix, trace_chain_stationary

SRC = str(Path(__file__).resolve().parents[1] / "src")


class TestPath:
    def test_identity_chain_is_absorbing(self):
        path = dm.identity_kernel(4).path(2, 3, np.random.default_rng(0))
        assert list(path) == [2, 2, 2]

    def test_seed_determinism(self, cycle8):
        a = cycle8.path(0, 500, np.random.default_rng(42))
        b = cycle8.path(0, 500, np.random.default_rng(42))
        c = cycle8.path(0, 500, np.random.default_rng(43))
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_vectorised_path_matches_law(self):
        kernel = dm.make_cycle(4)
        path = kernel.path(0, 100_000, np.random.default_rng(3))
        steps = np.diff(np.concatenate([[0], path]))
        steps = (steps + 1) % 4 - 1  # wrap to {-1, 0, +1}
        assert abs(np.mean(steps == 0) - 0.5) < 0.01
        assert abs(np.mean(steps == 1) - 0.25) < 0.01


class TestKernelValidation:
    def test_rows_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            dm.matrix_kernel(np.array([[0.6, 0.6], [0.5, 0.5]]), "bad")

    def test_lazy_claim_checked_against_diagonal(self):
        with pytest.raises(ValueError, match="lazy"):
            dm.matrix_kernel(np.array([[0.2, 0.8], [0.8, 0.2]]), "bad", is_lazy=True)


SMALL_KERNELS = (
    dm.make_cycle(4),
    dm.make_two_state_uniform(),
    dm.lazify(dm.matrix_kernel(np.array([[0.3, 0.7], [0.3, 0.7]]), "skew", is_reversible=True)),
)


def second_abs_eigenvalue(matrix):
    return np.sort(np.abs(np.linalg.eigvals(matrix)))[-2]


class TestTraceChain:
    """The chain over length-T traces that the block means of ``mcmc_pro`` walk."""

    def test_degenerate_length_one_equals_base(self):
        kernel = dm.make_cycle(4)
        assert np.allclose(trace_chain_matrix(kernel.matrix, 1), kernel.matrix)

    def test_uniform_base_t2_has_quarter_entries(self):
        m = trace_chain_matrix(dm.make_two_state_uniform().matrix, 2)
        assert m.shape == (4, 4)
        assert np.allclose(m, 0.25)

    def test_enumerated_matrix_rows_and_stationarity(self):
        kernel = dm.make_cycle(4)
        m = trace_chain_matrix(kernel.matrix, 2)
        assert np.allclose(m.sum(axis=1), 1.0, atol=1e-12)
        pi = stationary_nullspace(kernel.matrix)
        states, pi_t = trace_chain_stationary(kernel.matrix, pi, 2)
        assert len(states) == m.shape[0]
        assert np.max(np.abs(pi_t @ m - pi_t)) < 1e-9
        assert abs(pi_t.sum() - 1.0) < 1e-12

    def test_stationarity_for_all_small_kernels_up_to_t4(self):
        for kernel in SMALL_KERNELS:
            pi = stationary_nullspace(kernel.matrix)
            for horizon in range(1, 5):
                _, pi_t = trace_chain_stationary(kernel.matrix, pi, horizon)
                m = trace_chain_matrix(kernel.matrix, horizon)
                assert np.max(np.abs(pi_t @ m - pi_t)) < 1e-9, (kernel.name, horizon)

    def test_eigenvalue_bound_is_powered(self):
        # mcmc_pro schedules blocks of length T on lambda**T
        for kernel in SMALL_KERNELS:
            lam = second_abs_eigenvalue(kernel.matrix)
            for horizon in range(1, 5):
                traced = second_abs_eigenvalue(trace_chain_matrix(kernel.matrix, horizon))
                assert traced <= lam ** horizon + 1e-6, (kernel.name, horizon)


class TestLiftToTraceAverage:
    """Averaging f along a stationary trace keeps the stationary mean."""

    def test_exact_expectation_under_trace_law(self):
        kernel = dm.make_cycle(4)
        f = dm.indicator_function([1, 2])
        pi = stationary_nullspace(kernel.matrix)
        fvals = f.values(np.arange(4))
        mean = enumerate_trace_mean(kernel.matrix, pi, fvals, 3)
        assert mean == pytest.approx(0.5, abs=1e-9)

    def test_expectation_matches_stationary_mean_on_small_kernels(self, registry):
        for name, kernel, f in registry:
            n = kernel.matrix.shape[0]
            for horizon in (2, 3):
                if n ** horizon > 100_000:
                    continue
                pi = stationary_nullspace(kernel.matrix)
                fvals = f.values(np.arange(n))
                lifted_mean = enumerate_trace_mean(kernel.matrix, pi, fvals, horizon)
                assert lifted_mean == pytest.approx(float(pi @ fvals), abs=1e-9), name


class TestScalarFunctionRange:
    def test_fn_raises(self):
        f = dm.ScalarFunction(lambda xs: np.full(len(xs), 2.0), lo=0.0, hi=1.0, name="g")
        with pytest.raises(ValueError, match=r"left its declared range \[0.0, 1.0\]: got values in \[2.0, 2.0\]"):
            f(0)
        with pytest.raises(ValueError, match="left its declared range"):
            f.values([0, 1])

    def test_batch_raises(self):
        f = dm.ScalarFunction(lambda xs: np.full(len(xs), -1.0), lo=0.0, hi=1.0)
        with pytest.raises(ValueError, match="left its declared range"):
            f.values(np.arange(3))

    def test_check_survives_optimized_mode(self):
        code = (
            "import dynamite as dm\n"
            "f = dm.ScalarFunction(lambda xs: xs * 0.0 + 2.0, lo=0.0, hi=1.0)\n"
            "try:\n    f(0)\nexcept ValueError:\n    print('raised')\n"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "raised"


class TestCycle:
    def test_row_for_state_zero(self):
        kernel = dm.make_cycle(4)
        assert np.allclose(kernel.matrix[0], [0.5, 0.25, 0.0, 0.25])

    def test_uniform_stationary_distribution(self):
        for n in (3, 5, 8):
            pi = stationary_nullspace(dm.make_cycle(n).matrix)
            assert np.allclose(pi, 1.0 / n, atol=1e-10)

    def test_relaxation_time_quadratic_window(self):
        n = 8
        kernel = dm.make_cycle(n)
        eigs = np.sort(np.abs(np.linalg.eigvals(kernel.matrix)))[::-1]
        tau_rel = 1.0 / (1.0 - eigs[1])
        assert n * n / 20 <= tau_rel <= 5 * n * n

    def test_rejects_tiny_cycles(self):
        with pytest.raises(ValueError):
            dm.make_cycle(2)


class TestCycleFunction:
    def test_block_values_n8_i2(self):
        f = dm.make_cycle_function(8, 2)
        # residues 0 and 1 mod 4 sit in the zero block
        assert [f(s) for s in range(8)] == [0, 0, 1, 1, 0, 0, 1, 1]
        assert [f(s) for s in (1, 2, 3, 4, 5, 6, 7, 0)] == [0, 1, 1, 0, 0, 1, 1, 0]

    def test_alternating_by_parity(self):
        f = dm.make_cycle_function(8, 1)
        assert [f(s) for s in range(8)] == [0, 1, 0, 1, 0, 1, 0, 1]

    def test_exact_mean_half_and_variance_quarter(self):
        for n, i in ((4, 1), (4, 2), (6, 3), (8, 2), (16, 8)):
            f = dm.make_cycle_function(n, i)
            vals = f.values(np.arange(n))
            assert vals.mean() == pytest.approx(0.5, abs=1e-15)
            assert vals.var() == pytest.approx(0.25, abs=1e-15)

    def test_rejects_nondividing_width(self):
        with pytest.raises(ValueError, match="divide"):
            dm.make_cycle_function(8, 3)
        with pytest.raises(ValueError):
            dm.make_cycle_function(8, 5)


class TestProjectChain:
    def test_parity_projection_of_cycle8(self):
        projected = dm.project_chain(dm.make_cycle(8), dm.mod_partition(8, 2))
        assert np.allclose(projected.matrix, [[0.5, 0.5], [0.5, 0.5]])

    def test_mod4_projection_is_a_4_cycle(self):
        projected = dm.project_chain(dm.make_cycle(8), dm.mod_partition(8, 4))
        assert np.allclose(projected.matrix, dm.make_cycle(4).matrix)

    def test_trivial_partition(self):
        projected = dm.project_chain(dm.make_cycle(5), [list(range(5))])
        assert np.allclose(projected.matrix, [[1.0]])

    def test_nonlumpable_partition_names_the_pair(self):
        with pytest.raises(GuardError, match=r"states 2 and 3"):
            dm.project_chain(dm.make_cycle(8), [[0, 1], [2, 3, 4, 5, 6, 7]])

    def test_every_block_width_partition_is_lumpable(self):
        for n in (4, 6, 8, 12, 16):
            for i in range(1, n // 2 + 1):
                if n % (2 * i) == 0:
                    dm.project_chain(dm.make_cycle(n), dm.mod_partition(n, 2 * i))

    def test_projected_function(self):
        f = dm.make_cycle_function(8, 2)
        blocks = dm.mod_partition(8, 4)
        induced = dm.project_function(f, blocks)
        assert [induced(c) for c in range(4)] == [0, 0, 1, 1]


class TestLazify:
    def test_matrix_and_bound(self):
        base = dm.matrix_kernel(np.array([[0.3, 0.7], [0.3, 0.7]]), "skew", is_reversible=True)
        lazy = dm.lazify(base)
        assert np.allclose(lazy.matrix, [[0.65, 0.35], [0.15, 0.85]])
        assert lazy.is_lazy and lazy.is_reversible

    def test_path_follows_lazified_matrix(self):
        lazy = dm.lazify(dm.matrix_kernel(np.array([[0.3, 0.7], [0.3, 0.7]]), "skew"))
        path = np.asarray(lazy.path(0, 20_000, np.random.default_rng(8)))
        prev = np.concatenate([[0], path[:-1]])
        for s in (0, 1):
            moved = np.mean(path[prev == s] != s)
            assert abs(moved - (1.0 - lazy.matrix[s, s])) < 0.03, s
