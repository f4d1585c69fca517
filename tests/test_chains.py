import dataclasses
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dynamite as dm
from dynamite.chains import CHUNK

from _oracles import (
    enumerate_trace_mean,
    reference_cycle_path,
    stationary_nullspace,
    trace_chain_matrix,
    trace_chain_stationary,
)

SRC = str(Path(__file__).resolve().parents[1] / "src")


class TestPath:
    def test_identity_chain_is_absorbing(self):
        path = dm.matrix_kernel(np.eye(4), "identity-4").path(2, 3, np.random.default_rng(0))
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


def _recording(kernel):
    """``kernel`` with a sampler that keeps every path it returns, in order."""
    pieces = []

    def sample_path(state, k, rng):
        pieces.append(kernel.sample_path(state, k, rng))
        return pieces[-1]

    return dataclasses.replace(kernel, sample_path=sample_path), pieces


def _cycle_input(rng):
    # irregular values make the summation order show in the last bits
    table = rng.random(16)
    irregular = dm.ScalarFunction(lambda xs: table[xs], lo=0.0, hi=1.0, name="irregular")
    return dm.make_cycle(16), 3, (irregular, dm.make_cycle_function(16, 2))


P4 = dm.Graph(4, ((0, 1), (1, 2), (2, 3)))


def _glauber_input(rng):
    table = rng.random((6, 6))
    pairwise = dm.ScalarFunction(lambda xs: table[xs[:, 0], xs[:, 2]], lo=0.0, hi=1.0, name="pairwise")
    return dm.glauber_kernel(P4, 5), dm.greedy_coloring(P4, 5), (pairwise,)


class TestAdvance:
    """``advance`` walks in spans of whole blocks and averages each block on one row."""

    @pytest.mark.parametrize("t", (1, 18, 42, CHUNK - 1, CHUNK + 1))
    @pytest.mark.parametrize("make", (_cycle_input, _glauber_input))
    def test_block_means_equal_whole_path_means_bit_for_bit(self, t, make):
        rows = max(1, CHUNK // t)
        for blocks in (1, rows, 2 * rows + 1):
            rng = np.random.default_rng(t + blocks)
            kernel, start, functions = make(rng)
            for f in functions:
                recording, pieces = _recording(kernel)
                last, means = recording.advance(start, blocks * t, rng, f, t)
                assert all(len(p) % t == 0 and len(p) <= max(CHUNK, t) for p in pieces)
                path = np.concatenate(pieces)
                assert np.array_equal(last, path[-1])
                expected = f.values(path).reshape(blocks, t).mean(axis=1)
                assert means.tobytes() == expected.tobytes(), (f.name, t, blocks)

    def test_blocks_longer_than_chunk_match_one_whole_path(self):
        t = CHUNK + 1
        for seed in (0, 1):
            kernel, start, functions = _cycle_input(np.random.default_rng(seed))
            for f in functions:
                rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
                last, means = kernel.advance(start, 3 * t, rng_a, f, t)
                path = kernel.path(start, 3 * t, rng_b)
                assert means.tobytes() == f.values(path).reshape(3, t).mean(axis=1).tobytes(), f.name
                assert last == path[-1]
                assert rng_a.random() == rng_b.random()

    def test_range_is_checked_in_the_last_piece(self):
        t = 18
        steps = (2 * (CHUNK // t) + 1) * t
        counter = dm.TransitionKernel("counter", lambda s, k, rng: np.arange(s + 1, s + k + 1))
        last_doubled = dm.ScalarFunction(lambda xs: 2.0 * (xs == steps), lo=0.0, hi=1.0, name="last-doubled")
        with pytest.raises(ValueError, match="left its declared range"):
            counter.advance(0, steps, None, last_doubled, t)

    def test_steps_must_be_whole_blocks(self, cycle8, cycle8_f1):
        for steps, block in ((10, 3), (5, 0), (-2, 1)):
            with pytest.raises(ValueError, match="whole blocks"):
                cycle8.advance(0, steps, np.random.default_rng(0), cycle8_f1, block)

    def test_no_steps_returns_the_checked_start(self, cycle8):
        assert cycle8.advance(5, 0, None) == (5, None)
        with pytest.raises(ValueError, match="start state"):
            cycle8.advance(8, 0, None)

    @given(
        st.sampled_from(("cycle", "matrix")),
        st.sampled_from((1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 5)),  # around the piece boundaries
        st.integers(0, 2 ** 32 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_last_state_and_generator_match_one_path(self, which, steps, seed):
        # the matrix kernel's rows differ, so it walks one uniform per step in Python
        kernel = dm.make_cycle(7) if which == "cycle" else dm.matrix_kernel(dm.make_cycle(5).matrix, "cycle5-matrix")
        rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
        last, means = kernel.advance(2, steps, rng_a)
        assert means is None
        assert last == kernel.path(2, steps, rng_b)[-1]
        assert rng_a.random() == rng_b.random()

    def test_memory_does_not_grow_with_the_steps(self):
        kernel, start, (f,) = _glauber_input(np.random.default_rng(0))

        def peak(steps, fn=None, block=1):
            tracemalloc.start()
            try:
                _, means = kernel.advance(start, steps, np.random.default_rng(1), fn, block)
                _, top = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            return top - (0 if means is None else means.nbytes)

        warm = [peak(4 * CHUNK), peak(32 * CHUNK)]
        assert abs(warm[1] - warm[0]) <= 64 * 2 ** 10, warm
        for steps in (4 * CHUNK, 32 * CHUNK):
            assert peak(steps, f, 64) < 4 * 2 ** 20


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
    dm.matrix_kernel(
        0.5 * (np.eye(2) + [[0.3, 0.7], [0.3, 0.7]]), "lazy(skew)", is_lazy=True, is_reversible=True
    ),
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

    @given(
        st.integers(3, 64),
        st.data(),
        st.sampled_from((0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 5)),  # around advance's pieces
        st.integers(0, 2 ** 32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_path_replays_the_unblocked_walk(self, n, data, steps, seed):
        start = data.draw(st.integers(0, n - 1))
        ref_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
        expected = reference_cycle_path(n, start, steps, ref_rng)
        path = dm.make_cycle(n).path(start, steps, rng)
        assert path.dtype == np.int32 and path.shape == (steps,)
        assert np.array_equal(path, expected)
        assert rng.random() == ref_rng.random()


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

    def test_table_matches_the_residue_rule_on_every_state(self):
        for n in range(2, 33):
            for i in range(1, n // 2 + 1):
                if n % (2 * i) == 0:
                    states = np.arange(n)
                    expected = ((states % (2 * i)) >= i).astype(float)
                    assert np.array_equal(dm.make_cycle_function(n, i).values(states), expected), (n, i)

    def test_states_outside_the_cycle_are_refused(self):
        # -1 must not wrap to the last table entry, and n must not be reduced mod 2i
        f = dm.make_cycle_function(8, 2)
        for bad in (-1, 8):
            with pytest.raises(ValueError, match=r"states must lie in 0\.\.7"):
                f(bad)
            with pytest.raises(ValueError, match="states must lie in"):
                f.values(np.array([0, 3, bad, 5], dtype=np.int32))

    def test_rejects_nondividing_width(self):
        with pytest.raises(ValueError, match="divide"):
            dm.make_cycle_function(8, 3)
        with pytest.raises(ValueError):
            dm.make_cycle_function(8, 5)
