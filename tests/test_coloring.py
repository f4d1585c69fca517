import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dynamite as dm
from dynamite.coloring import coloring_space_size, enumerate_colorings, render_decimal
from dynamite.errors import GuardError, StatisticalFailure

TRIANGLE = dm.Graph(3, ((0, 1), (1, 2), (0, 2)))
PATH3 = dm.Graph(3, ((0, 1), (1, 2)))
C4 = dm.Graph(4, ((0, 1), (1, 2), (2, 3), (3, 0)))
TWO_TRIANGLES = dm.Graph(6, ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)))


class TestGraph:
    def test_rejects_self_loops_and_range(self):
        with pytest.raises(ValueError, match="self-loop"):
            dm.Graph(3, ((1, 1),))
        with pytest.raises(ValueError, match="outside"):
            dm.Graph(3, ((0, 3),))

    def test_deduplicates_and_symmetrises(self):
        g = dm.Graph(3, ((1, 0), (0, 1), (1, 2)))
        assert g.edges == ((0, 1), (1, 2))
        assert g.adjacency[1] == (0, 2)

    def test_degree_and_degeneracy(self):
        assert C4.d_max == 2 and C4.degeneracy() == 2
        assert PATH3.d_max == 2 and PATH3.degeneracy() == 1
        assert dm.Graph(4, ((0, 1), (0, 2), (0, 3))).d_max == 3
        assert dm.Graph(4, ((0, 1), (0, 2), (0, 3))).degeneracy() == 1

    def test_json_roundtrip(self):
        payload = C4.to_json()
        assert payload == {"n": 4, "edges": [[0, 1], [1, 2], [2, 3], [0, 3]]}
        assert dm.Graph.from_json(json.loads(json.dumps(payload))) == C4


class TestIsProper:
    def test_triangle_cases(self):
        assert dm.is_proper(TRIANGLE, [1, 2, 3])
        assert not dm.is_proper(TRIANGLE, [1, 1, 2])

    def test_empty_graph(self):
        assert dm.is_proper(dm.Graph(3, ()), [1, 1, 1])

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError, match="assign"):
            dm.is_proper(TRIANGLE, [1, 2])
        with pytest.raises(ValueError, match="exceeds"):
            dm.is_proper(TRIANGLE, [1, 2, 5], k=4)


class TestGlauberStep:
    def test_blocked_and_noop_moves(self):
        # from (1, 2) with k=3 each of the 6 (vertex, color) proposals has mass 1/6:
        # the own color and the neighbour's color hold (4/6), the free color 3 moves
        path2 = dm.Graph(2, ((0, 1),))
        states, matrix = dm.exact_glauber_matrix(path2, 3, lazy=False)
        row = matrix[states.index((1, 2))]
        reached = {s: p for s, p in zip(states, row) if p > 0}
        assert reached == pytest.approx({(1, 2): 4 / 6, (3, 2): 1 / 6, (1, 3): 1 / 6})

    def test_rejects_improper_input(self):
        with pytest.raises(ValueError, match="proper"):
            dm.glauber_kernel(TRIANGLE, 3).check_start([1, 1, 2])

    def test_empirical_row_matches_exact_kernel(self):
        path2 = dm.Graph(2, ((0, 1),))
        states, matrix = dm.exact_glauber_matrix(path2, 3, lazy=True)
        row = matrix[states.index((1, 2))]
        start = np.array([1, 2])
        path = dm.glauber_kernel(path2, 3).path(start, 300_000, np.random.default_rng(123))
        prev = np.concatenate([start[None, :], path[:-1]])
        landed = path[np.all(prev == start, axis=1)]
        assert len(landed) > 30_000
        for idx, state in enumerate(states):
            freq = np.mean(np.all(landed == state, axis=1))
            assert abs(freq - row[idx]) < 0.01, state

    def test_properness_preserved_under_fuzz(self):
        g = dm.Graph(8, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 0), (0, 4), (2, 6)))
        k = g.d_max + 2
        kernel = dm.glauber_kernel(g, k)
        start = dm.greedy_coloring(g, k)
        path = kernel.path(start, 1_000_000, np.random.default_rng(0))
        for u, v in g.edges:
            assert np.all(path[:, u] != path[:, v])
        assert path.min() >= 1 and path.max() <= k


class TestExactKernel:
    def test_reversibility_wrt_uniform(self):
        for graph, k in ((PATH3, 3), (dm.Graph(2, ((0, 1),)), 3), (C4, 3)):
            states, matrix = dm.exact_glauber_matrix(graph, k, lazy=True)
            assert len(states) == dm.brute_force_count(graph, k)
            # uniform stationary law makes detailed balance plain symmetry
            assert np.max(np.abs(matrix - matrix.T)) < 1e-12
            assert np.allclose(matrix.sum(axis=1), 1.0, atol=1e-12)


class TestBruteForce:
    def test_known_counts(self):
        assert dm.brute_force_count(TRIANGLE, 3) == 6
        assert dm.brute_force_count(PATH3, 3) == 3 * 2 * 2
        assert dm.brute_force_count(C4, 3) == 18
        assert dm.brute_force_count(C4, 3) == (3 - 1) ** 4 + (3 - 1)

    def test_enumeration_agrees_with_count(self):
        assert len(list(enumerate_colorings(C4, 3))) == 18

    def test_guard(self):
        with pytest.raises(GuardError, match="guarded"):
            dm.brute_force_count(dm.Graph(40, ()), 3)


class TestPhaseSequence:
    def test_edgeless_graph_has_no_phases(self):
        assert dm.build_phase_sequence(dm.Graph(5, ())) == []

    def test_single_edge(self):
        phases = dm.build_phase_sequence(dm.Graph(2, ((0, 1),)))
        assert len(phases) == 1
        assert phases[0].sampling_graph.edges == ()
        assert phases[0].edge == (0, 1)

    def test_triangle_growth(self):
        phases = dm.build_phase_sequence(TRIANGLE)
        sizes = [len(p.sampling_graph.edges) for p in phases]
        assert sizes == [0, 1, 2]

    def test_phases_share_one_edge_order(self):
        # one shared order tuple, not a stored graph per phase: O(#E) memory
        path2000 = dm.Graph(2001, tuple((i, i + 1) for i in range(2000)))
        tracemalloc.start()
        try:
            phases = dm.build_phase_sequence(path2000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(phases) == 2000
        assert all(p.order is phases[0].order for p in phases)
        assert peak < 4 * 2 ** 20, peak
        assert phases[-1].sampling_graph.edges == path2000.edges[:-1]

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError, match="permutation"):
            dm.build_phase_sequence(C4, edge_order=[(0, 1)])


class TestTelescoping:
    @pytest.mark.parametrize("graph,k", [(TRIANGLE, 3), (PATH3, 3), (C4, 3)])
    def test_exact_ratios_telescope(self, graph, k):
        ratios = dm.exact_phase_ratios(graph, k)
        product = Fraction(k ** graph.n)
        for r in ratios:
            product *= r
        assert product == dm.brute_force_count(graph, k)

    def test_phase_mean_equals_count_ratio(self):
        for phase in dm.build_phase_sequence(C4):
            hits = 0
            total = 0
            for coloring in enumerate_colorings(phase.sampling_graph, 3):
                total += 1
                hits += int(coloring[phase.edge[0]] != coloring[phase.edge[1]])
            with_edge = dm.Graph(4, phase.sampling_graph.edges + (phase.edge,))
            assert Fraction(hits, total) == Fraction(
                dm.brute_force_count(with_edge, 3), dm.brute_force_count(phase.sampling_graph, 3)
            )


class TestErgodicityFloor:
    def test_floor_values(self):
        assert dm.ergodicity_floor(C4) == 3
        assert dm.ergodicity_floor(dm.Graph(2, ((0, 1),))) == 2
        assert dm.ergodicity_floor(TWO_TRIANGLES) == 4
        assert dm.ergodicity_floor(TRIANGLE) == 3

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_floor_is_max_over_phase_graphs(self, data):
        n = data.draw(st.integers(min_value=2, max_value=7))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = data.draw(st.lists(st.sampled_from(pairs), unique=True))
        graph = dm.Graph(n, tuple(edges))
        order = data.draw(st.permutations(graph.edges))
        phases = dm.build_phase_sequence(graph, order)
        expected = max((p.sampling_graph.degeneracy() for p in phases), default=-1) + 2
        assert dm.ergodicity_floor(graph, order) == expected

    def test_pipeline_refuses_below_floor(self):
        with pytest.raises(GuardError, match="ergodicity floor"):
            dm.jvv_count(TWO_TRIANGLES, 3, 0.25, 0.25, seed=0)
        with pytest.raises(GuardError, match="ergodicity floor"):
            dm.jvv_count(TRIANGLE, 2, 0.25, 0.25, seed=0)


class TestJvvCount:
    def test_edgeless_graph_counts_exactly(self):
        result = dm.jvv_count(dm.Graph(3, ()), 3, 0.25, 0.25, seed=0)
        assert result.total_steps == 0
        assert result.estimate == "27"
        assert math.exp(result.log_count) == pytest.approx(27.0)

    def test_single_edge_quick_envelope(self):
        hits = 0
        for seed in range(10):
            result = dm.jvv_count(dm.Graph(2, ((0, 1),)), 2, 0.25, 0.25, seed=seed)
            hits += abs(math.exp(result.log_count) - 2.0) / 2.0 <= 0.3
        assert hits >= 9

    def test_static_estimator_variant(self):
        result = dm.jvv_count(dm.Graph(2, ((0, 1),)), 2, 0.25, 0.25, estimator="static-hoeffding", seed=1)
        assert result.estimator == "static-hoeffding"
        assert abs(math.exp(result.log_count) - 2.0) / 2.0 <= 0.3
        assert result.phases[0].report is None

    def test_lambda_default_disclosed(self):
        result = dm.jvv_count(dm.Graph(2, ((0, 1),)), 2, 0.25, 0.25, seed=0)
        assert result.lambda_defaulted
        explicit = dm.jvv_count(dm.Graph(2, ((0, 1),)), 2, 0.25, 0.25, seed=0, lambda_bound=0.875)
        assert not explicit.lambda_defaulted
        assert explicit.lambda_bound == pytest.approx(0.9375)  # lazified

    def test_nonpositive_ratio_aborts(self, monkeypatch):
        import dynamite.coloring as coloring_mod

        def fake_warm_start(*args, **kwargs):
            real = dm.warm_start(*args, **kwargs)
            object.__setattr__(real, "estimate", 0.0)
            return real

        monkeypatch.setattr(coloring_mod, "warm_start", fake_warm_start)
        with pytest.raises(StatisticalFailure, match="ratio"):
            dm.jvv_count(dm.Graph(2, ((0, 1),)), 2, 0.25, 0.25, seed=0)

    def test_log_space_rendering_reproduces_linear(self):
        result = dm.jvv_count(C4, 3, 0.25, 0.25, seed=3)
        linear = math.exp(result.log_count)
        assert abs(float(result.estimate) - linear) / linear < 1e-9


class TestSizeGuard:
    def test_representable_sizes_are_exact(self):
        assert coloring_space_size(460, 4) == float(4) ** 460
        assert coloring_space_size(1023, 2) == 2.0 ** 1023
        assert coloring_space_size(0, 7) == 1.0

    def test_unrepresentable_size_is_refused(self):
        with pytest.raises(GuardError, match="n ln k"):
            coloring_space_size(1024, 2)

    def test_counter_refuses_before_sampling(self, monkeypatch):
        path460 = dm.Graph(460, tuple((i, i + 1) for i in range(459)))

        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before the size guard")

        monkeypatch.setattr(dm.TransitionKernel, "path", no_sampling)
        for estimator in ("dynamite", "static-hoeffding"):
            with pytest.raises(GuardError, match="n ln k = 740.3"):
                dm.jvv_count(path460, 5, 0.25, 0.25, estimator=estimator)


class TestRenderDecimal:
    def test_small_counts_render_plainly(self):
        assert render_decimal(math.log(18.0)) == "18"
        assert render_decimal(-math.inf) == "0"

    def test_huge_counts_render_scientifically(self):
        log_count = 1000 * math.log(7)  # 7^1000
        text = render_decimal(log_count)
        mantissa, exponent = text.split("e+")
        assert int(exponent) == math.floor(1000 * math.log10(7))
        assert 1.0 <= float(mantissa) < 10.0


class TestGreedyColoring:
    def test_produces_proper_colorings(self):
        for graph, k in ((C4, 3), (TWO_TRIANGLES, 4), (PATH3, 3)):
            coloring = dm.greedy_coloring(graph, k)
            assert dm.is_proper(graph, coloring, k)

    def test_fails_loudly_when_colors_run_out(self):
        with pytest.raises(GuardError, match="greedy"):
            dm.greedy_coloring(TRIANGLE, 2)
