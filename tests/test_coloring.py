import itertools
import json
import math
import re
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import dynamite as dm
from _oracles import reference_glauber_path, reference_peel
from dynamite.coloring import (
    _jerrum_last_edge,
    _marginal_lambda,
    coloring_lambda,
    coloring_space_size,
    enumerate_colorings,
    render_decimal,
)
from dynamite.errors import GuardError, StatisticalFailure
from dynamite.spectral import MATRIX_CAP

TRIANGLE = dm.Graph(3, ((0, 1), (1, 2), (0, 2)))
PATH3 = dm.Graph(3, ((0, 1), (1, 2)))
C4 = dm.Graph(4, ((0, 1), (1, 2), (2, 3), (3, 0)))
TWO_TRIANGLES = dm.Graph(6, ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)))
EDGE = dm.Graph(2, ((0, 1),))
PATH_LENGTHS = (0, 1, 4095, 4096, 4097, 12293)  # short, and long enough for many moves per vertex


@st.composite
def small_graphs(draw, max_n=7):
    n = draw(st.integers(min_value=2, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return dm.Graph(n, tuple(draw(st.lists(st.sampled_from(pairs), unique=True))))


def no_sampling(*args, **kwargs):
    raise AssertionError("sampled before the guard")


def replayed_path(graph, k, steps, seed, vertices=None):
    """(start, path) of the sampler on ``vertices`` (None: all), checked against the per-step loop.

    The path must be the loop's on those columns, and both generators must end in the same place.
    """
    start = dm.greedy_coloring(graph, k)
    columns = list(range(graph.n)) if vertices is None else vertices
    ref_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
    expected = reference_glauber_path(graph, k, start, steps, ref_rng)[:, columns]
    path = dm.glauber_kernel(graph, k, vertices).path(start[columns], steps, rng)
    assert path.dtype == expected.dtype and path.shape == expected.shape
    assert np.array_equal(path, expected)
    assert rng.random() == ref_rng.random()
    return start[columns], path


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

    @given(small_graphs())
    @settings(max_examples=150, deadline=None)
    def test_peel_matches_linear_scan(self, graph):
        order, best = reference_peel(graph)
        assert graph.degeneracy_order() == order
        assert graph.degeneracy() == best

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

    @given(small_graphs(), st.integers(0, 3), st.sampled_from(PATH_LENGTHS), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_path_replays_the_per_step_loop(self, graph, extra, steps, seed):
        replayed_path(graph, graph.degeneracy() + 1 + extra, steps, seed)

    @pytest.mark.parametrize("graph, k", [(dm.Graph(1, ()), 1), (EDGE, 2)])
    @pytest.mark.parametrize("steps", PATH_LENGTHS)
    def test_frozen_chain_replays_the_per_step_loop(self, graph, k, steps):
        # no proposal changes a color here, so every column is one run of its start color
        start, path = replayed_path(graph, k, steps, seed=steps)
        assert np.all(path == start)

    @pytest.mark.parametrize("graph, vertices", [
        (dm.Graph(4, ()), None),  # no vertex has a neighbour, so Python walks no proposal
        (dm.Graph(5, ((1, 3),)), [4, 1, 3]),  # the first column has no neighbour, the others do
    ])
    @pytest.mark.parametrize("steps", PATH_LENGTHS)
    def test_vertices_without_neighbours_replay_the_per_step_loop(self, graph, vertices, steps):
        replayed_path(graph, 3, steps, seed=steps, vertices=vertices)

    @pytest.mark.parametrize("seed, moved", [(0, 1), (17, 2)])  # vertex 1 has a neighbour, vertex 2 has none
    def test_accepted_move_at_step_zero(self, seed, moved):
        start, path = replayed_path(dm.Graph(3, ((0, 1),)), 3, 4097, seed)
        assert np.flatnonzero(path[0] != start).tolist() == [moved]

    @given(small_graphs(), st.integers(0, 2), st.sampled_from(PATH_LENGTHS), st.integers(0, 2 ** 32 - 1), st.data())
    @settings(max_examples=60, deadline=None)
    def test_marginal_path_is_the_whole_path_on_its_vertices(self, graph, extra, steps, seed, data):
        components = sorted({graph.components_of([v]) for v in range(graph.n)})
        assume(len(components) >= 2)
        chosen = data.draw(st.lists(st.sampled_from(components), min_size=1, unique=True))
        vertices = data.draw(st.permutations([v for c in chosen for v in c]))  # states follow this order
        k = graph.degeneracy() + 1 + extra
        start = dm.greedy_coloring(graph, k)
        whole_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
        whole = dm.glauber_kernel(graph, k).path(start, steps, whole_rng)
        path = dm.glauber_kernel(graph, k, vertices).path(start[vertices], steps, rng)
        assert path.dtype == whole.dtype and path.shape == (steps, len(vertices))
        assert np.array_equal(path, whole[:, vertices])
        assert rng.random() == whole_rng.random()

    @pytest.mark.parametrize("vertices, message", [
        ([0], "union of connected components"),
        ([0, 1, 2, 3], "union of connected components"),
        ([3, 4, 5, 0, 1], "union of connected components"),
        ([0, 1, 2, 2], "distinct"),
        ([0, 1, 2, 6], "distinct"),
        ([-1], "distinct"),
    ])
    def test_vertices_that_are_not_whole_components_are_refused(self, vertices, message):
        with pytest.raises(ValueError, match=message):
            dm.glauber_kernel(TWO_TRIANGLES, 4, vertices)

    def test_marginal_start_is_checked_on_its_vertices(self):
        kernel = dm.glauber_kernel(TWO_TRIANGLES, 4, [5, 3, 4])
        kernel.check_start([1, 2, 3])
        for improper in ([1, 1, 2], [1, 2, 3, 4]):
            with pytest.raises(ValueError):
                kernel.check_start(improper)

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
    def test_oversize_graph_is_refused_before_full_enumeration(self):
        # 5^9 = 1,953,125 proper colorings: enumerating all of them would take seconds
        started = time.perf_counter()
        with pytest.raises(GuardError, match="capped at 4096"):
            dm.exact_glauber_matrix(dm.Graph(9, ()), 5)
        assert time.perf_counter() - started < 1.0

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


class TestPhaseWalk:
    @staticmethod
    def kernel_calls(monkeypatch, graph):
        """(sampling-graph size, support) of every kernel one count builds."""
        import dynamite.coloring as coloring_mod

        calls, real = [], coloring_mod.glauber_kernel

        def recording(sampling_graph, k, vertices=None):
            calls.append((len(sampling_graph.edges), tuple(vertices)))
            return real(sampling_graph, k, vertices)

        monkeypatch.setattr(coloring_mod, "glauber_kernel", recording)
        dm.jvv_count(graph, 5, 0.9, 0.9, estimator="static-hoeffding", seed=0)
        return calls

    def test_triangle_phases_grow_by_one_edge(self, monkeypatch):
        assert self.kernel_calls(monkeypatch, TRIANGLE) == [(0, (0, 1)), (1, (0, 1, 2)), (2, (0, 1, 2))]

    def test_each_phase_supports_its_edge_components(self, monkeypatch):
        # phase 3's edge joins two 2-vertex components of the sampling graph
        c4 = dm.Graph(4, ((2, 3), (0, 1), (1, 2), (0, 3)))
        assert self.kernel_calls(monkeypatch, c4) == [(0, (2, 3)), (1, (0, 1)), (2, (0, 1, 2, 3)), (3, (0, 1, 2, 3))]
        monkeypatch.undo()
        assert self.kernel_calls(monkeypatch, TWO_TRIANGLES) == list(zip(range(6), [
            (0, 1), (0, 1, 2), (0, 1, 2), (3, 4), (3, 4, 5), (3, 4, 5),
        ]))

    def test_edgeless_graph_builds_no_kernel(self, monkeypatch):
        assert self.kernel_calls(monkeypatch, dm.Graph(5, ())) == []


class TestTelescoping:
    @pytest.mark.parametrize("graph,k,order", [
        (TRIANGLE, 3, None), (PATH3, 3, None), (C4, 3, None), (C4, 3, ((3, 0), (1, 2), (0, 1), (2, 3))),
    ])
    def test_exact_ratios_telescope(self, graph, k, order):
        ratios = dm.exact_phase_ratios(graph, k, order)
        assert len(ratios) == len(graph.edges)
        product = Fraction(k ** graph.n)
        for r in ratios:
            product *= r
        assert product == dm.brute_force_count(graph, k)

    def test_ratios_refuse_a_non_permutation(self):
        with pytest.raises(ValueError, match="permutation"):
            dm.exact_phase_ratios(C4, 3, edge_order=[(0, 1)])

    def test_phase_mean_equals_count_ratio(self):
        for i, (u, v) in enumerate(C4.edges):
            sampling_graph = dm.Graph(4, C4.edges[:i])
            colorings = list(enumerate_colorings(sampling_graph, 3))
            hits = sum(coloring[u] != coloring[v] for coloring in colorings)
            assert Fraction(hits, len(colorings)) == Fraction(
                dm.brute_force_count(dm.Graph(4, C4.edges[:i + 1]), 3), dm.brute_force_count(sampling_graph, 3)
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
        graph = data.draw(small_graphs())
        order = data.draw(st.permutations(graph.edges))
        expected = max((dm.Graph(graph.n, order[:i]).degeneracy() for i in range(len(order))), default=-1) + 2
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
        (phase,) = dm.jvv_count(dm.Graph(2, ((0, 1),)), 2, 0.25, 0.25, seed=0).phases
        assert (phase.lambda_source, phase.lambda_bound) == ("jerrum", 0.75)  # edgeless: 1 - 1/n, lazified
        (explicit,) = dm.jvv_count(dm.Graph(2, ((0, 1),)), 2, 0.25, 0.25, seed=0, lambda_bound=0.875).phases
        assert explicit.lambda_source == "caller"
        assert explicit.lambda_bound == pytest.approx(0.9375)  # lazified
        assert explicit.to_json()["lambda_source"] == "caller"

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
        monkeypatch.setattr(dm.TransitionKernel, "path", no_sampling)
        for estimator in ("dynamite", "static-hoeffding"):
            with pytest.raises(GuardError, match="n ln k = 740.3"):
                dm.jvv_count(path460, 5, 0.25, 0.25, estimator=estimator)

    def test_colors_beyond_int16_are_refused_before_sampling(self, monkeypatch):
        path = dm.glauber_kernel(EDGE, 32767).path([1, 2], 1000, np.random.default_rng(0))
        assert path.dtype == np.int16 and path.min() >= 1 and path.max() <= 32767
        monkeypatch.setattr(dm.TransitionKernel, "path", no_sampling)
        with pytest.raises(GuardError, match="int16"):
            dm.glauber_kernel(EDGE, 32768)
        for estimator in ("dynamite", "static-hoeffding"):
            with pytest.raises(GuardError, match="int16"):
                dm.jvv_count(EDGE, 40000, 0.25, 0.25, estimator=estimator)


def second_absolute_eigenvalue(graph, k):
    _, matrix = dm.exact_glauber_matrix(graph, k)
    moduli = np.sort(np.abs(np.linalg.eigvalsh(matrix)))
    return float(moduli[-2]) if len(moduli) > 1 else 0.0


def star(leaves):
    return dm.Graph(leaves + 1, tuple((0, v) for v in range(1, leaves + 1)))


def lumped_second_eigenvalue(graph, k, support):
    """Second eigenvalue of the whole lazy chain lumped onto the colors of ``support``."""
    states, matrix = dm.exact_glauber_matrix(graph, k, lazy=True)
    keys = [tuple(s[v] for v in support) for s in states]
    classes = sorted(set(keys))
    of = np.array([classes.index(key) for key in keys])
    lumped = matrix @ (of[:, None] == np.arange(len(classes)))
    firsts = [int(np.flatnonzero(of == c)[0]) for c in range(len(classes))]
    assert np.allclose(lumped, lumped[firsts][of], atol=1e-12)  # each class moves alike: the lumping is a chain
    return float(np.sort(np.linalg.eigvals(lumped[firsts]).real)[-2])


def small_supports(draw, graph):
    return graph.components_of(draw(st.sets(st.integers(0, graph.n - 1), min_size=1)))


class TestColoringLambda:
    def test_no_source_applies_below_jerrum_without_a_support(self):
        assert coloring_lambda(C4, 3) is None
        assert coloring_lambda(C4, 3, support=range(4))[1] == "exact"

    def test_caller_bound_is_lazified(self):
        assert coloring_lambda(C4, 3, 0.9) == (0.5 * (1.0 + 0.9), "caller")

    def test_jerrum_bound_from_k_at_least_twice_the_max_degree_plus_one(self):
        assert coloring_lambda(C4, 5) == (0.5 * (1.0 + (1.0 - 1.0 / 20)), "jerrum")
        assert coloring_lambda(dm.Graph(4, ()), 1) == (0.5 * (1.0 + 0.75), "jerrum")

    @given(small_graphs(), st.integers(min_value=0, max_value=2))
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
    def test_jerrum_bound_holds(self, graph, extra_colors):
        k = 2 * graph.d_max + 1 + extra_colors
        assume(len(list(itertools.islice(enumerate_colorings(graph, k), 601))) <= 600)
        lazy, source = coloring_lambda(graph, k)
        assert source == "jerrum"
        # tight on edgeless graphs, where the exact value is 1 - 1/n
        assert second_absolute_eigenvalue(graph, k) <= 2.0 * lazy - 1.0 + 1e-12

    def test_exact_on_the_star_k14(self):
        lazy, source = coloring_lambda(star(4), 3, support=range(5))
        assert source == "exact"
        assert 2.0 * lazy - 1.0 == pytest.approx(0.99161, abs=1e-5)
        assert 2.0 * lazy - 1.0 == pytest.approx(second_absolute_eigenvalue(star(4), 3), abs=1e-12)

    @given(small_graphs(max_n=6), st.integers(min_value=0, max_value=1), st.data())
    @settings(max_examples=40, deadline=None)
    def test_exact_is_the_chain_lumped_onto_the_support(self, graph, extra_colors, data):
        k = graph.degeneracy() + 2 + extra_colors
        assume(len(list(itertools.islice(enumerate_colorings(graph, k), 201))) <= 200)
        support = small_supports(data.draw, graph)
        exact = _marginal_lambda(graph, k, support)
        assert exact == pytest.approx(lumped_second_eigenvalue(graph, k, support), abs=1e-12)
        if k < 2 * graph.d_max + 1:
            assert coloring_lambda(graph, k, support=support) == (exact, "exact")

    @given(small_graphs(max_n=5), st.integers(min_value=0, max_value=2), st.data())
    @settings(max_examples=40, deadline=None)
    def test_exact_never_exceeds_jerrum(self, graph, extra_colors, data):
        k = max(2 * graph.d_max + 1, graph.degeneracy() + 2) + extra_colors
        assume(len(list(itertools.islice(enumerate_colorings(graph, k), 201))) <= 200)
        lazy, source = coloring_lambda(graph, k)
        assert source == "jerrum"
        assert _marginal_lambda(graph, k, small_supports(data.draw, graph)) <= lazy + 1e-12

    def test_star_phases_leave_the_proof_after_two_edges(self):
        result = dm.jvv_count(star(5), 3, 0.9, 0.9, estimator="static-hoeffding", seed=0)
        assert [p.lambda_source for p in result.phases] == ["jerrum"] * 2 + ["exact"] * 3

    @pytest.mark.parametrize("graph, k, refusal", [
        (dm.Graph(13, tuple((i, i + 1) for i in range(12))), 3, "at least 2^13 states"),
        (star(6), 5, f"exact kernel capped at {MATRIX_CAP} states"),  # the last support: 5 * 4^5 * 5 colorings
    ], ids=["path13", "star6"])
    def test_a_phase_with_no_proven_bound_refuses_the_count_before_any_eigensolve(self, graph, k, refusal,
                                                                                  monkeypatch):
        monkeypatch.setattr(np.linalg, "eigvalsh", no_sampling)
        monkeypatch.setattr(dm.TransitionKernel, "path", no_sampling)
        with pytest.raises(GuardError, match="no proven eigenvalue bound") as info:
            dm.jvv_count(graph, k, 0.25, 0.25)
        assert refusal in str(info.value) and "--lambda" in str(info.value)

    def test_phases_share_the_bound_of_the_largest_sampling_graph(self):
        path4 = dm.Graph(4, ((0, 1), (1, 2), (2, 3)))  # largest sampling graph: the path 0-1-2, d_max 2
        result = dm.jvv_count(path4, 5, 0.9, 0.9, estimator="static-hoeffding", seed=0)
        assert [p.lambda_source for p in result.phases] == ["jerrum"] * 3
        assert {p.lambda_bound for p in result.phases} == {0.5 * (1.0 + (1.0 - 1.0 / 20))}
        assert len({p.steps for p in result.phases}) == 1

    def test_hub_edge_moves_last_to_bring_every_phase_under_the_proof(self):
        tailed = dm.Graph(5, ((0, 1), (0, 2), (1, 2), (2, 4), (3, 4)))  # vertex 2 has degree 3
        result = dm.jvv_count(tailed, 5, 0.9, 0.9, estimator="static-hoeffding", seed=0)
        assert result.edge_order == ((0, 1), (0, 2), (1, 2), (3, 4), (2, 4))
        assert [p.lambda_source for p in result.phases] == ["jerrum"] * 5
        caller = dm.jvv_count(tailed, 5, 0.9, 0.9, estimator="static-hoeffding", seed=0, lambda_bound=0.9)
        assert caller.edge_order == tailed.edges

    @given(small_graphs(), st.integers(min_value=1, max_value=9))
    @settings(max_examples=200, deadline=None)
    def test_last_edge_moves_exactly_when_one_move_brings_jerrum(self, graph, k):
        assume(graph.edges)

        def covered(order):
            return k >= 2 * dm.Graph(graph.n, order[:-1]).d_max + 1

        moves = [graph.edges[:i] + graph.edges[i + 1:] + (e,) for i, e in enumerate(graph.edges)]
        order = _jerrum_last_edge(graph.n, k, graph.edges)
        assert order in moves
        if covered(graph.edges) or not any(covered(m) for m in moves):
            assert order == graph.edges
        else:
            assert covered(order)
            assert dm.ergodicity_floor(graph, order) <= k

    @pytest.mark.parametrize("bound", [1.5, -3.0, math.nan, 1.0])
    @pytest.mark.parametrize("caller", ["dynamite", "static-hoeffding", "edgeless"])
    def test_caller_bound_outside_the_unit_interval_is_refused_before_sampling(self, caller, bound, monkeypatch):
        # "edgeless" never uses a bound: it is refused all the same
        monkeypatch.setattr(dm.TransitionKernel, "path", no_sampling)
        with pytest.raises(ValueError, match=re.escape("lambda bound must lie in [0, 1)")):
            if caller == "edgeless":
                dm.jvv_count(dm.Graph(3, ()), 3, 0.25, 0.25, lambda_bound=bound)
            else:
                dm.jvv_count(C4, 3, 0.25, 0.25, estimator=caller, lambda_bound=bound)


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

    def test_mantissa_rounding_up_to_ten_carries_into_the_exponent(self):
        assert render_decimal((16 - 1e-14) * math.log(10)) == "1.000000000000e+16"


class TestGreedyColoring:
    def test_produces_proper_colorings(self):
        for graph, k in ((C4, 3), (TWO_TRIANGLES, 4), (PATH3, 3)):
            coloring = dm.greedy_coloring(graph, k)
            assert dm.is_proper(graph, coloring, k)

    def test_fails_loudly_when_colors_run_out(self):
        with pytest.raises(GuardError, match="greedy"):
            dm.greedy_coloring(TRIANGLE, 2)
