import itertools

import numpy as np
import pytest

import dynamite as dm
from dynamite.spectral import MATRIX_CAP


def bridge_fixture(k_unused=None):
    """Two triangles joined by one bridge edge, communities = the triangles."""
    graph = dm.Graph(6, ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)))
    return dm.PartitionedGraph(graph=graph, communities=np.array([0, 0, 0, 1, 1, 1]))


class TestParams:
    def test_rejects_uneven_communities(self):
        with pytest.raises(ValueError, match="divide"):
            dm.PlantedParams(n=10, communities=4, within_prob=0.5, cross_mass=0.1)

    def test_rejects_cross_mass_without_partner(self):
        with pytest.raises(ValueError, match="single community"):
            dm.PlantedParams(n=6, communities=1, within_prob=0.5, cross_mass=0.1)

    def test_cross_pair_probability_stays_in_range(self):
        # with q <= 1 and r >= 2, the per-pair probability q/(r-1) is always legal
        params = dm.PlantedParams(n=9, communities=3, within_prob=0.5, cross_mass=1.0)
        assert params.cross_prob == pytest.approx(0.5)
        with pytest.raises(ValueError):
            dm.PlantedParams(n=9, communities=3, within_prob=0.5, cross_mass=1.2)


class TestGenerate:
    def test_full_within_none_across(self):
        params = dm.PlantedParams(n=6, communities=2, within_prob=1.0, cross_mass=0.0)
        pg = dm.generate(params, 0)
        expected = {(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)}
        assert set(pg.graph.edges) == expected

    def test_all_probabilities_one_gives_complete_graph(self):
        params = dm.PlantedParams(n=4, communities=2, within_prob=1.0, cross_mass=1.0)
        pg = dm.generate(params, 0)
        assert set(pg.graph.edges) == set(itertools.combinations(range(4), 2))

    def test_oversize_is_refused_before_the_draw(self, monkeypatch):
        def no_draw(*args, **kwargs):
            raise AssertionError("reached the dense draw before the size guard")

        monkeypatch.setattr("numpy.random.default_rng", no_draw)
        params = dm.PlantedParams(n=MATRIX_CAP + 1, communities=1, within_prob=0.5, cross_mass=0.0)
        with pytest.raises(dm.GuardError, match=f"capped at {MATRIX_CAP} vertices"):
            dm.generate(params, 0)

    def test_deterministic_per_seed(self):
        params = dm.PlantedParams(n=16, communities=2, within_prob=0.4, cross_mass=0.2)
        assert dm.generate(params, 5).graph == dm.generate(params, 5).graph
        assert dm.generate(params, 5).graph != dm.generate(params, 6).graph

    def test_degree_statistics(self):
        # within-degree concentrates at (n/r - 1) p, cross-degree at n q / r
        params = dm.PlantedParams(n=64, communities=4, within_prob=0.5, cross_mass=0.05)
        within, cross = [], []
        for seed in range(500):
            pg = dm.generate(params, seed)
            labels = pg.communities
            for u, v in pg.graph.edges:
                same = labels[u] == labels[v]
                within.append(same)
                cross.append(not same)
        n_vertex_seeds = 64 * 500
        mean_within = 2 * sum(within) / n_vertex_seeds
        mean_cross = 2 * sum(cross) / n_vertex_seeds
        assert abs(mean_within - 15 * 0.5) <= 0.05 * 15 * 0.5
        assert abs(mean_cross - 64 * 0.05 / 4) <= 0.05 * 64 * 0.05 / 4


class TestCutSet:
    def test_disconnected_components_have_empty_cut(self):
        params = dm.PlantedParams(n=6, communities=2, within_prob=1.0, cross_mass=0.0)
        pg = dm.generate(params, 0)
        assert dm.cut_set(pg, 0) == []

    def test_single_bridge(self):
        pg = bridge_fixture()
        assert dm.cut_set(pg, 0) == [(2, 3)]
        assert dm.cut_set(pg, 1) == [(2, 3)]

    def test_matches_double_loop_recount(self):
        params = dm.PlantedParams(n=16, communities=2, within_prob=0.5, cross_mass=0.3)
        pg = dm.generate(params, 9)
        for j in (0, 1):
            inside = set(int(v) for v in pg.members(j))
            expected = []
            for u in range(16):
                for v in range(u + 1, 16):
                    if (u, v) in pg.graph.edges and ((u in inside) != (v in inside)):
                        expected.append((u, v))
            assert dm.cut_set(pg, j) == expected

    def test_relabelling_leaves_cut_size_multiset(self):
        params = dm.PlantedParams(n=12, communities=3, within_prob=0.6, cross_mass=0.4)
        pg = dm.generate(params, 2)
        sizes = sorted(len(dm.cut_set(pg, j)) for j in range(3))
        permuted = dm.PartitionedGraph(graph=pg.graph, communities=(2 - pg.communities))
        sizes_permuted = sorted(len(dm.cut_set(permuted, j)) for j in range(3))
        assert sizes == sizes_permuted


class TestCutMassStatistics:
    def test_mean_cut_size_matches_binomial_mean(self):
        # E[#cut edges of one community] = n^2 q / r^2
        params = dm.PlantedParams(n=64, communities=4, within_prob=0.5, cross_mass=0.05)
        sizes = []
        for seed in range(200):
            pg = dm.generate(params, seed)
            sizes.extend(len(dm.cut_set(pg, j)) for j in range(4))
        assert abs(np.mean(sizes) - 12.8) <= 0.08 * 12.8
