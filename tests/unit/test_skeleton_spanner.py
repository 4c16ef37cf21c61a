"""Unit tests for skeleton graphs (Definition 6.2 / Lemma 6.3) and spanners
(Lemma 6.1)."""

import math

import networkx as nx
import pytest

from repro.core.skeleton import (
    build_skeleton,
    closest_skeleton_node,
    distributed_skeleton,
)
from repro.core.spanner import (
    baswana_sen_spanner,
    distributed_spanner,
    greedy_spanner,
    spanner_stretch,
)
from repro.graphs.generators import cycle_graph, erdos_renyi_graph, grid_graph, path_graph
from repro.graphs.weighted import assign_random_weights
from repro.simulator.config import ModelConfig
from repro.simulator.network import HybridSimulator


class TestSkeleton:
    def test_skeleton_nodes_subset_of_graph(self):
        g = grid_graph(6, 2)
        skeleton = build_skeleton(g, 0.3, seed=0)
        assert set(skeleton.skeleton_nodes) <= set(g.nodes)
        assert skeleton.node_count >= 1

    def test_forced_nodes_included(self):
        g = path_graph(40)
        skeleton = build_skeleton(g, 0.2, seed=1, forced_nodes=[0, 39])
        assert skeleton.contains(0)
        assert skeleton.contains(39)

    def test_h_scales_inversely_with_probability(self):
        g = path_graph(50)
        dense = build_skeleton(g, 0.5, seed=0)
        sparse = build_skeleton(g, 0.1, seed=0)
        assert sparse.h > dense.h

    def test_skeleton_distances_equal_graph_distances(self):
        # Lemma 6.3 (2): for skeleton nodes, d_S = d_G (w.h.p.).
        g = assign_random_weights(grid_graph(6, 2), max_weight=5, seed=2)
        skeleton = build_skeleton(g, 0.35, seed=2)
        for source in skeleton.skeleton_nodes[:5]:
            true_dist = nx.single_source_dijkstra_path_length(g, source, weight="weight")
            skel_dist = nx.single_source_dijkstra_path_length(
                skeleton.graph, source, weight="weight"
            )
            for target in skeleton.skeleton_nodes:
                if target in skel_dist:
                    assert skel_dist[target] == pytest.approx(true_dist[target])

    def test_every_long_path_hits_skeleton(self):
        # Lemma 6.3 (1): any node has a skeleton node within h hops (w.h.p.) on
        # a connected graph whose diameter exceeds h.
        g = path_graph(80)
        skeleton = build_skeleton(g, 0.25, seed=3)
        skeleton_set = set(skeleton.skeleton_nodes)
        for node in g.nodes:
            window = range(max(0, node - skeleton.h), min(79, node + skeleton.h) + 1)
            assert any(w in skeleton_set for w in window)

    def test_closest_skeleton_node_falls_back_to_a_full_dijkstra(self):
        # xi = 0.1 shrinks h to 5 hops on a 60-node path, so nodes far from
        # every skeleton node have no skeleton node within h hops.
        g = path_graph(60)
        skeleton = build_skeleton(g, 0.1, seed=2, xi=0.1)
        assert skeleton.h == 5
        assert skeleton.skeleton_nodes == [10, 11, 27, 28, 35]
        assert 19 not in skeleton.closest
        # Node 19 is 8 hops from both 11 and 27: the tie goes to str order.
        assert closest_skeleton_node(skeleton, g, 19) == (11, 8.0)
        skeleton_set = set(skeleton.skeleton_nodes)
        for node in g.nodes:
            found = closest_skeleton_node(skeleton, g, node)
            if node in skeleton.closest:
                assert found == skeleton.closest[node]
                continue
            full = nx.single_source_dijkstra_path_length(g, node)
            candidates = {s: d for s, d in full.items() if s in skeleton_set}
            assert found == min(candidates.items(), key=lambda kv: (kv[1], str(kv[0])))

    def test_probability_one_includes_every_node(self):
        g = cycle_graph(12)
        skeleton = build_skeleton(g, 1.0, seed=0)
        assert sorted(skeleton.skeleton_nodes) == sorted(g.nodes)

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            build_skeleton(path_graph(5), 0.0)
        with pytest.raises(ValueError):
            build_skeleton(path_graph(5), 1.5)

    def test_distributed_wrapper_charges_h_rounds(self):
        g = path_graph(40)
        sim = HybridSimulator(g, ModelConfig.hybrid(), seed=0)
        skeleton = distributed_skeleton(sim, 0.25, seed=0)
        assert sim.metrics.charged_rounds == skeleton.h


class TestGreedySpanner:
    @pytest.mark.parametrize("t", [1, 2, 3])
    def test_stretch_guarantee(self, t):
        g = assign_random_weights(erdos_renyi_graph(30, 0.25, seed=1), max_weight=9, seed=1)
        spanner = greedy_spanner(g, t)
        assert spanner_stretch(g, spanner) <= 2 * t - 1 + 1e-9

    def test_t_one_keeps_all_distances_exact(self):
        g = assign_random_weights(grid_graph(4, 2), max_weight=7, seed=0)
        spanner = greedy_spanner(g, 1)
        assert spanner_stretch(g, spanner) == pytest.approx(1.0)

    def test_spanner_is_subgraph(self):
        g = erdos_renyi_graph(25, 0.3, seed=2)
        spanner = greedy_spanner(g, 2)
        for u, v in spanner.edges:
            assert g.has_edge(u, v)

    def test_spanner_spans_all_nodes_and_is_connected(self):
        g = erdos_renyi_graph(25, 0.3, seed=3)
        spanner = greedy_spanner(g, 3)
        assert set(spanner.nodes) == set(g.nodes)
        assert nx.is_connected(spanner)

    def test_spanner_sparsifies_dense_graph(self):
        g = erdos_renyi_graph(40, 0.5, seed=4)
        spanner = greedy_spanner(g, 3)
        n = g.number_of_nodes()
        # Girth bound: O(n^{1+1/3}); allow a generous constant.
        assert spanner.number_of_edges() <= 4 * n ** (1 + 1.0 / 3.0)
        assert spanner.number_of_edges() < g.number_of_edges()

    def test_invalid_t(self):
        with pytest.raises(ValueError):
            greedy_spanner(path_graph(4), 0)


class TestBaswanaSenSpanner:
    @pytest.mark.parametrize("t", [2, 3])
    def test_stretch_guarantee(self, t):
        g = assign_random_weights(erdos_renyi_graph(30, 0.3, seed=5), max_weight=9, seed=5)
        spanner = baswana_sen_spanner(g, t, seed=5)
        assert spanner_stretch(g, spanner) <= 2 * t - 1 + 1e-9

    def test_subgraph_and_connectivity(self):
        g = erdos_renyi_graph(30, 0.3, seed=6)
        spanner = baswana_sen_spanner(g, 2, seed=6)
        for u, v in spanner.edges:
            assert g.has_edge(u, v)
        assert nx.is_connected(spanner)

    def test_invalid_t(self):
        with pytest.raises(ValueError):
            baswana_sen_spanner(path_graph(4), 0)


class TestDistributedSpanner:
    def test_charges_congest_rounds(self):
        g = erdos_renyi_graph(25, 0.3, seed=7)
        sim = HybridSimulator(g, ModelConfig.hybrid0(), seed=7)
        spanner = distributed_spanner(sim, 2)
        assert spanner_stretch(g, spanner) <= 3 + 1e-9
        assert sim.metrics.charged_rounds > 0

    def test_randomized_variant(self):
        g = erdos_renyi_graph(25, 0.3, seed=8)
        sim = HybridSimulator(g, ModelConfig.hybrid0(), seed=8)
        spanner = distributed_spanner(sim, 2, randomized=True, seed=8)
        assert spanner_stretch(g, spanner) <= 3 + 1e-9
