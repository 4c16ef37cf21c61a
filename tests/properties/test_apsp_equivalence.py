"""Equivalence harness for the batch-native shortest-paths pipeline (PR 3).

Four layers of cross-validation over six graph families x three seeds:

* **backend equivalence** — every algorithm of the shortest-paths stack
  (UnweightedApproxAPSP, SpannerAPSP, SkeletonAPSP, KSourceShortestPaths,
  KLShortestPaths, the BCC bridge) produces *identical* results and identical
  metrics summaries under the NumPy and the pure-Python array backends;
* **output checks** — the weighted APSP algorithms (SpannerAPSP,
  SkeletonAPSP) stay within their stretch of centralized Dijkstra, and the
  BCC bridge delivers every broadcast vector exactly;
* **dense-vs-reference equivalence** — the :class:`DenseDistanceTable`
  assembled from GraphIndex flat-array sweeps equals, entry for entry, the
  dict-BFS formulation of Algorithm 3 that the seed implementation used, and
  SkeletonAPSP's skeleton-rooted closest-skeleton labels and lazy rows equal
  the per-node (v-rooted) formulation of Algorithm 4;
* **primitive equivalence** — the index-backed graph primitives
  (``weak_diameter``, ``h_hop_limited_distances``, ``all_hop_distances``)
  equal their ``_reference_*`` ground-truth counterparts exactly.
"""

import math
import random

import networkx as nx
import pytest

from repro.baselines.centralized import exact_apsp, max_stretch_of_table
from repro.core.bcc import BCCBroadcast, BCCSimulator
from repro.core.ksp import KSourceShortestPaths
from repro.core.shortest_paths import (
    DenseDistanceTable,
    KLShortestPaths,
    SkeletonAPSP,
    SpannerAPSP,
    UnweightedApproxAPSP,
)
from repro.core.sssp import approx_sssp_distances
from repro.graphs.generators import (
    barbell_graph,
    broom_graph,
    cycle_graph,
    erdos_renyi_graph,
    grid_graph,
    path_graph,
)
from repro.graphs.index import GraphIndex, invalidate_index
from repro.graphs.properties import (
    _reference_all_hop_distances,
    _reference_h_hop_limited_distances,
    _reference_weak_diameter,
    _reference_weighted_distances_from,
    all_hop_distances,
    h_hop_limited_distances,
    hop_distances_from,
    weak_diameter,
)
from repro.graphs.weighted import assign_random_weights, unit_weights
from repro.simulator.config import ModelConfig
from repro.simulator.network import HybridSimulator

SEEDS = [0, 1, 2]

GRAPH_FAMILIES = {
    "path": lambda seed: path_graph(30),
    "cycle": lambda seed: cycle_graph(30),
    "grid": lambda seed: grid_graph(6, 2),
    "barbell": lambda seed: barbell_graph(8, 12),
    "broom": lambda seed: broom_graph(18, 10),
    "erdos_renyi": lambda seed: erdos_renyi_graph(30, 0.12, seed=seed),
}

CASES = [(family, seed) for family in sorted(GRAPH_FAMILIES) for seed in SEEDS]


def _ids(case):
    family, seed = case
    return f"{family}-s{seed}"


# ----------------------------------------------------------------------
# Unweighted APSP: the dense table == the dict-BFS reference pipeline
# ----------------------------------------------------------------------
def _reference_algorithm3_estimates(graph, sim, algorithm):
    """Algorithm 3 computed the pre-index way: one dict BFS per node, one
    weight-rounded Dijkstra per cluster leader — the seed formulation."""
    leaders = algorithm.clustering.leaders()
    epsilon = algorithm.epsilon
    x = algorithm.x
    hop_tables = {v: hop_distances_from(graph, v) for v in sim.nodes}
    leader_estimates = {
        leader: approx_sssp_distances(graph, leader, epsilon) for leader in leaders
    }
    closest_leader = {}
    for v in sim.nodes:
        hops = hop_tables[v]
        best = min(leaders, key=lambda r: (hops.get(r, math.inf), str(r)))
        closest_leader[v] = (best, hops.get(best, math.inf))
    estimates = {}
    for v in sim.nodes:
        hops_v = hop_tables[v]
        row = {}
        for w in sim.nodes:
            direct = hops_v.get(w, math.inf)
            if direct <= x:
                row[w] = float(direct)
            else:
                c_w, d_w_cw = closest_leader[w]
                row[w] = leader_estimates[c_w].get(v, math.inf) + d_w_cw
        estimates[v] = row
    return estimates


@pytest.mark.parametrize("case", CASES, ids=_ids)
def test_apsp_matches_the_reference_pipeline(case):
    family, seed = case
    graph = unit_weights(GRAPH_FAMILIES[family](seed))
    sim = HybridSimulator(graph, ModelConfig.hybrid0(), seed=seed)
    algorithm = UnweightedApproxAPSP(sim, epsilon=0.5)
    table = algorithm.run()

    assert isinstance(table, DenseDistanceTable)
    assert sim.metrics.capacity_violations == 0
    expected = _reference_algorithm3_estimates(graph, sim, algorithm)
    assert table.estimates == expected


def test_apsp_leader_fallback_branch_matches_reference():
    """Force ``x`` below the diameter so far pairs take the closest-leader
    estimate branch of the dense row assembly.

    On every small instance (and on the benchmark graphs) ``x = ceil(4 NQ_n
    log n / eps)`` exceeds the diameter, so the direct-hop branch answers all
    pairs and the fallback arm would otherwise go untested until n is large
    enough for ``x < D``."""

    class SmallXAPSP(UnweightedApproxAPSP):
        def _phase_local_exploration(self):
            super()._phase_local_exploration()
            self.x = 3

    for graph in (
        unit_weights(path_graph(30)),  # dense hop-row arm
        assign_random_weights(path_graph(30), max_weight=5, seed=2),  # Dijkstra arm
    ):
        sim = HybridSimulator(graph, ModelConfig.hybrid0(), seed=2)
        algorithm = SmallXAPSP(sim, epsilon=0.5)
        table = algorithm.run()
        assert algorithm.x == 3 < 29  # far pairs exist: the fallback fires
        expected = _reference_algorithm3_estimates(graph, sim, algorithm)
        assert table.estimates == expected


def test_apsp_weighted_fallback_matches_reference():
    """On a (non-unit) weighted graph the leader estimates fall back to the
    weight-rounded Dijkstra; the dense rows must still equal the reference."""
    graph = assign_random_weights(grid_graph(5, 2), max_weight=7, seed=3)
    sim = HybridSimulator(graph, ModelConfig.hybrid0(), seed=3)
    algorithm = UnweightedApproxAPSP(sim, epsilon=0.5)
    table = algorithm.run()
    expected = _reference_algorithm3_estimates(graph, sim, algorithm)
    assert table.estimates == expected


def test_dense_table_api_is_consistent():
    graph = unit_weights(grid_graph(4, 2))
    sim = HybridSimulator(graph, ModelConfig.hybrid0(), seed=0)
    table = UnweightedApproxAPSP(sim, epsilon=0.5).run()
    assert set(table.targets()) == set(graph.nodes)
    assert set(table.columns()) == set(graph.nodes)
    for target in table.targets():
        row = table.row(target)
        assert len(row) == len(table.columns())
        for source, value in zip(table.columns(), row):
            assert table.estimate(target, source) == value
            assert table.estimates[target][source] == value
    # weak_diameter contract: wrong-node queries raise instead of silently
    # answering inf; inf is reserved for computed-but-unreachable pairs.
    with pytest.raises(KeyError):
        table.estimate("missing", 0)
    with pytest.raises(KeyError):
        table.estimate(0, "missing")
    with pytest.raises(KeyError):
        table.row("missing")


# ----------------------------------------------------------------------
# Weighted APSP: within the stretch bound of centralized Dijkstra
# ----------------------------------------------------------------------
@pytest.mark.parametrize("case", CASES, ids=_ids)
def test_weighted_apsp_stays_within_its_stretch(case):
    family, seed = case
    graph = assign_random_weights(GRAPH_FAMILIES[family](seed), max_weight=9, seed=seed)
    truth = exact_apsp(graph)
    for algorithm_factory, bound in (
        (lambda sim: SpannerAPSP(sim, epsilon=0.5), None),
        (lambda sim: SkeletonAPSP(sim, alpha=1, seed=seed), 3),
    ):
        sim = HybridSimulator(graph, ModelConfig.hybrid0(), seed=seed)
        table = algorithm_factory(sim).run()
        limit = table.stretch_bound if bound is None else bound
        assert max_stretch_of_table(truth, table.estimates) <= limit + 1e-6
        assert sim.metrics.capacity_violations == 0


# ----------------------------------------------------------------------
# SkeletonAPSP: skeleton-rooted labels and lazy rows == the per-node rule
# ----------------------------------------------------------------------
def _argmin_skeleton(distances, skeleton_set):
    candidates = {s: d for s, d in distances.items() if s in skeleton_set}
    if not candidates:
        return None
    return min(candidates.items(), key=lambda kv: (kv[1], str(kv[0])))


def _reference_skeleton_apsp(graph, algorithm):
    """Algorithm 4 the per-node way: one v-rooted h-hop row per node, the
    argmin over ``(d^h(v, s), str(s))`` with a full-Dijkstra fallback, and
    the eager row formula over those rows."""
    skeleton = algorithm._skeleton
    skeleton_set = set(skeleton.skeleton_nodes)
    limited = {
        v: _reference_h_hop_limited_distances(graph, v, skeleton.h)
        for v in graph.nodes
    }
    closest = {}
    for v in graph.nodes:
        best = _argmin_skeleton(limited[v], skeleton_set)
        if best is None:
            best = _argmin_skeleton(
                _reference_weighted_distances_from(graph, v), skeleton_set
            )
        closest[v] = best
    spanner_rows = {
        s: nx.single_source_dijkstra_path_length(algorithm._spanner, s)
        for s in {s for s, _ in closest.values()}
    }
    rows = {}
    for v in graph.nodes:
        v_s, d_v_vs = closest[v]
        rows[v] = {
            w: min(
                limited[v].get(w, math.inf),
                (d_v_vs + spanner_rows[v_s].get(closest[w][0], math.inf))
                + closest[w][1],
            )
            for w in graph.nodes
        }
    return closest, rows


@pytest.mark.parametrize("case", CASES, ids=_ids)
def test_skeleton_apsp_matches_the_per_node_reference(case, backend):
    """Integer weights: every partial sum is exact, so ``d^h(s, v)`` and
    ``d^h(v, s)`` agree bit for bit and the skeleton-rooted labels and rows
    equal the per-node formulation exactly."""
    family, seed = case
    graph = assign_random_weights(GRAPH_FAMILIES[family](seed), max_weight=9, seed=seed)
    sim = HybridSimulator(graph, ModelConfig.hybrid0(), seed=seed)
    algorithm = SkeletonAPSP(sim, alpha=1, seed=seed)
    table = algorithm.run()
    closest, rows = _reference_skeleton_apsp(graph, algorithm)
    assert algorithm._closest_skeleton == closest
    for v in table.targets():
        assert list(table.row(v)) == [rows[v][w] for w in table.columns()]


def _float_weights(graph, seed):
    rng = random.Random(seed)
    for u, v in sorted(graph.edges, key=lambda e: (str(e[0]), str(e[1]))):
        graph[u][v]["weight"] = rng.uniform(0.1, 9.0)
    invalidate_index(graph)
    return graph


@pytest.mark.parametrize("case", CASES, ids=_ids)
def test_skeleton_apsp_float_labels_are_skeleton_rooted(case, backend):
    """Float weights: a label's distance is the skeleton-rooted sum
    ``d^h(s, v)``, which may differ from the v-rooted sum only in the last
    bits; the stretch guarantee is unaffected."""
    family, seed = case
    graph = _float_weights(GRAPH_FAMILIES[family](seed), seed)
    sim = HybridSimulator(graph, ModelConfig.hybrid0(), seed=seed)
    algorithm = SkeletonAPSP(sim, alpha=1, seed=seed)
    table = algorithm.run()
    skeleton = algorithm._skeleton
    h = skeleton.h
    skeleton_rows = {
        s: _reference_h_hop_limited_distances(graph, s, h)
        for s in skeleton.skeleton_nodes
    }
    for v, (s, dist) in algorithm._closest_skeleton.items():
        reached = {t: row[v] for t, row in skeleton_rows.items() if v in row}
        if not reached:
            continue  # full-Dijkstra fallback, checked in the unit tests
        assert (s, dist) == min(reached.items(), key=lambda kv: (kv[1], str(kv[0])))
        assert dist == skeleton_rows[s][v]
        v_rooted = _reference_h_hop_limited_distances(graph, v, h)[s]
        assert abs(dist - v_rooted) <= 1e-12 * max(dist, v_rooted)
    truth = exact_apsp(graph)
    assert max_stretch_of_table(truth, table.estimates) <= 3 + 1e-6


@pytest.mark.parametrize("case", CASES, ids=_ids)
def test_skeleton_apsp_runs_one_h_hop_row_per_skeleton_node(case, monkeypatch):
    """``run()`` explores from the skeleton nodes only; a node's own h-hop
    row is computed when its table row is first read."""
    family, seed = case
    graph = assign_random_weights(GRAPH_FAMILIES[family](seed), max_weight=9, seed=seed)
    calls = []
    original = GraphIndex.h_hop_limited_distances

    def counting(self, source, h):
        calls.append(source)
        return original(self, source, h)

    monkeypatch.setattr(GraphIndex, "h_hop_limited_distances", counting)
    sim = HybridSimulator(graph, ModelConfig.hybrid0(), seed=seed)
    algorithm = SkeletonAPSP(sim, alpha=1, seed=seed)
    table = algorithm.run()
    assert calls == algorithm._skeleton.skeleton_nodes
    target = table.targets()[-1]
    table.row(target)
    table.row(target)
    assert calls[len(algorithm._skeleton.skeleton_nodes) :] == [target]


# ----------------------------------------------------------------------
# BCC bridge: every node receives the broadcast vector itself
# ----------------------------------------------------------------------
@pytest.mark.parametrize("case", CASES, ids=_ids)
def test_bcc_broadcast_delivers_everything(case):
    family, seed = case
    graph = GRAPH_FAMILIES[family](seed)
    schedule = [
        {v: ("round0", v) for v in graph.nodes},
        {v: ("round1", str(v)) for v in graph.nodes},
    ]
    sim = HybridSimulator(graph, ModelConfig.hybrid0(), seed=seed)
    result = BCCBroadcast(sim, schedule).run()
    assert result.all_rounds_complete()
    assert sim.metrics.capacity_violations == 0
    for bcc_round, broadcasts in zip(result.rounds, schedule):
        for view in bcc_round.received.values():
            assert view == broadcasts


# ----------------------------------------------------------------------
# Every algorithm: NumPy backend == pure-Python backend, exactly
# ----------------------------------------------------------------------
@pytest.mark.parametrize("case", CASES, ids=_ids)
def test_apsp_backends_agree_exactly(case, on_both_backends):
    family, seed = case
    graph = unit_weights(GRAPH_FAMILIES[family](seed))

    def run():
        sim = HybridSimulator(graph, ModelConfig.hybrid0(), seed=seed)
        table = UnweightedApproxAPSP(sim, epsilon=0.5).run()
        return table.estimates, sim.metrics.summary()

    vectorised, fallback = on_both_backends(run)
    assert vectorised == fallback


@pytest.mark.parametrize("in_skeleton", [True, False], ids=["skel", "arb"])
@pytest.mark.parametrize("case", CASES, ids=_ids)
def test_ksp_backends_agree_exactly(case, in_skeleton, on_both_backends):
    family, seed = case
    graph = assign_random_weights(GRAPH_FAMILIES[family](seed), max_weight=9, seed=seed)
    rng = random.Random(400 + seed)
    sources = rng.sample(sorted(graph.nodes), 4)

    def run():
        sim = HybridSimulator(graph, ModelConfig.hybrid(), seed=seed)
        result = KSourceShortestPaths(
            sim, sources, epsilon=0.25, sources_in_skeleton=in_skeleton, seed=seed
        ).run()
        return result.distances, result.proxy_of, sim.metrics.summary()

    vectorised, fallback = on_both_backends(run)
    assert vectorised == fallback


@pytest.mark.parametrize("case", CASES, ids=_ids)
def test_klsp_backends_agree_exactly(case, on_both_backends):
    family, seed = case
    graph = assign_random_weights(GRAPH_FAMILIES[family](seed), max_weight=9, seed=seed)
    rng = random.Random(500 + seed)
    nodes = sorted(graph.nodes)
    sources = rng.sample(nodes, 4)
    targets = rng.sample(nodes, 3)

    def run():
        sim = HybridSimulator(graph, ModelConfig.hybrid(), seed=seed)
        table = KLShortestPaths(sim, sources, targets, epsilon=0.25, seed=seed).run()
        return table.estimates, sim.metrics.summary()

    vectorised, fallback = on_both_backends(run)
    assert vectorised == fallback


@pytest.mark.parametrize("case", CASES, ids=_ids)
def test_weighted_apsp_backends_agree_exactly(case, on_both_backends):
    family, seed = case
    graph = assign_random_weights(GRAPH_FAMILIES[family](seed), max_weight=9, seed=seed)

    for algorithm_factory in (
        lambda sim: SpannerAPSP(sim, epsilon=0.5),
        lambda sim: SkeletonAPSP(sim, alpha=1, seed=seed),
    ):
        def run():
            sim = HybridSimulator(graph, ModelConfig.hybrid0(), seed=seed)
            return algorithm_factory(sim).run().estimates, sim.metrics.summary()

        vectorised, fallback = on_both_backends(run)
        assert vectorised == fallback


@pytest.mark.parametrize("case", CASES, ids=_ids)
def test_bcc_backends_agree_exactly(case, on_both_backends):
    family, seed = case
    graph = GRAPH_FAMILIES[family](seed)
    schedule = [
        {v: ("round0", v) for v in graph.nodes},
        {v: ("round1", str(v)) for v in graph.nodes},
    ]

    def run():
        sim = HybridSimulator(graph, ModelConfig.hybrid0(), seed=seed)
        result = BCCBroadcast(sim, schedule).run()
        return [r.received for r in result.rounds], sim.metrics.summary()

    vectorised, fallback = on_both_backends(run)
    assert vectorised == fallback


def test_bcc_simulator_backends_agree(on_both_backends):
    graph = grid_graph(5, 2)
    broadcasts = {v: v * 3 for v in graph.nodes}

    def run():
        sim = HybridSimulator(graph, ModelConfig.hybrid0(), seed=1)
        result = BCCSimulator(sim).simulate_round(broadcasts)
        return result.received, result.rounds_used, sim.metrics.summary()

    vectorised, fallback = on_both_backends(run)
    assert vectorised == fallback
    assert all(view == broadcasts for view in vectorised[0].values())


# ----------------------------------------------------------------------
# Index-backed primitives == their _reference_* ground truth
# ----------------------------------------------------------------------
@pytest.mark.parametrize("case", CASES, ids=_ids)
def test_weak_diameter_fast_equals_reference(case):
    family, seed = case
    graph = GRAPH_FAMILIES[family](seed)
    rng = random.Random(600 + seed)
    nodes = sorted(graph.nodes)
    member_sets = [
        nodes,  # the whole graph (weak diameter == diameter)
        rng.sample(nodes, 2),
        rng.sample(nodes, max(3, len(nodes) // 4)),
        rng.sample(nodes, max(4, len(nodes) // 2)),
    ]
    for members in member_sets:
        assert weak_diameter(graph, members) == _reference_weak_diameter(
            graph, members
        ), f"{family} seed {seed}: weak diameter diverged on {members!r}"


@pytest.mark.parametrize("case", CASES, ids=_ids)
def test_h_hop_limited_distances_fast_equals_reference(case):
    family, seed = case
    graph = assign_random_weights(GRAPH_FAMILIES[family](seed), max_weight=9, seed=seed)
    rng = random.Random(700 + seed)
    sources = rng.sample(sorted(graph.nodes), 4)
    for source in sources:
        for h in (0, 1, 3, 8):
            assert h_hop_limited_distances(graph, source, h) == (
                _reference_h_hop_limited_distances(graph, source, h)
            )


@pytest.mark.parametrize("case", CASES, ids=_ids)
def test_all_hop_distances_fast_equals_reference(case):
    family, seed = case
    graph = GRAPH_FAMILIES[family](seed)
    assert all_hop_distances(graph) == _reference_all_hop_distances(graph)
