"""Property-based tests for the neighborhood-quality parameter (Section 3.2).

These check the paper's structural lemmas about NQ_k on randomly generated
connected graphs:

* Observation 3.2:  if NQ_k < D then |B_{NQ_k}(v)| >= k / NQ_k for every v.
* Lemma 3.6:        sqrt(D k / 3n) < NQ_k <= min(D, sqrt k).
* Lemma 3.7:        NQ_{alpha k} <= 6 sqrt(alpha) NQ_k.
* Lemma 3.8:        there is a node v with |B_r(v)| < k / r for all r < NQ_k.
* Monotonicity:     NQ_k is non-decreasing in k.
* Ball containment: NQ_k(v) <= NQ_k(u) + d(u, v), so NQ_k differs by at most
                    one across an edge (the bound graph-level NQ_k prunes by).
"""

import math
import random

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.neighborhood_quality import (
    neighborhood_quality,
    neighborhood_quality_per_node,
)
from repro.graphs.generators import generate_graph
from repro.graphs.properties import ball_size, diameter
from test_nq_equivalence import CASES, FAMILY_SPECS, _workloads


# ----------------------------------------------------------------------
# Random connected graph strategy
# ----------------------------------------------------------------------
@st.composite
def connected_graphs(draw, min_nodes=4, max_nodes=40):
    """A random connected graph built from a random tree plus random extra edges."""
    n = draw(st.integers(min_value=min_nodes, max_value=max_nodes))
    # Random tree via random parent assignment (guarantees connectivity).
    parents = [draw(st.integers(min_value=0, max_value=i - 1)) for i in range(1, n)]
    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    for child, parent in enumerate(parents, start=1):
        graph.add_edge(child, parent)
    extra_edges = draw(st.integers(min_value=0, max_value=2 * n))
    for _ in range(extra_edges):
        u = draw(st.integers(min_value=0, max_value=n - 1))
        v = draw(st.integers(min_value=0, max_value=n - 1))
        if u != v:
            graph.add_edge(u, v)
    return graph


@st.composite
def graph_and_k(draw):
    graph = draw(connected_graphs())
    k = draw(st.integers(min_value=1, max_value=3 * graph.number_of_nodes()))
    return graph, k


@settings(max_examples=40, deadline=None)
@given(graph_and_k())
def test_lemma_3_6_upper_bound(data):
    graph, k = data
    d = diameter(graph)
    nq = neighborhood_quality(graph, k)
    assert nq <= d
    assert nq <= math.ceil(math.sqrt(k))


@settings(max_examples=40, deadline=None)
@given(graph_and_k())
def test_lemma_3_6_lower_bound(data):
    graph, k = data
    n = graph.number_of_nodes()
    d = diameter(graph)
    nq = neighborhood_quality(graph, k)
    if d == 0:
        return
    assert nq >= math.sqrt(d * k / (3.0 * n)) - 1


@settings(max_examples=40, deadline=None)
@given(graph_and_k())
def test_observation_3_2(data):
    graph, k = data
    d = diameter(graph)
    nq = neighborhood_quality(graph, k)
    if nq >= d or nq == 0:
        return
    for v in graph.nodes:
        assert ball_size(graph, v, nq) >= k / nq


@settings(max_examples=40, deadline=None)
@given(graph_and_k())
def test_lemma_3_8_witness_node(data):
    graph, k = data
    nq = neighborhood_quality(graph, k)
    if nq <= 1:
        return
    per_node = neighborhood_quality_per_node(graph, k)
    witness = max(per_node, key=lambda v: per_node[v])
    for r in range(1, nq):
        assert ball_size(graph, witness, r) < k / r


@settings(max_examples=30, deadline=None)
@given(graph_and_k(), st.integers(min_value=1, max_value=6))
def test_lemma_3_7_growth(data, alpha):
    graph, k = data
    nq_k = neighborhood_quality(graph, k)
    nq_alpha_k = neighborhood_quality(graph, alpha * k)
    assert nq_alpha_k <= 6 * math.sqrt(alpha) * max(nq_k, 1)


@settings(max_examples=30, deadline=None)
@given(connected_graphs())
def test_monotone_in_k(graph):
    ks = [1, 2, 4, 8, 16, 32]
    values = [neighborhood_quality(graph, k) for k in ks]
    assert values == sorted(values)


@settings(max_examples=30, deadline=None)
@given(graph_and_k())
def test_max_over_nodes_definition(data):
    graph, k = data
    per_node = neighborhood_quality_per_node(graph, k)
    assert neighborhood_quality(graph, k) == max(per_node.values())


@pytest.mark.parametrize("family,seed", CASES)
def test_ball_containment_bound(family, seed):
    graph = generate_graph(FAMILY_SPECS[family](seed))
    rng = random.Random(seed)
    nodes = sorted(graph.nodes)
    # Far pairs: each sampled source with its farthest node and one random
    # node at distance >= 2.
    far_pairs = []
    for u in rng.sample(nodes, 6):
        dist = nx.single_source_shortest_path_length(graph, u)
        farthest = max(nodes, key=lambda v: (dist[v], v))
        distant = [v for v in nodes if dist[v] >= 2]
        far_pairs.append((u, farthest, dist[farthest]))
        if distant:
            v = rng.choice(distant)
            far_pairs.append((u, v, dist[v]))
    for k in _workloads(graph.number_of_nodes()):
        per_node = neighborhood_quality_per_node(graph, k)
        for u, v in graph.edges:
            assert abs(per_node[u] - per_node[v]) <= 1, (family, seed, k, u, v)
        for u, v, d in far_pairs:
            assert per_node[v] <= per_node[u] + d, (family, seed, k, u, v)
            assert per_node[u] <= per_node[v] + d, (family, seed, k, u, v)
