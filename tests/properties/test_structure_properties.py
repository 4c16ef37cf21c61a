"""Property-based tests for the structural building blocks: clustering
(Lemma 3.5), load balancing (Lemma 4.1), ruling sets (Definition 3.4), the
Eulerian orientation, spanners and the payload-size model."""

import math
from collections import Counter

import networkx as nx
from hypothesis import assume, given, settings, strategies as st

from repro.core.clustering import nq_clustering
from repro.core.euler import eulerian_orientation, is_eulerian, verify_orientation_balanced
from repro.core.load_balancing import balance_items
from repro.core.neighborhood_quality import neighborhood_quality
from repro.core.ruling_sets import greedy_ruling_set, verify_ruling_set
from repro.core.spanner import greedy_spanner, spanner_stretch
from repro.graphs.properties import weak_diameter
from repro.simulator.config import log2_ceil
from repro.simulator.messages import payload_words


@st.composite
def connected_graphs(draw, min_nodes=4, max_nodes=32):
    n = draw(st.integers(min_value=min_nodes, max_value=max_nodes))
    parents = [draw(st.integers(min_value=0, max_value=i - 1)) for i in range(1, n)]
    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    for child, parent in enumerate(parents, start=1):
        graph.add_edge(child, parent)
    extra_edges = draw(st.integers(min_value=0, max_value=n))
    for _ in range(extra_edges):
        u = draw(st.integers(min_value=0, max_value=n - 1))
        v = draw(st.integers(min_value=0, max_value=n - 1))
        if u != v:
            graph.add_edge(u, v)
    return graph


# ----------------------------------------------------------------------
# Ruling sets
# ----------------------------------------------------------------------
@settings(max_examples=30, deadline=None)
@given(connected_graphs(), st.integers(min_value=1, max_value=6))
def test_greedy_ruling_set_is_valid(graph, alpha):
    ruling = greedy_ruling_set(graph, alpha)
    assert ruling
    assert verify_ruling_set(graph, ruling, alpha, max(0, alpha - 1))


# ----------------------------------------------------------------------
# Clustering (Lemma 3.5)
# ----------------------------------------------------------------------
@settings(max_examples=25, deadline=None)
@given(connected_graphs(min_nodes=6), st.integers(min_value=2, max_value=40))
def test_clustering_is_partition_with_size_and_diameter_bounds(graph, k):
    n = graph.number_of_nodes()
    clustering = nq_clustering(graph, k)
    members = [m for cluster in clustering.clusters for m in cluster.members]
    assert sorted(members) == sorted(graph.nodes)

    nq = max(1, clustering.nq)
    lower = min(n, k / nq)
    upper = 2 * lower
    log_n = log2_ceil(n)
    for cluster in clustering.clusters:
        assert len(cluster) >= math.floor(lower)
        assert len(cluster) <= math.ceil(upper)
        assert weak_diameter(graph, cluster.members) <= 4 * nq * log_n


# ----------------------------------------------------------------------
# Load balancing (Lemma 4.1)
# ----------------------------------------------------------------------
@settings(max_examples=50, deadline=None)
@given(
    st.integers(min_value=1, max_value=12),
    st.lists(st.integers(min_value=0, max_value=20), min_size=1, max_size=12),
)
def test_load_balancing_quota_and_conservation(member_count, item_counts):
    members = list(range(member_count))
    items = {
        index % member_count: [(index, i) for i in range(count)]
        for index, count in enumerate(item_counts)
    }
    merged = {}
    for node, bucket in items.items():
        merged.setdefault(node, []).extend(bucket)
    allocation = balance_items(members, merged)
    total = sum(len(bucket) for bucket in merged.values())
    quota = math.ceil(total / member_count) if total else 0
    assert sum(len(v) for v in allocation.values()) == total
    assert all(len(v) <= max(quota, 0) for v in allocation.values())
    flat_before = sorted(item for bucket in merged.values() for item in bucket)
    flat_after = sorted(item for bucket in allocation.values() for item in bucket)
    assert flat_before == flat_after


# ----------------------------------------------------------------------
# Eulerian orientation (Lemma 8.5)
# ----------------------------------------------------------------------
@settings(max_examples=30, deadline=None)
@given(connected_graphs(min_nodes=4, max_nodes=24))
def test_eulerian_orientation_balances_even_graphs(graph):
    # Make the graph Eulerian by pairing up odd-degree nodes along a matching of
    # added edges (classic T-join trick on a multigraph).
    multigraph = nx.MultiGraph(graph)
    odd = [v for v in multigraph.nodes if multigraph.degree(v) % 2 == 1]
    for u, v in zip(odd[0::2], odd[1::2]):
        multigraph.add_edge(u, v)
    assume(is_eulerian(multigraph))
    orientation = eulerian_orientation(multigraph)
    out_degree = Counter(u for u, _ in orientation)
    in_degree = Counter(v for _, v in orientation)
    assert len(orientation) == multigraph.number_of_edges()
    for node in multigraph.nodes:
        assert out_degree[node] == in_degree[node]


# ----------------------------------------------------------------------
# Spanner stretch (Lemma 6.1)
# ----------------------------------------------------------------------
@settings(max_examples=20, deadline=None)
@given(connected_graphs(min_nodes=5, max_nodes=20), st.integers(min_value=1, max_value=3))
def test_greedy_spanner_stretch_property(graph, t):
    spanner = greedy_spanner(graph, t)
    assert spanner_stretch(graph, spanner) <= 2 * t - 1 + 1e-9
    for u, v in spanner.edges:
        assert graph.has_edge(u, v)


def _reference_greedy_spanner(graph, t):
    """Unbounded greedy spanner: the exact spanner distance of every pair,
    compared to ``(2t - 1) * weight`` (the pre-cutoff formulation)."""
    stretch = 2 * t - 1
    spanner = nx.Graph()
    spanner.add_nodes_from(graph.nodes)
    edges = sorted(
        graph.edges(data=True),
        key=lambda item: (item[2].get("weight", 1), str(item[0]), str(item[1])),
    )
    for u, v, data in edges:
        weight = data.get("weight", 1)
        try:
            current = nx.dijkstra_path_length(spanner, u, v, weight="weight")
        except nx.NetworkXNoPath:
            current = math.inf
        if current > stretch * weight:
            spanner.add_edge(u, v, weight=weight)
    return spanner


@st.composite
def mixed_weight_graphs(draw):
    """Connected graphs whose edges mix integer and float weights."""
    graph = draw(connected_graphs(min_nodes=5, max_nodes=24))
    for u, v in sorted(graph.edges):
        graph[u][v]["weight"] = draw(
            st.one_of(
                st.integers(min_value=1, max_value=9),
                st.floats(min_value=0.1, max_value=9.0, allow_nan=False),
            )
        )
    return graph


@settings(max_examples=40, deadline=None)
@given(mixed_weight_graphs(), st.integers(min_value=1, max_value=3))
def test_greedy_spanner_cutoff_matches_the_unbounded_reference(graph, t):
    spanner = greedy_spanner(graph, t)
    reference = _reference_greedy_spanner(graph, t)
    assert sorted(spanner.edges(data="weight")) == sorted(
        reference.edges(data="weight")
    )


# ----------------------------------------------------------------------
# Payload size model
# ----------------------------------------------------------------------
@settings(max_examples=100, deadline=None)
@given(
    st.recursive(
        st.one_of(
            st.integers(min_value=-(10**6), max_value=10**6),
            st.text(max_size=20),
            st.floats(allow_nan=False, allow_infinity=False),
            st.none(),
        ),
        lambda children: st.lists(children, max_size=4).map(tuple),
        max_leaves=10,
    )
)
def test_payload_words_positive_and_monotone_under_nesting(payload):
    words = payload_words(payload)
    assert words >= 1
    assert payload_words((payload, payload)) >= words
