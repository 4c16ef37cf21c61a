"""Differential test of the identifier-knowledge store against a reference.

:class:`ReferenceKnowledge` spells out the HYBRID_0 knowledge rule with one
plain ``set`` of identifiers per node.  Hypothesis drives random operation
sequences through it and through the real store — first the bare
:class:`~repro.simulator.knowledge.KnowledgeTracker`, then a whole
:class:`~repro.simulator.network.HybridSimulator` with plane sends and
delivery — on both array backends.  After every operation the two must agree
on every node's ``known_ids``, and every send must pass or fail alike, with
the identical earliest-offender error string.
"""

from __future__ import annotations

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.simulator import _accel
from repro.simulator.config import ModelConfig
from repro.simulator.errors import UnknownIdentifierError, UnknownNodeError
from repro.simulator.knowledge import KnowledgeTracker
from repro.simulator.network import HybridSimulator

BOGUS_ID = -1
BACKENDS = ["numpy", "python"]


class ReferenceKnowledge:
    """Per-node identifier sets: the knowledge rule, one node at a time."""

    def __init__(self, ids, all_known=False):
        self.ids = set(ids)
        self.all_known = all_known
        # Every node knows itself.
        self.known = {i: {i} for i in self.ids}

    def learn(self, node, new_ids):
        # Identifiers that do not exist in the network are ignored.
        self.known[node] |= set(new_ids) & self.ids

    def learn_shared(self, nodes, new_ids):
        nodes = list(nodes)
        for node in nodes:  # every learner is validated before anyone learns
            if node not in self.ids:
                raise UnknownNodeError(node)
        for node in nodes:
            self.learn(node, new_ids)

    def deliver(self, receiver, sender):
        # Receiving a global message teaches the receiver the sender's id.
        self.known[receiver].add(sender)

    def known_ids(self, node):
        return set(self.ids) if self.all_known else set(self.known[node])

    def first_unknown(self, pairs):
        for position, (sender, target) in enumerate(pairs):
            if target not in self.known_ids(sender):
                return position
        return None


def _use_backend(backend):
    """Select the array backend; returns the value to restore."""
    saved = _accel.np
    if backend == "python":
        _accel.np = None
    elif saved is None:
        pytest.skip("NumPy not available; vectorised leg is inactive")
    return saved


# ----------------------------------------------------------------------
# The bare tracker: initialize / learn / learn_shared / bulk pairs / probes
# ----------------------------------------------------------------------
def _tracker_ops(n):
    node = st.integers(0, n - 1)
    # A bogus id is one draw in n + 1, so most broadcasts succeed.
    node_or_bogus = st.sampled_from(list(range(n)) + [BOGUS_ID])
    ids = st.lists(node_or_bogus, max_size=5)
    pairs = st.lists(st.tuples(node, node), min_size=1, max_size=40)
    return st.lists(
        st.one_of(
            st.tuples(st.just("learn"), node, ids),
            st.tuples(st.just("shared"), st.lists(node_or_bogus, max_size=6), ids),
            st.tuples(st.just("pairs"), pairs),
            st.tuples(st.just("probe"), pairs),
        ),
        max_size=25,
    )


@st.composite
def tracker_scripts(draw):
    n = draw(st.integers(1, 10))
    neighbours = {
        v: draw(st.lists(st.integers(0, n - 1), max_size=3)) for v in range(n)
    }
    return n, neighbours, draw(st.booleans()), draw(_tracker_ops(n))


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=60, deadline=None)
@given(script=tracker_scripts())
def test_tracker_matches_reference(backend, script):
    n, neighbours, dense, ops = script
    # Identifiers are a scrambled, sparse image of the node indices.
    ids = [7919 * v + 3 for v in range(n)]
    saved = _use_backend(backend)
    try:
        tracker = KnowledgeTracker(ids)
        reference = ReferenceKnowledge(ids, all_known=dense)
        if dense:
            tracker.initialize_all_known()
        for v, around in neighbours.items():
            tracker.initialize_node(ids[v], [ids[u] for u in around])
            reference.learn(ids[v], [ids[u] for u in around])
        for op in ops:
            kind = op[0]
            if kind == "learn":
                learned = [ids[i] if i >= 0 else i for i in op[2]]
                tracker.learn(ids[op[1]], learned)
                reference.learn(ids[op[1]], learned)
            elif kind == "shared":
                learners = [ids[i] if i >= 0 else i for i in op[1]]
                learned = [ids[i] if i >= 0 else i for i in op[2]]
                outcomes = []
                for store in (tracker, reference):
                    try:
                        store.learn_shared(learners, learned)
                        outcomes.append(None)
                    except UnknownNodeError as exc:
                        outcomes.append(str(exc))
                assert outcomes[0] == outcomes[1]
            elif kind == "pairs":
                tracker.learn_pairs([r for r, _ in op[1]], [s for _, s in op[1]])
                for r, s in op[1]:
                    reference.learn(ids[r], [ids[s]])
            else:
                got = tracker.first_unknown([r for r, _ in op[1]], [s for _, s in op[1]])
                want = reference.first_unknown([(ids[r], ids[s]) for r, s in op[1]])
                assert got == want
                for r, s in op[1]:
                    known = ids[s] in reference.known_ids(ids[r])
                    assert tracker.knows(ids[r], ids[s]) == known
                    assert (tracker.first_unknown([r], [s]) is None) == known
            for v in range(n):
                assert tracker.known_ids(ids[v]) == reference.known_ids(ids[v])
    finally:
        _accel.np = saved


# ----------------------------------------------------------------------
# The simulator: construction adjacency, declarations, plane sends, delivery
# ----------------------------------------------------------------------
@st.composite
def simulator_scripts(draw):
    n = draw(st.integers(2, 10))
    edges = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                lambda e: e[0] != e[1]
            ),
            max_size=2 * n,
        )
    )
    node = st.integers(0, n - 1)
    # Sends of up to 48 tokens cover both the scalar (< 32) and the
    # vectorised plane-validation paths.
    sends = st.lists(st.tuples(node, node), min_size=1, max_size=48)
    ops = draw(
        st.lists(
            st.one_of(
                st.tuples(st.just("learn"), node, st.lists(node, max_size=3)),
                st.tuples(
                    st.just("bulk"),
                    st.lists(st.sampled_from(list(range(n)) + ["ghost"]), max_size=5),
                    st.lists(node, max_size=3),
                ),
                st.tuples(st.just("send"), sends),
            ),
            max_size=12,
        )
    )
    return n, edges, draw(st.booleans()), ops


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=60, deadline=None)
@given(script=simulator_scripts())
def test_simulator_matches_reference(backend, script):
    n, edges, dense, ops = script
    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    graph.add_edges_from(edges)
    saved = _use_backend(backend)
    try:
        config = ModelConfig.hybrid(strict=False) if dense else ModelConfig.hybrid0(strict=False)
        sim = HybridSimulator(graph, config, seed=n)
        id_of = sim.id_of
        reference = ReferenceKnowledge([id_of(v) for v in range(n)], all_known=dense)
        for u, v in graph.edges():
            reference.learn(id_of(u), [id_of(v)])
            reference.learn(id_of(v), [id_of(u)])
        for op in ops:
            kind = op[0]
            if kind == "learn":
                learned = [id_of(v) for v in op[2]] + [BOGUS_ID]
                sim.declare_learned_ids(op[1], learned)
                reference.learn(id_of(op[1]), learned)
            elif kind == "bulk":
                learned = [id_of(v) for v in op[2]]
                outcomes = []
                try:
                    sim.declare_learned_ids_bulk(op[1], learned)
                    outcomes.append(None)
                except UnknownNodeError as exc:
                    outcomes.append(str(exc))
                try:
                    reference.learn_shared(
                        [id_of(v) if v != "ghost" else v for v in op[1]], learned
                    )
                    outcomes.append(None)
                except UnknownNodeError as exc:
                    outcomes.append(str(exc))
                assert outcomes[0] == outcomes[1]
            else:
                senders = [s for s, _ in op[1]]
                receivers = [r for _, r in op[1]]
                offender = reference.first_unknown(
                    [(id_of(s), id_of(r)) for s, r in op[1]]
                )
                try:
                    sim.global_send_batch_ids(
                        senders, receivers, [None] * len(senders)
                    )
                    error = None
                except UnknownIdentifierError as exc:
                    error = str(exc)
                if offender is None:
                    assert error is None
                    sim.advance_round()
                    for s, r in op[1]:
                        reference.deliver(id_of(r), id_of(s))
                else:
                    s, r = op[1][offender]
                    assert error == (
                        f"node {s!r} does not know identifier {id_of(r)!r}"
                    )
            for v in range(n):
                assert sim.known_ids(v) == reference.known_ids(id_of(v))
    finally:
        _accel.np = saved
