"""Unit tests for the HYBRID(lambda, gamma) simulator: configuration, message
accounting, knowledge tracking, capacity enforcement and the round lifecycle."""

import random

import pytest

from repro.graphs.generators import path_graph, complete_graph
from repro.graphs.weighted import assign_uniform_weights
from repro.simulator.config import IdentifierRegime, ModelConfig, log2_ceil, word_bits
from repro.simulator.errors import (
    CapacityExceededError,
    LocalBandwidthExceededError,
    NotANeighborError,
    RoundLifecycleError,
    UnknownIdentifierError,
    UnknownNodeError,
)
from repro.simulator.knowledge import KnowledgeTracker
from repro.simulator.messages import GLOBAL_MODE, LOCAL_MODE, Message, payload_words
from repro.simulator.metrics import ChargeRecord, RoundMetrics
from repro.simulator.network import HybridSimulator, node_sort_key


class TestModelConfig:
    def test_log2_ceil(self):
        assert log2_ceil(1) == 1
        assert log2_ceil(2) == 1
        assert log2_ceil(3) == 2
        assert log2_ceil(1024) == 10

    def test_hybrid_defaults(self):
        config = ModelConfig.hybrid()
        assert config.local_mode_enabled()
        assert config.global_mode_enabled()
        assert not config.is_hybrid0()

    def test_hybrid0_is_sparse(self):
        assert ModelConfig.hybrid0().identifier_regime is IdentifierRegime.SPARSE

    def test_local_model_has_no_global_mode(self):
        config = ModelConfig.local()
        assert config.local_mode_enabled()
        assert not config.global_mode_enabled()

    def test_congest_has_finite_local_bandwidth(self):
        config = ModelConfig.congest()
        assert config.local_bits_per_edge is not None
        assert not config.global_mode_enabled()

    def test_ncc_has_no_local_mode(self):
        config = ModelConfig.ncc()
        assert not config.local_mode_enabled()
        assert config.global_mode_enabled()

    def test_congested_clique_budget_scales_with_n(self):
        config = ModelConfig.congested_clique(50)
        assert config.resolve_global_message_budget(50) == 49

    def test_default_budget_scales_logarithmically(self):
        config = ModelConfig.hybrid()
        assert config.resolve_global_message_budget(1024) == 10
        assert config.resolve_global_word_budget(1024) == 10 * config.words_per_message

    def test_parameterized_constructor(self):
        config = ModelConfig.hybrid_parameterized(64, 5, sparse_ids=True)
        assert config.local_bits_per_edge == 64
        assert config.resolve_global_message_budget(100) == 5
        assert config.is_hybrid0()


class TestPayloadWords:
    def test_primitives_cost_one_word(self):
        assert payload_words(7) == 1
        assert payload_words(3.14) == 1
        assert payload_words(None) == 1
        assert payload_words(True) == 1

    def test_big_int_costs_more(self):
        assert payload_words(1 << 200) >= 4

    def test_string_cost_scales_with_length(self):
        assert payload_words("abc") == 1
        assert payload_words("a" * 64) == 8

    def test_container_costs_sum_plus_framing(self):
        assert payload_words((1, 2, 3)) == 4
        assert payload_words({"a": 1}) == 3

    def test_message_words_include_tag(self):
        message = Message(0, 1, (1, 2), "global", tag="x")
        assert message.words == payload_words((1, 2)) + 1


class TestKnowledgeTracker:
    def test_initial_knowledge_is_self_and_neighbors(self):
        tracker = KnowledgeTracker([10, 20, 30])
        tracker.initialize_node(10, [20])
        assert tracker.knows(10, 10)
        assert tracker.knows(10, 20)
        assert not tracker.knows(10, 30)

    def test_learning_new_ids(self):
        tracker = KnowledgeTracker([10, 20, 30])
        tracker.initialize_node(10, [])
        tracker.learn(10, [30])
        assert tracker.knows(10, 30)

    def test_learning_nonexistent_id_is_ignored(self):
        tracker = KnowledgeTracker([10, 20])
        tracker.initialize_node(10, [])
        tracker.learn(10, [999])
        assert not tracker.knows(10, 999)

    def test_all_known_initialization(self):
        tracker = KnowledgeTracker([1, 2, 3])
        tracker.initialize_all_known()
        assert tracker.knows(1, 3)
        assert tracker.knowledge_count(2) == 3

    def test_unknown_node_raises(self):
        tracker = KnowledgeTracker([1])
        with pytest.raises(UnknownNodeError):
            tracker.knows(99, 1)


class TestKnowledgeStore:
    """The index-space store behind KnowledgeTracker: pair keys, groups and
    the dense flag, on both backends."""

    IDS = [100 + 7 * i for i in range(64)]

    def _tracker(self):
        tracker = KnowledgeTracker(self.IDS)
        tracker.initialize_node(self.IDS[0], [self.IDS[1]])
        return tracker

    def test_every_node_knows_itself(self, backend):
        tracker = KnowledgeTracker(self.IDS)
        assert all(tracker.knows(i, i) for i in self.IDS)
        assert tracker.known_ids(self.IDS[5]) == {self.IDS[5]}

    def test_learn_pairs_is_visible_through_every_probe(self, backend):
        tracker = self._tracker()
        tracker.learn_pairs([0, 0, 0, 3], [7, 11, 0, 7])
        ids = self.IDS
        assert tracker.knows(ids[0], ids[11])
        assert not tracker.knows(ids[0], ids[12])
        assert tracker.knows_index(3, 7) and not tracker.knows_index(7, 3)
        assert tracker.known_ids(ids[0]) == {ids[0], ids[1], ids[7], ids[11]}
        assert tracker.knowledge_count(ids[3]) == 2
        # Self pairs are implicit and never stored.
        assert len(tracker._keys) == 4

    def test_geometric_merge_keeps_membership_exact(self, backend):
        rng = random.Random(13)
        tracker = KnowledgeTracker(range(4096))
        expected = {node: {node} for node in range(4096)}
        for _ in range(60):
            learners = [rng.randrange(8) for _ in range(rng.randrange(1, 40))]
            learned = [rng.randrange(4096) for _ in learners]
            tracker.learn_pairs(learners, learned)
            for r, s in zip(learners, learned):
                expected[r].add(s)
        for node in range(8):
            assert tracker.known_ids(node) == expected[node]
        if backend == "numpy":
            # Two sorted, disjoint levels; the recent buffer stays under a
            # quarter of the snapshot.
            snapshot, recent = tracker._keys.snapshot, tracker._keys.recent
            for level in (snapshot, recent):
                assert level.tolist() == sorted(set(level.tolist()))
            assert not set(snapshot.tolist()) & set(recent.tolist())
            assert 4 * recent.size < snapshot.size

    def test_first_unknown_names_the_first_missing_pair(self, backend):
        tracker = self._tracker()
        tracker.learn_pairs([2], [9])
        assert tracker.first_unknown([0, 2, 5], [1, 9, 5]) is None
        assert tracker.first_unknown([0, 2, 3, 4], [1, 9, 8, 2]) == 2
        assert tracker.first_unknown([], []) is None

    def test_broadcasts_become_one_group(self, backend):
        tracker = KnowledgeTracker(range(5000))
        leaders = [3, 50, 4000, -1]  # -1 is bogus and ignored
        tracker.learn_shared(range(4999), leaders)
        assert len(tracker._groups) == 1 and len(tracker._keys) == 0
        assert tracker.knows(17, 4000) and not tracker.knows(17, 51)
        assert not tracker.knows(4999, 50)
        assert tracker.known_ids(17) == {3, 17, 50, 4000}
        assert tracker.first_unknown([17, 17, 4999], [50, 17, 3]) == 2
        tracker.learn_pairs([4999], [3])
        assert tracker.first_unknown([17, 4999], [50, 3]) is None

    def test_learn_shared_validates_every_learner_first(self, backend):
        tracker = KnowledgeTracker([1, 2, 3])
        with pytest.raises(UnknownNodeError):
            tracker.learn_shared([1, 2, 99], [3])
        assert tracker.known_ids(1) == {1}
        assert tracker.known_ids(2) == {2}

    def test_dense_flag_knows_everything(self, backend):
        tracker = KnowledgeTracker([5, 6, 7])
        tracker.initialize_all_known()
        tracker.learn_pairs([0], [1])
        assert tracker.known_ids(5) == {5, 6, 7}
        assert tracker.first_unknown([0, 1], [2, 0]) is None
        assert not tracker.knows(5, 8)

    def test_backend_is_fixed_at_construction(self, monkeypatch):
        from repro.simulator import _accel

        if _accel.np is None:
            pytest.skip("NumPy not available; vectorised leg is inactive")
        tracker = self._tracker()
        tracker.learn_pairs(_accel.np.array([0]), _accel.np.array([21]))
        monkeypatch.setattr(_accel, "np", None)
        tracker.learn_pairs([0], [42])
        ids = self.IDS
        assert tracker.knows(ids[0], ids[42])
        assert tracker.known_ids(ids[0]) == {ids[0], ids[1], ids[21], ids[42]}
        assert tracker.first_unknown([0, 0], [21, 43]) == 1


class TestRoundMetrics:
    def test_charge_accumulates(self):
        metrics = RoundMetrics()
        metrics.charge(5, "setup")
        metrics.charge(3, "more setup", "Lemma X")
        assert metrics.charged_rounds == 8
        assert metrics.total_rounds == 8
        assert metrics.charges[1] == ChargeRecord(3, "more setup", "Lemma X")

    def test_zero_charge_is_noop(self):
        metrics = RoundMetrics()
        metrics.charge(0, "nothing")
        assert metrics.charges == []

    def test_negative_charge_rejected(self):
        with pytest.raises(ValueError):
            RoundMetrics().charge(-1, "bad")

    def test_merge(self):
        a = RoundMetrics(measured_rounds=2, global_messages=3)
        b = RoundMetrics(measured_rounds=1, local_messages=4)
        b.charge(7, "x")
        merged = a.merge(b)
        assert merged.measured_rounds == 3
        assert merged.global_messages == 3
        assert merged.local_messages == 4
        assert merged.charged_rounds == 7

    def test_summary_keys(self):
        summary = RoundMetrics().summary()
        assert "total_rounds" in summary
        assert "capacity_violations" in summary


class TestSimulatorBasics:
    def test_rejects_empty_graph(self):
        import networkx as nx

        with pytest.raises(ValueError):
            HybridSimulator(nx.Graph())

    def test_dense_ids_are_node_labels(self):
        sim = HybridSimulator(path_graph(5), ModelConfig.hybrid())
        assert sim.id_of(3) == 3
        assert sim.node_of_id(3) == 3

    def test_sparse_ids_are_distinct_and_resolvable(self):
        sim = HybridSimulator(path_graph(6), ModelConfig.hybrid0(), seed=1)
        ids = [sim.id_of(v) for v in sim.nodes]
        assert len(set(ids)) == 6
        for v in sim.nodes:
            assert sim.node_of_id(sim.id_of(v)) == v

    def test_sparse_id_universe_is_capped_for_huge_graphs(self):
        """n^3 overflows a C ssize_t past n ~ 2*10^6; the capped universe
        keeps random.sample viable and every id inside int64 (packed
        knowledge arrays), while staying bit-identical below the cap."""
        from repro.simulator.network import _ID_UNIVERSE_CAP, _identifier_universe

        assert _identifier_universe(6) == 6**3
        assert _identifier_universe(1) == 8
        assert _identifier_universe(10_000_000) == _ID_UNIVERSE_CAP
        assert _ID_UNIVERSE_CAP < 2**63  # ssize_t and int64 safe
        # The draw that used to raise OverflowError at n=10^7:
        drawn = random.Random(0).sample(range(_identifier_universe(10_000_000)), 5)
        assert len(set(drawn)) == 5

    def test_neighbors(self):
        sim = HybridSimulator(path_graph(5))
        assert sim.neighbors(0) == [1]
        assert sim.neighbors(2) == [1, 3]

    def test_unknown_node_raises(self):
        sim = HybridSimulator(path_graph(3))
        with pytest.raises(UnknownNodeError):
            sim.neighbors(17)

    def test_edge_weight_accessor(self):
        graph = assign_uniform_weights(path_graph(3), 4)
        sim = HybridSimulator(graph)
        assert sim.edge_weight(0, 1) == 4

    def test_inbox_before_first_round_raises(self):
        sim = HybridSimulator(path_graph(3))
        with pytest.raises(RoundLifecycleError):
            sim.local_inbox(0)


class TestLocalMode:
    def test_local_send_delivers_next_round(self):
        sim = HybridSimulator(path_graph(3))
        sim.local_send_batch_ids([0], [1], ["hello"])
        sim.advance_round()
        inbox = sim.local_inbox(1)
        assert len(inbox) == 1
        assert inbox[0].payload == "hello"
        assert sim.local_inbox(0) == []

    def test_local_send_requires_edge(self):
        sim = HybridSimulator(path_graph(3))
        with pytest.raises(NotANeighborError):
            sim.local_send_batch_ids([0], [2], ["nope"])

    def test_local_mode_disabled_in_ncc(self):
        sim = HybridSimulator(path_graph(3), ModelConfig.ncc())
        with pytest.raises(LocalBandwidthExceededError):
            sim.local_send_batch_ids([0], [1], ["x"])

    def test_congest_local_bandwidth_enforced(self):
        sim = HybridSimulator(path_graph(3), ModelConfig.congest())
        sim.local_send_batch_ids([0], [1], [5])  # one word is fine
        with pytest.raises(LocalBandwidthExceededError):
            sim.local_send_batch_ids([0], [1], [tuple(range(50))])

    def test_local_messages_unbounded_in_hybrid(self):
        sim = HybridSimulator(path_graph(3), ModelConfig.hybrid())
        sim.local_send_batch_ids([0], [1], [tuple(range(1000))])  # arbitrarily large is legal
        sim.advance_round()
        assert sim.local_inbox(1)[0].payload == tuple(range(1000))


class TestGlobalMode:
    def test_global_send_any_pair_in_hybrid(self):
        sim = HybridSimulator(path_graph(6), ModelConfig.hybrid())
        sim.global_send_batch_ids([0], [5], ["far away"])
        sim.advance_round()
        assert sim.global_inbox(5)[0].payload == "far away"

    def test_global_send_unknown_identifier_in_hybrid0(self):
        sim = HybridSimulator(path_graph(6), ModelConfig.hybrid0(), seed=0)
        with pytest.raises(UnknownIdentifierError):
            sim.global_send_batch_ids([0], [5], ["nope"])

    def test_global_send_to_neighbor_allowed_in_hybrid0(self):
        sim = HybridSimulator(path_graph(6), ModelConfig.hybrid0(), seed=0)
        sim.global_send_batch_ids([0], [1], ["ok"])
        sim.advance_round()
        assert sim.global_inbox(1)[0].payload == "ok"

    def test_receiving_teaches_sender_id(self):
        sim = HybridSimulator(path_graph(6), ModelConfig.hybrid0(), seed=0)
        # 0 -> 1 is allowed (neighbors); afterwards 1 knows 0's id (already did),
        # but 1 -> 3 is not; teach 1 about 3 explicitly, then 3 learns 1's id by
        # receiving and can reply.
        sim.declare_learned_ids(1, [sim.id_of(3)])
        sim.global_send_batch_ids([1], [3], ["ping"])
        sim.advance_round()
        assert sim.knows_id(3, sim.id_of(1))
        sim.global_send_batch_ids([3], [1], ["pong"])
        sim.advance_round()
        assert sim.global_inbox(1)[0].payload == "pong"

    def test_declare_learned_ids_bulk_is_atomic(self):
        sim = HybridSimulator(path_graph(6), ModelConfig.hybrid0(), seed=0)
        ids = [sim.id_of(5)]
        before = {node: sim.known_ids(node) for node in sim.nodes}
        with pytest.raises(UnknownNodeError):
            sim.declare_learned_ids_bulk([0, 1, "ghost", 2], ids)
        # Validation precedes storage: nobody learned anything.
        assert {node: sim.known_ids(node) for node in sim.nodes} == before
        sim.declare_learned_ids_bulk([0, 1, 2], ids)
        assert all(sim.knows_id(node, ids[0]) for node in (0, 1, 2))
        assert not sim.knows_id(3, ids[0])

    def test_sender_is_learned_when_an_earlier_shard_was_dropped(self):
        """A plane split over two rounds: the first shard is lost to a crash
        of the receiver, the second is delivered and must teach it."""
        from repro.simulator.engine import TokenPlane
        from repro.simulator.faults import CrashEvent, FaultSchedule

        sim = HybridSimulator(
            path_graph(6),
            ModelConfig.hybrid0(strict=False),
            seed=3,
            fault_schedule=FaultSchedule(crashes=(CrashEvent(4, 0, 1),)),
        )
        sim.declare_learned_ids(1, [sim.id_of(4)])
        plane = TokenPlane([1] * 64, [4] * 64, [1] * 64, list(range(64)))
        sim.global_send_plane(plane, list(range(32)))
        sim.advance_round()
        assert sim.metrics.dropped_messages == 32
        assert not sim.knows_id(4, sim.id_of(1))
        sim.global_send_plane(plane, list(range(32, 64)))
        sim.advance_round()
        assert len(sim.per_node_inbox(GLOBAL_MODE)[4]) == 32
        assert sim.knows_id(4, sim.id_of(1))

    def test_global_mode_disabled_in_local_model(self):
        sim = HybridSimulator(path_graph(4), ModelConfig.local())
        with pytest.raises(CapacityExceededError):
            sim.global_send_batch_ids([0], [2], ["x"])

    def test_send_capacity_enforced(self):
        sim = HybridSimulator(path_graph(40), ModelConfig.hybrid())
        budget = sim.global_budget_words()
        for target in range(1, budget + 2):
            sim.global_send_batch_ids([0], [target], [1])
        with pytest.raises(CapacityExceededError):
            sim.advance_round()
        assert sim.metrics.capacity_violations >= 1

    def test_send_within_capacity_passes(self):
        sim = HybridSimulator(path_graph(40), ModelConfig.hybrid())
        budget = sim.global_budget_words()
        sim.global_send_batch_ids([0] * budget, list(range(1, budget + 1)), [1] * budget)
        sim.advance_round()
        assert sim.metrics.capacity_violations == 0

    def test_receive_overload_recorded_but_not_fatal_by_default(self):
        sim = HybridSimulator(complete_graph(40), ModelConfig.hybrid())
        budget = sim.global_budget_words()
        senders = list(range(1, budget + 5))
        sim.global_send_batch_ids(senders, [0] * len(senders), [1] * len(senders))
        sim.advance_round()
        assert sim.metrics.capacity_violations >= 1
        assert len(sim.global_inbox(0)) == budget + 4

    def test_receive_overload_raises_when_enforced(self):
        sim = HybridSimulator(
            complete_graph(40), ModelConfig.hybrid(), enforce_receive_capacity=True
        )
        budget = sim.global_budget_words()
        for sender in range(1, budget + 5):
            sim.global_send_batch_ids([sender], [0], [1])
        with pytest.raises(CapacityExceededError):
            sim.advance_round()

    def test_capacity_multiplier_relaxes_budget(self):
        tight = HybridSimulator(path_graph(40), ModelConfig.hybrid())
        loose = HybridSimulator(path_graph(40), ModelConfig.hybrid(), capacity_multiplier=3)
        assert loose.global_budget_words() == 3 * tight.global_budget_words()


class TestNodeOrdering:
    """Regression: integer nodes must order numerically, not as strings
    (0, 1, 10, 11, ..., 2 was the old ``key=str`` ordering)."""

    def test_nodes_are_numerically_sorted(self):
        sim = HybridSimulator(path_graph(12))
        assert sim.nodes == list(range(12))

    def test_neighbors_are_numerically_sorted(self):
        sim = HybridSimulator(path_graph(12))
        assert sim.neighbors(10) == [9, 11]
        assert sim.neighbors(2) == [1, 3]

    def test_node_sort_key_orders_integers_numerically(self):
        values = [0, 1, 10, 11, 2, 20, 3]
        assert sorted(values, key=node_sort_key) == sorted(values)

    def test_node_sort_key_handles_mixed_types(self):
        import networkx as nx

        graph = nx.Graph()
        graph.add_edge(0, "a")
        graph.add_edge("a", 10)
        graph.add_edge(10, 2)
        sim = HybridSimulator(graph)
        # Numbers first (numerically), then strings.
        assert sim.nodes == [0, 2, 10, "a"]


class TestBatchSending:
    def test_local_send_batch_ids_delivers_prebucketed(self):
        sim = HybridSimulator(path_graph(4))
        queued = sim.local_send_batch_ids([0, 2, 2], [1, 1, 3], ["a", "b", "c"])
        assert queued == 3
        sim.advance_round()
        inbox = sim.per_node_inbox(LOCAL_MODE)
        assert [record[1] for record in inbox[1]] == ["a", "b"]
        assert [record[1] for record in inbox[3]] == ["c"]
        assert 0 not in inbox

    def test_batch_records_carry_sender_tag_and_words(self):
        sim = HybridSimulator(path_graph(4), ModelConfig.hybrid())
        sim.global_send_batch_ids([0], [2], [(1, 2, 3)], tag="t")
        sim.advance_round()
        ((sender, payload, tag, words),) = sim.per_node_inbox(GLOBAL_MODE)[2]
        assert sender == 0
        assert payload == (1, 2, 3)
        assert tag == "t"
        assert words == payload_words((1, 2, 3)) + payload_words("t")

    def test_precomputed_words_are_trusted(self):
        sim = HybridSimulator(path_graph(4), ModelConfig.hybrid())
        sim.global_send_batch_ids([0], [2], ["payload"], words=[7])
        sim.advance_round()
        assert sim.per_node_inbox(GLOBAL_MODE)[2][0][3] == 7
        assert sim.metrics.global_words == 7

    def test_batch_send_validates_edges(self):
        sim = HybridSimulator(path_graph(4))
        with pytest.raises(NotANeighborError):
            sim.local_send_batch_ids([0, 0], [1, 3], ["ok", "not adjacent"])

    def test_batch_send_validates_nodes(self):
        sim = HybridSimulator(path_graph(4), ModelConfig.hybrid())
        with pytest.raises(UnknownNodeError):
            sim.global_send_batch_ids([0], [99], ["nope"])

    def test_batch_knowledge_enforced_in_hybrid0(self):
        sim = HybridSimulator(path_graph(6), ModelConfig.hybrid0(), seed=0)
        with pytest.raises(UnknownIdentifierError):
            sim.global_send_batch_ids([0], [5], ["unknown target"])

    def test_batch_capacity_accounting_matches_per_message(self):
        sim = HybridSimulator(path_graph(40), ModelConfig.hybrid())
        budget = sim.global_budget_words()
        count = budget + 1
        sim.global_send_batch_ids([0] * count, list(range(1, count + 1)), [1] * count)
        with pytest.raises(CapacityExceededError):
            sim.advance_round()
        assert sim.metrics.capacity_violations >= 1

    def test_small_shards_of_a_large_plane_cost_the_shard(self):
        """Single-position shards of a 1000-token plane deliver exactly what
        one bulk shard per round delivers, and no column conversion touches
        more elements than the shard it serves."""
        from repro.simulator import _accel
        from repro.simulator.engine import TokenPlane

        np = _accel.np
        if np is None:
            pytest.skip("column conversions are only observable on NumPy planes")
        converted = []

        class RecordingColumn(np.ndarray):
            def tolist(self):
                converted.append(self.size)
                return super().tolist()

        n, rounds = 40, 25
        senders = [i % n for i in range(n * rounds)]
        receivers = [(7 * i + 1 + i // n) % n for i in range(n * rounds)]
        receivers = [r if r != s else (r + 1) % n for s, r in zip(senders, receivers)]
        payloads = [("token", i) for i in range(n * rounds)]
        words = [payload_words(p) for p in payloads]

        def run(single):
            sim = HybridSimulator(complete_graph(n), ModelConfig.hybrid0(), seed=0)
            plane = TokenPlane(senders, receivers, words, payloads)
            if single:
                for column in ("senders", "receivers", "words"):
                    setattr(plane, column, getattr(plane, column).view(RecordingColumn))
            inboxes = []
            for r in range(rounds):
                positions = range(r * n, (r + 1) * n)
                if single:
                    for p in positions:
                        sim.global_send_plane(plane, [p], tag="s")
                else:
                    sim.global_send_plane(plane, list(positions), tag="s")
                sim.advance_round()
                inboxes.append(sim.per_node_inbox(GLOBAL_MODE))
            return sim, inboxes

        shard_sim, shard_inboxes = run(single=True)
        bulk_sim, bulk_inboxes = run(single=False)
        assert shard_inboxes == bulk_inboxes
        assert sum(len(v) for inbox in shard_inboxes for v in inbox.values()) == n * rounds
        assert shard_sim.metrics.summary() == bulk_sim.metrics.summary()
        assert shard_sim.metrics.global_messages == n * rounds
        assert converted and max(converted) <= 1

    def test_exchange_does_not_harvest_foreign_traffic(self):
        from repro.simulator.engine import batched_global_exchange

        sim = HybridSimulator(path_graph(6), ModelConfig.hybrid())
        sim.global_send_batch_ids([0], [4], ["foreign"], tag="other")
        delivered = batched_global_exchange(sim, [(1, 2, "mine")], tag="x")
        assert delivered == {2: ["mine"]}
        # The foreign message was still delivered in that round, just not
        # folded into the exchange's result.
        assert [r[1] for r in sim.per_node_inbox(GLOBAL_MODE)[4]] == ["foreign"]

    def test_per_node_inbox_requires_delivered_round(self):
        sim = HybridSimulator(path_graph(3))
        with pytest.raises(RoundLifecycleError):
            sim.per_node_inbox()

    def test_per_node_inbox_rejects_unknown_mode(self):
        sim = HybridSimulator(path_graph(3))
        sim.advance_round()
        with pytest.raises(ValueError):
            sim.per_node_inbox("carrier-pigeon")


class TestRoundLifecycle:
    def test_round_counter_increments(self):
        sim = HybridSimulator(path_graph(3))
        assert sim.round == 0
        sim.advance_round()
        sim.advance_round()
        assert sim.round == 2
        assert sim.metrics.measured_rounds == 2

    def test_advance_rounds_bulk(self):
        sim = HybridSimulator(path_graph(3))
        sim.advance_rounds(5)
        assert sim.round == 5
        with pytest.raises(ValueError):
            sim.advance_rounds(-1)

    def test_inboxes_are_per_round(self):
        sim = HybridSimulator(path_graph(3))
        sim.local_send_batch_ids([0], [1], ["first"])
        sim.advance_round()
        assert len(sim.local_inbox(1)) == 1
        sim.advance_round()
        assert sim.local_inbox(1) == []

    def test_charge_rounds_recorded(self):
        sim = HybridSimulator(path_graph(3))
        sim.charge_rounds(11, "analysis", "Lemma 4.1")
        assert sim.metrics.charged_rounds == 11
        assert sim.metrics.total_rounds == 11

    def test_message_accounting(self):
        sim = HybridSimulator(path_graph(4), ModelConfig.hybrid())
        sim.local_send_batch_ids([0], [1], ["a"])
        sim.global_send_batch_ids([0], [3], ["b"])
        sim.advance_round()
        assert sim.metrics.local_messages == 1
        assert sim.metrics.global_messages == 1
        assert sim.metrics.global_words >= 1
