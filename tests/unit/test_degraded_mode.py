"""Degraded capacity mode (``ModelConfig(strict=False)``) test coverage.

In strict mode (the default, used everywhere the paper claims a budget holds)
capacity overruns raise; with ``strict=False`` they must be *counted* in
``RoundMetrics.capacity_violations`` while the traffic is still delivered —
and the count must be identical whichever capacity counters carried the
messages (one bulk plane, swept as dense arrays, or small plane shards,
swept as per-node dict counters), including the oversized-message branches
where a single token exceeds the whole per-node or per-edge budget.
"""

from __future__ import annotations

import pytest

from repro.graphs.generators import path_graph
from repro.simulator.config import ModelConfig
from repro.simulator.engine import BatchAlgorithm, TokenPlane
from repro.simulator.errors import (
    CapacityExceededError,
    LocalBandwidthExceededError,
)
from repro.simulator.faults import CapacityDegradation, FaultSchedule
from repro.simulator.messages import GLOBAL_MODE, LOCAL_MODE, payload_words
from repro.simulator.network import HybridSimulator
from schedule_oracle import expected_exchange


def _overflow_workload(sim):
    """One sender exceeds its send budget by a few one-word messages."""
    budget = sim.global_budget_words()
    count = budget + 3
    receivers = [1 + (i % (sim.n - 1)) for i in range(count)]
    return [0] * count, receivers, ["x"] * count


def _send_global(sim, senders, receivers, payloads, path):
    """Queue one round of global traffic as one bulk plane, or as shards
    below the simulator's small-shard cutoff (per-node dict counters)."""
    plane = TokenPlane(senders, receivers, [payload_words(p) for p in payloads], payloads)
    if path == "bulk":
        sim.global_send_plane(plane)
        return
    step = HybridSimulator._SMALL_SHARD // 2
    for start in range(0, len(payloads), step):
        sim.global_send_plane(plane, list(range(start, min(start + step, len(payloads)))))


# ----------------------------------------------------------------------
# Send-side overflow: counted through both send paths, raised in strict
# ----------------------------------------------------------------------
def test_send_overflow_counted_identically_through_both_paths():
    graph = path_graph(12)
    config = ModelConfig.hybrid(strict=False)

    bulk_sim = HybridSimulator(graph, config, seed=0)
    senders, receivers, payloads = _overflow_workload(bulk_sim)
    _send_global(bulk_sim, senders, receivers, payloads, "bulk")
    bulk_sim.advance_round()

    shard_sim = HybridSimulator(graph, config, seed=0)
    _send_global(shard_sim, senders, receivers, payloads, "small-shards")
    shard_sim.advance_round()

    assert bulk_sim.metrics.capacity_violations == 1
    assert bulk_sim.metrics.summary() == shard_sim.metrics.summary()
    # Degraded mode still delivers everything.
    assert bulk_sim.per_node_inbox(GLOBAL_MODE) == shard_sim.per_node_inbox(GLOBAL_MODE)
    assert sum(len(v) for v in bulk_sim.per_node_inbox(GLOBAL_MODE).values()) == len(payloads)


def _multi_offender_workload(sim, side):
    """Nodes 17, 4 and 11 overrun the full budget on ``side`` and node 1
    overruns half of it, queued in an order that is not the node order; the
    other side of every message stays under budget."""
    budget = sim.global_budget_words()
    loaded, peers = [], []
    overruns = ((17, budget + 9), (4, budget + 2), (11, budget + 5), (1, budget // 2 + 5))
    for node, count in overruns:
        for i in range(count):
            peer = i % (sim.n - 1)
            loaded.append(node)
            peers.append(peer + (peer >= node))
    if side == "sent":
        return loaded, peers, ["x"] * len(loaded)
    return peers, loaded, ["x"] * len(loaded)


def _strict_overflow_message(path, workload, schedule):
    graph = path_graph(24)
    sim = HybridSimulator(graph, ModelConfig.hybrid(), seed=0, fault_schedule=schedule)
    if workload == "single-sender":
        senders, receivers, payloads = _overflow_workload(sim)
    else:
        sim.enforce_receive_capacity = workload == "multi-receiver"
        side = "sent" if workload == "multi-sender" else "received"
        senders, receivers, payloads = _multi_offender_workload(sim, side)
    _send_global(sim, senders, receivers, payloads, path)
    with pytest.raises(CapacityExceededError) as excinfo:
        sim.advance_round()
    return str(excinfo.value)


@pytest.mark.parametrize("degraded", [False, True], ids=["healthy", "degraded"])
@pytest.mark.parametrize(
    "workload,verb",
    [("single-sender", "sent"), ("multi-sender", "sent"), ("multi-receiver", "received")],
)
def test_send_overflow_raises_in_strict_mode(workload, verb, degraded):
    # Both counter paths raise and name the same node: the lowest-index
    # offender, whichever capacity sweep (array or per-node) ran.  A
    # node-scoped degradation moves bulk rounds onto the per-node sweep too
    # and makes node 1 the lowest offender.
    schedule = (
        FaultSchedule(degradations=(CapacityDegradation(0.5, node=1),))
        if degraded
        else None
    )
    bulk_message = _strict_overflow_message("bulk", workload, schedule)
    shard_message = _strict_overflow_message("small-shards", workload, schedule)
    assert bulk_message == shard_message
    offender = 0 if workload == "single-sender" else 1 if degraded else 4
    assert bulk_message.startswith(f"node {offender} {verb} ")


# ----------------------------------------------------------------------
# Receive-side overflow: recorded in both modes, raised only when enforced
# ----------------------------------------------------------------------
@pytest.mark.parametrize("strict", [True, False])
def test_receive_overflow_is_recorded_identically(strict):
    graph = path_graph(30)
    config = ModelConfig.hybrid(strict=strict)
    budget = HybridSimulator(graph, config).global_budget_words()
    count = budget + 4
    senders = list(range(1, count + 1))

    bulk_sim = HybridSimulator(graph, config, seed=1)
    _send_global(bulk_sim, senders, [0] * count, ["y"] * count, "bulk")
    bulk_sim.advance_round()

    shard_sim = HybridSimulator(graph, config, seed=1)
    _send_global(shard_sim, senders, [0] * count, ["y"] * count, "small-shards")
    shard_sim.advance_round()

    # Receive overload raises only under enforce_receive_capacity; by default
    # both strictness modes just count it — one violation, same summary.
    assert bulk_sim.metrics.capacity_violations == 1
    assert bulk_sim.metrics.summary() == shard_sim.metrics.summary()

    enforcing = HybridSimulator(graph, config, seed=1)
    enforcing.enforce_receive_capacity = True
    enforcing.global_send_batch_ids(senders, [0] * count, ["y"] * count)
    if strict:
        with pytest.raises(CapacityExceededError):
            enforcing.advance_round()
    else:
        enforcing.advance_round()
        assert enforcing.metrics.capacity_violations == 1


# ----------------------------------------------------------------------
# Local oversized-message branch (finite lambda)
# ----------------------------------------------------------------------
def test_local_oversized_is_counted_and_delivered(backend):
    graph = path_graph(8)
    config = ModelConfig.congest(strict=False)
    limit = config.resolve_local_word_limit()
    assert limit is not None
    payload = "z" * (8 * (limit + 2))  # > limit words

    sim = HybridSimulator(graph, config, seed=0)
    sim.local_send_batch_ids([0, 1], [1, 2], [payload, payload])
    sim.advance_round()

    words = payload_words(payload)
    assert sim.metrics.capacity_violations == 2
    assert (sim.metrics.local_messages, sim.metrics.local_words) == (2, 2 * words)
    assert sim.per_node_inbox(LOCAL_MODE) == {
        1: [(0, payload, None, words)],
        2: [(1, payload, None, words)],
    }


def test_local_oversized_raises_in_strict_mode(backend):
    config = ModelConfig.congest()
    sim = HybridSimulator(path_graph(8), config, seed=0)
    payload = "z" * (8 * (config.resolve_local_word_limit() + 2))
    with pytest.raises(LocalBandwidthExceededError):
        sim.local_send_batch_ids([0], [1], [payload])


# ----------------------------------------------------------------------
# Oversized global tokens through the full exchange
# ----------------------------------------------------------------------
class _OversizedExchange(BatchAlgorithm):
    """One-phase algorithm pushing a workload with oversized tokens."""

    def __init__(self, simulator, triples):
        super().__init__(simulator)
        self.triples = triples
        self.delivered = None

    def phases(self):
        return (("oversized-exchange", self._phase),)

    def _phase(self):
        self.delivered = self.exchange(list(self.triples), "dm")

    def finish(self):
        return self.delivered


def test_exchange_matches_the_reference_schedule_in_degraded_mode(backend):
    graph = path_graph(16)
    config = ModelConfig.hybrid(strict=False)
    budget = HybridSimulator(graph, config).global_budget_words()
    oversized = "w" * (8 * (budget + 5))
    triples = [(i % 4, 8 + (i % 4), ("t", i)) for i in range(20)]
    triples.insert(7, (5, 9, oversized))
    triples.append((6, 10, oversized))

    sim = HybridSimulator(graph, config, seed=2)
    expected = expected_exchange(budget, triples, "dm")
    delivered = _OversizedExchange(sim, triples).run()
    expected.assert_matches(delivered, sim.metrics)
    assert delivered[9].count(oversized) == 1
    assert delivered[10].count(oversized) == 1
    assert sim.metrics.capacity_violations > 0


# ----------------------------------------------------------------------
# Degradation-induced overflow (fault schedule x strictness)
# ----------------------------------------------------------------------
def test_degradation_induced_overflow_is_counted_not_raised():
    graph = path_graph(10)
    schedule = FaultSchedule(degradations=(CapacityDegradation(0.25),))
    full_budget = HybridSimulator(graph, ModelConfig.hybrid()).global_budget_words()

    sim = HybridSimulator(
        graph, ModelConfig.hybrid(strict=False), seed=0, fault_schedule=schedule
    )
    degraded_budget = sim.global_budget_words()
    assert degraded_budget < full_budget
    # Legal under the healthy budget, an overrun under the degraded one.
    receivers = [1 + (i % 8) for i in range(full_budget)]
    sim.global_send_batch_ids([0] * full_budget, receivers, ["d"] * full_budget)
    sim.advance_round()
    assert sim.metrics.capacity_violations == 1

    strict_sim = HybridSimulator(
        graph, ModelConfig.hybrid(), seed=0, fault_schedule=schedule
    )
    strict_sim.global_send_batch_ids([0] * full_budget, receivers, ["d"] * full_budget)
    with pytest.raises(CapacityExceededError):
        strict_sim.advance_round()
