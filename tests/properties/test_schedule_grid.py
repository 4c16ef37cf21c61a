"""Schedule property grid for the round planner on graph-family workloads.

:func:`~repro.simulator.engine.plan_token_rounds` must be **token-for-token
schedule-identical** to the greedy reference (``_reference_shard_transfers``)
and must satisfy the greedy-FIFO contract on its own terms: every token is
scheduled exactly once, positions ascend within a round, every round fits the
per-node budget (or forces exactly one oversized token when nothing fits), and
a token only waits when an earlier round had no room left at its sender or its
receiver.  The grid crosses six graph families, three seeds, four budgets and
both array backends; workloads are congested groups derived from each
family's node set.

Groups that share no sender counter and no receiver counter are independent
under the greedy scan, so the whole schedule is the round-by-round,
ascending-position union of the groups' schedules — checked for node-disjoint
groups and for groups that share nodes across roles only.  Exchange- and
algorithm-level tests pin that an exchange delivers what the reference
schedule predicts, in the number of rounds the planner predicts, and that a
whole dissemination run is identical on both backends.
"""

from __future__ import annotations

import random
from collections import defaultdict

import pytest

from repro.core.dissemination import KDissemination
from repro.graphs.generators import (
    barbell_graph,
    broom_graph,
    cycle_graph,
    erdos_renyi_graph,
    grid_graph,
    path_graph,
)
from repro.simulator.config import ModelConfig
from repro.simulator.engine import (
    ExchangeTag,
    TokenPlane,
    _reference_shard_transfers,
    batched_global_exchange,
    plan_token_rounds,
)
from repro.simulator.messages import payload_words
from repro.simulator.network import HybridSimulator
from schedule_oracle import expected_exchange

SEEDS = [0, 1, 2]
BUDGETS = [8, 13, 24, 57]

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
# Workload generators (node indices in [0, n); words >= 1)
# ----------------------------------------------------------------------
def _grouped_congested(rng, n, budget, *, shift=0):
    """Congested groups over disjoint node blocks.

    Each group hammers one hot member with at least ``2 * budget`` tokens, so
    the plan is always multi-round.  Group ``g`` sends from block ``g`` and
    receives in block ``g + shift``: with ``shift=0`` the groups are
    node-disjoint, with ``shift=1`` a node sends in one group and receives in
    another, yet no two groups share a sender or a receiver counter.
    """
    groups = max(2, min(4, n // 6))
    nodes = list(range(n))
    rng.shuffle(nodes)
    size = n // groups
    blocks = [nodes[g * size : (g + 1) * size] for g in range(groups)]
    senders, receivers, words, labels = [], [], [], []
    for g in range(groups):
        sources = blocks[g]
        targets = blocks[(g + shift) % groups]
        hot = targets[0]
        count = 2 * budget + rng.randrange(5, 20)
        for i in range(count):
            senders.append(rng.choice(sources))
            receivers.append(hot if i % 4 else rng.choice(targets))
            words.append(rng.choice([1, 2, 3]))
            labels.append(g)
    # Interleave the groups so no group owns a contiguous position range.
    order = list(range(len(words)))
    rng.shuffle(order)
    return (
        [senders[i] for i in order],
        [receivers[i] for i in order],
        [words[i] for i in order],
        [labels[i] for i in order],
    )


def _reference_schedule(senders, receivers, words, budget, tag_words):
    tokens = [
        (senders[i], receivers[i], ("payload", i), words[i])
        for i in range(len(words))
    ]
    return [
        [token[2][1] for token in shard]
        for shard in _reference_shard_transfers(tokens, budget, tag_words)
    ]


def _plane(senders, receivers, words):
    return TokenPlane(
        senders, receivers, words, [("payload", i) for i in range(len(words))]
    )


def _as_lists(shards):
    return [[int(position) for position in shard] for shard in shards]


def _assert_greedy_contract(shards, senders, receivers, words, budget, tag_words):
    """The greedy-FIFO contract, checked without the reference scheduler."""
    flat = sorted(position for shard in shards for position in shard)
    assert flat == list(range(len(words))), "every token exactly once"
    loads = []
    for shard in shards:
        assert shard == sorted(shard), "positions ascend within a round"
        sent, received = defaultdict(int), defaultdict(int)
        for position in shard:
            total = words[position] + tag_words
            sent[senders[position]] += total
            received[receivers[position]] += total
        if len(shard) == 1 and words[shard[0]] + tag_words > budget:
            # Forced round: legal only when no pending token fits at all.
            sent, received = defaultdict(int), defaultdict(int)
        else:
            assert max(sent.values()) <= budget
            assert max(received.values()) <= budget
        loads.append((sent, received))
    # A token waits in round i only if its sender or receiver had no room.
    for index, shard in enumerate(shards):
        for position in shard:
            total = words[position] + tag_words
            for sent, received in loads[:index]:
                assert (
                    sent[senders[position]] + total > budget
                    or received[receivers[position]] + total > budget
                ), f"token {position} waited although round had room"


# ----------------------------------------------------------------------
# The grid: families x seeds x budgets x backends
# ----------------------------------------------------------------------
@pytest.mark.parametrize("budget", BUDGETS)
@pytest.mark.parametrize("case", CASES, ids=_ids)
def test_schedule_is_token_identical(case, budget, backend):
    family, seed = case
    graph = GRAPH_FAMILIES[family](seed)
    n = graph.number_of_nodes()
    rng = random.Random(f"schedule-{family}-{seed}-{budget}")
    tag_words = rng.choice([0, 1, 2])
    senders, receivers, words, _ = _grouped_congested(rng, n, budget)

    actual = _as_lists(plan_token_rounds(_plane(senders, receivers, words), budget, tag_words))
    expected = _reference_schedule(senders, receivers, words, budget, tag_words)
    assert actual == expected, (
        f"{family} seed={seed} budget={budget} backend={backend}: "
        f"schedule diverged from the greedy reference"
    )
    assert len(actual) > 1  # congested by construction
    _assert_greedy_contract(actual, senders, receivers, words, budget, tag_words)


@pytest.mark.parametrize("shift", [0, 1], ids=["node-disjoint", "role-disjoint"])
@pytest.mark.parametrize("case", CASES, ids=_ids)
def test_independent_groups_schedule_as_their_union(case, shift, backend):
    """Groups sharing no counter never delay each other: the whole schedule
    is the per-round ascending-position union of the groups' schedules."""
    family, seed = case
    n = GRAPH_FAMILIES[family](seed).number_of_nodes()
    rng = random.Random(f"union-{family}-{seed}-{shift}")
    budget = rng.choice([8, 13, 24])
    tag_words = rng.choice([0, 1])
    senders, receivers, words, labels = _grouped_congested(
        rng, n, budget, shift=shift
    )
    whole = _as_lists(plan_token_rounds(_plane(senders, receivers, words), budget, tag_words))

    merged = defaultdict(list)
    for group in sorted(set(labels)):
        positions = [p for p, label in enumerate(labels) if label == group]
        part = _plane(
            [senders[p] for p in positions],
            [receivers[p] for p in positions],
            [words[p] for p in positions],
        )
        for index, shard in enumerate(plan_token_rounds(part, budget, tag_words)):
            merged[index].extend(positions[int(local)] for local in shard)
    assert whole == [sorted(merged[index]) for index in range(len(merged))]


@pytest.mark.parametrize("tag_words", [0, 1])
@pytest.mark.parametrize("case", CASES[::3], ids=_ids)
def test_oversized_tokens_take_the_forced_branch(case, tag_words, backend):
    """Individually oversized tokens are forced through one per round, in
    FIFO order, once nothing else fits — exactly like the reference."""
    family, seed = case
    graph = GRAPH_FAMILIES[family](seed)
    n = graph.number_of_nodes()
    rng = random.Random(f"oversize-{family}-{seed}")
    budget = rng.choice([8, 13, 24])
    senders, receivers, words, _ = _grouped_congested(rng, n, budget)
    oversized = rng.randrange(1, 4)
    for _ in range(oversized):
        position = rng.randrange(len(words) + 1)
        senders.insert(position, rng.randrange(n))
        receivers.insert(position, rng.randrange(n))
        words.insert(position, 10_000)

    actual = _as_lists(plan_token_rounds(_plane(senders, receivers, words), budget, tag_words))
    assert actual == _reference_schedule(senders, receivers, words, budget, tag_words)
    _assert_greedy_contract(actual, senders, receivers, words, budget, tag_words)
    forced = [shard for shard in actual if words[shard[0]] == 10_000]
    assert len(forced) == oversized
    assert all(len(shard) == 1 for shard in forced)
    assert [shard[0] for shard in forced] == sorted(shard[0] for shard in forced)


@pytest.mark.parametrize("budget", [13, 24])
@pytest.mark.parametrize("seed", SEEDS)
def test_hot_receiver_schedule_meets_the_receive_bound(seed, budget, backend):
    """One receiver takes everything: the schedule stays identical and uses
    exactly the rounds the greedy packing of that receiver needs."""
    rng = random.Random(4100 + seed)
    n = 40
    count = 150
    target = rng.randrange(n)
    senders = [rng.randrange(n) for _ in range(count)]
    receivers = [target for _ in range(count)]
    words = [rng.choice([1, 2, 4]) for _ in range(count)]

    actual = _as_lists(plan_token_rounds(_plane(senders, receivers, words), budget, 1))
    assert actual == _reference_schedule(senders, receivers, words, budget, 1)
    _assert_greedy_contract(actual, senders, receivers, words, budget, 1)
    total = sum(words) + count
    assert len(actual) >= -(-total // budget)


@pytest.mark.parametrize("seed", SEEDS)
def test_uncongested_workload_is_one_round(seed, backend):
    """Per-node totals within budget: one shard holding every position."""
    rng = random.Random(5200 + seed)
    n = 48
    senders = rng.sample(range(n), 20)
    receivers = rng.sample(range(n), 20)
    words = [rng.choice([1, 2, 3]) for _ in range(20)]
    shards = _as_lists(plan_token_rounds(_plane(senders, receivers, words), 8, 1))
    assert shards == [list(range(20))]
    assert shards == _reference_schedule(senders, receivers, words, 8, 1)


# ----------------------------------------------------------------------
# Exchange- and algorithm-level identity
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", SEEDS)
def test_exchange_matches_the_reference_schedule(seed, backend):
    graph = erdos_renyi_graph(36, 0.15, seed=seed)
    rng = random.Random(6300 + seed)
    budget = HybridSimulator(graph, ModelConfig.hybrid()).global_budget_words()
    senders, receivers, words, _ = _grouped_congested(rng, 36, min(budget, 24))
    triples = [
        (senders[i], receivers[i], ("m", i, "x" * max(0, words[i] * 8 - 8)))
        for i in range(len(words))
    ]

    sim = HybridSimulator(graph, ModelConfig(strict=False), seed=seed)
    expected = expected_exchange(sim.global_budget_words(), triples, "sp")
    delivered = batched_global_exchange(sim, list(triples), tag="sp")
    expected.assert_matches(delivered, sim.metrics)
    assert sim.metrics.capacity_violations == 0


@pytest.mark.parametrize("seed", SEEDS[:2])
def test_exchange_runs_the_planned_number_of_rounds(seed, backend):
    """The exchange spends exactly one round per planned shard."""
    rng = random.Random(8500 + seed)
    graph = path_graph(30)
    senders, receivers, words, _ = _grouped_congested(rng, 30, 13)
    triples = [
        (senders[i], receivers[i], ("m", i, "x" * max(0, words[i] * 8 - 8)))
        for i in range(len(words))
    ]
    sim = HybridSimulator(graph, ModelConfig(strict=False), seed=seed)
    budget = sim.global_budget_words()
    plane = _plane(senders, receivers, [payload_words(t[2]) for t in triples])
    planned = plan_token_rounds(plane, budget, ExchangeTag("pr").payload_words_override)
    batched_global_exchange(sim, triples, tag="pr", collect=False)
    assert sim.metrics.summary()["measured_rounds"] == len(planned) > 1


#: seed -> metrics summary of the first backend to run the barbell instance.
_BARBELL_SUMMARIES = {}


@pytest.mark.parametrize("seed", SEEDS)
def test_dissemination_backends_agree_on_barbell(seed, backend):
    graph = GRAPH_FAMILIES["barbell"](seed)
    rng = random.Random(7400 + seed)
    tokens = {}
    for index in range(14):
        tokens.setdefault(rng.randrange(graph.number_of_nodes()), []).append(
            ("tok", index)
        )
    sim = HybridSimulator(graph, ModelConfig.hybrid0(), seed=seed)
    result = KDissemination(sim, tokens).run()
    assert result.all_nodes_know_all_tokens()
    summary = result.metrics.summary()
    assert _BARBELL_SUMMARIES.setdefault(seed, summary) == summary
