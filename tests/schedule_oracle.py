"""Expected outcome of one global exchange, from the greedy reference scheduler.

The exchange-identity tests compare
:func:`~repro.simulator.engine.batched_global_exchange` against
:func:`expected_exchange`, which replays the same workload through
:func:`~repro.simulator.engine._reference_shard_transfers` (the retained
schedule oracle) without touching a simulator's round state.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Dict, Hashable, Iterable, List, NamedTuple, Optional, Tuple

from repro.simulator.engine import _reference_shard_transfers
from repro.simulator.messages import payload_words


class ExpectedExchange(NamedTuple):
    """Per-receiver payloads in delivery order, plus the exchange's cost."""

    delivered: Dict[Hashable, List[Any]]
    rounds: int
    messages: int
    words: int

    def assert_matches(self, delivered, metrics) -> None:
        """Assert a fault-free exchange delivered and cost exactly this."""
        assert delivered == self.delivered
        assert metrics.measured_rounds == self.rounds
        assert metrics.global_messages == self.messages
        assert metrics.global_words == self.words


def expected_exchange(
    budget: int, triples: Iterable[Tuple], tag: Optional[str] = None
) -> ExpectedExchange:
    """What a fault-free exchange of ``triples`` under ``budget`` delivers.

    ``triples`` are ``(sender, receiver, payload)`` or ``(sender, receiver,
    payload, words)``; every token is charged its words plus the words of
    ``tag``, and each reference shard is one round.
    """
    tag_words = payload_words(tag) if tag is not None else 0
    tokens = [
        triple if len(triple) == 4 else (*triple, payload_words(triple[2]))
        for triple in triples
    ]
    delivered: Dict[Hashable, List[Any]] = defaultdict(list)
    rounds = messages = words = 0
    for shard in _reference_shard_transfers(tokens, budget, tag_words):
        rounds += 1
        for _, receiver, payload, size in shard:
            delivered[receiver].append(payload)
            messages += 1
            words += size + tag_words
    return ExpectedExchange(dict(delivered), rounds, messages, words)
