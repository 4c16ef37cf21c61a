"""Identifier knowledge for HYBRID_0: one store in node-index space.

In HYBRID_0 (Section 1.3) a node may only address global messages to nodes
whose identifiers it *knows*.  Initially it knows its own identifier and
those of its graph neighbours.  It learns the sender's identifier of every
global message it receives, and whatever identifiers a received payload
carries: the algorithm declares those with
``simulator.declare_learned_ids(node, ids)`` (e.g. the broadcast of all
identifiers used as a preprocessing step in Theorem 1's corollary).  Sending
to an unknown identifier raises
:class:`~repro.simulator.errors.UnknownIdentifierError`.

Representation
--------------

A tracker is built from the identifiers in node-index order (the simulator's
deterministic node order), so node ``i`` has identifier ``ids[i]``.  The
fact "node ``r`` knows the identifier of node ``s``" is the integer pair key
``r * n + s`` (an exact ``int64`` for any n below 3 * 10^9).  A node knows
an identifier when any of four sources says so:

* **Self.** Every node knows itself implicitly; key ``r * n + r`` is never
  stored.
* **Learned keys.** One set of pair keys.  The simulator seeds it at
  construction with the graph's directed adjacency, so later graph edits
  change nothing: a removed edge's endpoints still know each other, and a
  new edge teaches nothing.  Under NumPy the set is a sorted ``int64``
  snapshot plus a sorted recent buffer.  Fresh keys merge into the buffer,
  and the buffer merges into the snapshot once it holds a quarter of the
  snapshot's size.  So every key is copied O(log) times in total, and no
  round copies the whole store.  Without NumPy the set is a Python ``set``
  of the same integer keys.
* **Groups.** The broadcast idiom of :meth:`KnowledgeTracker.learn_shared`
  ("every cluster member learns all leader identifiers") stores one group: a
  sorted array of learner indices and a sorted array of member indices.  The
  work is O(|learners| + |ids|), not O(|learners| * |ids|) keys.
* **Dense regime.** One flag: everyone knows everything.

The bulk operations take whole index columns and contain no per-node Python
loop.  :meth:`KnowledgeTracker.learn_pairs` learns a round's delivered
``(receiver, sender)`` pairs with one sort-and-deduplicate of their keys
plus the sorted merge.  :meth:`KnowledgeTracker.first_unknown` validates a
shard's pairs with one ``searchsorted`` sweep per level plus a vectorised
group probe of the misses.  The
identifier-facing methods (:meth:`~KnowledgeTracker.knows`,
:meth:`~KnowledgeTracker.known_ids`, :meth:`~KnowledgeTracker.learn`, ...)
translate identifiers to indices; identifiers that do not exist in the
network are ignored (a node may be told bogus identifiers, it simply cannot
reach anyone with them).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Hashable, Iterable, List, Optional, Set, Tuple

from repro.simulator import _accel
from repro.simulator.errors import UnknownNodeError

__all__ = ["KnowledgeTracker"]


def _sorted_contains(np, level, keys):
    """Boolean mask: which ``keys`` occur in the sorted array ``level``."""
    if not level.size:
        return np.zeros(keys.size, dtype=bool)
    slots = np.searchsorted(level, keys)
    slots[slots == level.size] = 0
    return level[slots] == keys


def _sorted_unique(np, keys):
    """The distinct ``keys``, sorted.  A sort plus a neighbour comparison:
    on large int64 columns this is several times faster than ``np.unique``
    under NumPy 2.x, which deduplicates by hashing first."""
    keys = np.sort(keys)
    if keys.size > 1:
        keys = keys[np.concatenate(((True,), keys[1:] != keys[:-1]))]
    return keys


def _merge(np, a, b):
    """Union of two disjoint sorted arrays (a stable sort merges two runs
    in linear time)."""
    merged = np.concatenate((a, b))
    merged.sort(kind="stable")
    return merged


class _SortedKeys:
    """Pair keys as a sorted snapshot plus a sorted recent buffer (NumPy)."""

    __slots__ = ("_np", "snapshot", "recent")

    def __init__(self, np) -> None:
        self._np = np
        self.snapshot = self.recent = np.empty(0, dtype=np.int64)

    def __len__(self) -> int:
        return self.snapshot.size + self.recent.size

    def __contains__(self, key: int) -> bool:
        for level in (self.snapshot, self.recent):
            slot = int(level.searchsorted(key))
            if slot < level.size and level[slot] == key:
                return True
        return False

    def contains(self, keys):
        """Boolean mask of ``keys`` (an int64 array) present in the store."""
        np = self._np
        mask = _sorted_contains(np, self.snapshot, keys)
        if self.recent.size:
            mask |= _sorted_contains(np, self.recent, keys)
        return mask

    def add(self, keys) -> None:
        """Absorb sorted, distinct int64 ``keys`` with the geometric merge."""
        np = self._np
        fresh = keys[~self.contains(keys)]
        if not fresh.size:
            return
        recent = _merge(np, self.recent, fresh) if self.recent.size else fresh
        if 4 * recent.size >= self.snapshot.size:
            self.snapshot = (
                _merge(np, self.snapshot, recent) if self.snapshot.size else recent
            )
            self.recent = recent[:0]
        else:
            self.recent = recent

    def between(self, lo: int, hi: int) -> List[int]:
        """Stored keys in ``[lo, hi)``."""
        found: List[int] = []
        for level in (self.snapshot, self.recent):
            start, stop = level.searchsorted((lo, hi)).tolist()
            found.extend(level[start:stop].tolist())
        return found


class _KeySet(set):
    """Pair keys as a plain ``set`` (the pure-Python backend)."""

    def between(self, lo: int, hi: int) -> List[int]:
        if len(self) <= hi - lo:
            return [key for key in self if lo <= key < hi]
        return [key for key in range(lo, hi) if key in self]


class KnowledgeTracker:
    """Which identifiers each node knows, as one index-space store.

    ``ids`` lists every identifier in node-index order.  The store's backend
    (NumPy or pure Python) is fixed at construction.
    """

    def __init__(self, ids: Iterable[Hashable]) -> None:
        self._ids: List[Hashable] = list(ids)
        self._index_of = {identifier: i for i, identifier in enumerate(self._ids)}
        if len(self._index_of) != len(self._ids):
            raise ValueError("identifiers must be distinct")
        self.n = len(self._ids)
        self._np = _accel.np
        self._keys = _SortedKeys(self._np) if self._np is not None else _KeySet()
        #: (learners, members): sorted node-index arrays (lists without NumPy).
        self._groups: List[Tuple[Any, Any]] = []
        self._all_known = False

    # ------------------------------------------------------------------
    # Index space (the simulator's bulk paths)
    # ------------------------------------------------------------------
    def learn_pairs(self, learners, learned) -> None:
        """Node ``learners[k]`` learns the identifier of node ``learned[k]``.

        Both arguments are parallel node-index columns (arrays or lists).
        Under NumPy this is one sort-and-deduplicate of the pair keys plus
        one sorted merge, whatever the number of distinct learners.
        """
        if self._all_known or not len(learners):
            return
        n = self.n
        np = self._np
        if np is None:
            if hasattr(learners, "tolist"):
                learners, learned = learners.tolist(), learned.tolist()
            self._keys.update(
                r * n + s for r, s in zip(learners, learned) if r != s
            )
            return
        keys = _sorted_unique(
            np,
            np.asarray(learners, dtype=np.int64) * n
            + np.asarray(learned, dtype=np.int64),
        )
        # r * n + s is a multiple of n + 1 exactly when r == s: self-knowledge
        # is implicit and never stored.
        self._keys.add(keys[keys % (n + 1) != 0])

    def first_unknown(self, knowers, targets) -> Optional[int]:
        """Position of the first pair whose knower does not know its target.

        ``knowers`` / ``targets`` are parallel node-index columns; ``None``
        means every pair is known.  Under NumPy the whole column is probed
        with one ``searchsorted`` sweep per store level, and only the misses
        are probed against the groups.
        """
        if self._all_known or not len(knowers):
            return None
        n = self.n
        np = self._np
        if np is None:
            if hasattr(knowers, "tolist"):
                knowers, targets = knowers.tolist(), targets.tolist()
            keys = self._keys
            for position, (r, s) in enumerate(zip(knowers, targets)):
                if r != s and r * n + s not in keys and not self._in_group(r, s):
                    return position
            return None
        knowers = np.asarray(knowers, dtype=np.int64)
        targets = np.asarray(targets, dtype=np.int64)
        known = self._keys.contains(knowers * n + targets)
        known |= knowers == targets
        if self._groups and not known.all():
            miss = np.flatnonzero(~known)
            hit = np.zeros(miss.size, dtype=bool)
            miss_knowers = knowers[miss]
            miss_targets = targets[miss]
            for learners, members in self._groups:
                in_learners = _sorted_contains(np, learners, miss_knowers)
                hit |= in_learners & _sorted_contains(np, members, miss_targets)
            known[miss] = hit
        if known.all():
            return None
        return int(np.argmin(known))

    def knows_index(self, knower: int, target: int) -> bool:
        """Whether node ``knower`` knows node ``target``'s identifier."""
        return (
            self._all_known
            or knower == target
            or knower * self.n + target in self._keys
            or self._in_group(knower, target)
        )

    def learn_group(self, learners: Iterable[int], ids: Iterable[Hashable]) -> None:
        """Every node index in ``learners`` learns the same identifiers.

        Stored as one group (see the module docstring); bogus identifiers are
        ignored.
        """
        if self._all_known:
            return
        index_of = self._index_of
        members = sorted({index_of[i] for i in ids if i in index_of})
        learners = sorted(set(learners))
        if not members or not learners:
            return
        np = self._np
        if np is not None:
            learners = np.asarray(learners, dtype=np.int64)
            members = np.asarray(members, dtype=np.int64)
        self._groups.append((learners, members))

    def _in_group(self, knower: int, target: int) -> bool:
        for learners, members in self._groups:
            if _has(learners, knower) and _has(members, target):
                return True
        return False

    # ------------------------------------------------------------------
    # Identifier space (the public API)
    # ------------------------------------------------------------------
    def initialize_node(self, node_id: Hashable, neighbor_ids: Iterable[Hashable]) -> None:
        """A node starts knowing its own identifier and its neighbors' (Section 1.3)."""
        self.learn(node_id, neighbor_ids)

    def initialize_all_known(self) -> None:
        """HYBRID (dense regime): every node knows every identifier from the start."""
        self._all_known = True

    def knows(self, node_id: Hashable, target_id: Hashable) -> bool:
        knower = self._index(node_id)
        target = self._index_of.get(target_id)
        return target is not None and self.knows_index(knower, target)

    def known_ids(self, node_id: Hashable) -> Set[Hashable]:
        knower = self._index(node_id)
        ids = self._ids
        if self._all_known:
            return set(ids)
        n = self.n
        base = knower * n
        known = {knower}
        known.update(key - base for key in self._keys.between(base, base + n))
        for learners, members in self._groups:
            if _has(learners, knower):
                known.update(members.tolist() if hasattr(members, "tolist") else members)
        return {ids[index] for index in known}

    def learn(self, node_id: Hashable, new_ids: Iterable[Hashable]) -> None:
        """Record that ``node_id`` learned the identifiers in ``new_ids``.

        Identifiers that do not exist in the network are ignored.
        """
        knower = self._index(node_id)
        index_of = self._index_of
        learned = [index_of[i] for i in set(new_ids) if i in index_of]
        self.learn_pairs([knower] * len(learned), learned)

    def learn_shared(
        self, node_ids: Iterable[Hashable], ids: Iterable[Hashable]
    ) -> None:
        """Every node in ``node_ids`` learns the same identifiers (one group).

        Every learner is validated before anything is stored: an unknown
        learner raises :class:`UnknownNodeError` and teaches nobody.
        """
        self.learn_group([self._index(node_id) for node_id in node_ids], ids)

    def knowledge_count(self, node_id: Hashable) -> int:
        return len(self.known_ids(node_id))

    def _index(self, node_id: Hashable) -> int:
        index = self._index_of.get(node_id)
        if index is None:
            raise UnknownNodeError(node_id)
        return index


def _has(sorted_seq, value: int) -> bool:
    """Membership in a sorted sequence (a NumPy array or a list)."""
    slot = bisect_left(sorted_seq, value)
    return slot < len(sorted_seq) and sorted_seq[slot] == value
