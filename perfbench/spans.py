"""Per-layer tracing from outside the program.

The tracer wraps calls into each layer's public classes and functions and
keeps a self-time ledger.  Nothing in ``src/`` changes: methods are replaced
on their classes (so every caller, however it got the instance, goes through
the wrapper) and module-level functions are rebound in every ``repro`` module
that imported them by name.  A path that escapes the wrappers (a closure, a
private helper no layer entry calls) is not guessed: its time stays in the
enclosing span and is reported under ``unattributed.s``.

Spans:

* ``setup`` and ``run`` roots, one each per traced run;
* one span per :class:`~repro.simulator.engine.BatchAlgorithm` phase, named
  ``core.phase.<algorithm>.<phase>``, kept individually with name, start,
  end, parent and run id and written out when the run ends;
* every layer call, aggregated per (layer, parent phase) into self time,
  call count and work count.  Per-node calls run in the hundreds of
  thousands (identifier learning on the star), so keeping them one by one
  would make the traced run unbounded.

A layer's self time is its duration minus the time of the spans it caused.
Nested calls into the same layer (``get_index`` building a ``GraphIndex``)
count as one call.
"""

from __future__ import annotations

import functools
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

clock = time.perf_counter

#: ``core.phase.<alias>.<phase>`` names keep under the 64-letter metric limit.
ALGORITHM_ALIASES = {
    "KDissemination": "kdis",
    "UnweightedApproxAPSP": "apsp",
    "SkeletonAPSP": "skel",
    "ResilientDissemination": "resil",
}

#: (layer, owner module, owner class or None for module functions, names).
LAYER_TARGETS: Tuple[Tuple[str, str, Optional[str], Tuple[str, ...]], ...] = (
    ("graphs.index.build", "repro.graphs.index", None, ("get_index",)),
    ("graphs.index.build", "repro.graphs.index", "GraphIndex", ("__init__",)),
    (
        "graphs.index.nq",
        "repro.graphs.index",
        "GraphIndex",
        ("nq_of_node", "nq_per_node", "nq_value", "nq_profile"),
    ),
    (
        "graphs.index.distances",
        "repro.graphs.index",
        "GraphIndex",
        (
            "hop_distances",
            "hop_distance_row",
            "hop_distance_rows",
            "sssp_row",
            "sssp_rows",
            "sssp_dict",
            "sssp_dicts",
            "closest_sources",
            "ruling_set",
            "weak_diameter",
            "eccentricity",
            "diameter",
            "ball_sizes_all_radii",
        ),
    ),
    ("graphs.index.distances", "repro.graphs.index", "SSSPRowCache", ("row",)),
    ("graphs.index.hhop", "repro.graphs.index", "GraphIndex", ("h_hop_limited_distances",)),
    (
        "core.clustering",
        "repro.core.clustering",
        None,
        ("nq_clustering", "distributed_nq_clustering"),
    ),
    (
        "core.overlay.tree",
        "repro.core.overlay",
        None,
        (
            "build_virtual_tree",
            "build_virtual_tree_on_subset",
            "aggregate_via_tree",
            "broadcast_via_tree",
            "basic_aggregation",
            "basic_dissemination",
        ),
    ),
    ("simulator.network.init", "repro.simulator.network", "HybridSimulator", ("__init__",)),
    (
        "simulator.network.send",
        "repro.simulator.network",
        "HybridSimulator",
        (
            "local_send_batch",
            "global_send_batch",
            "global_send_plane",
            "local_send_plane",
            "global_send_batch_ids",
            "local_send_batch_ids",
            "local_send",
            "local_broadcast",
            "global_send",
            "global_send_to_node",
        ),
    ),
    ("simulator.network.advance", "repro.simulator.network", "HybridSimulator", ("advance_round",)),
    (
        "simulator.network.harvest",
        "repro.simulator.network",
        "HybridSimulator",
        (
            "per_node_inbox",
            "delivered_plane_positions",
            "local_inbox",
            "global_inbox",
            "inbox",
        ),
    ),
    (
        "simulator.knowledge.learn",
        "repro.simulator.knowledge",
        "KnowledgeTracker",
        (
            "initialize_node",
            "initialize_all_known",
            "learn",
            "learn_known",
            "learn_known_array",
            "learn_shared",
        ),
    ),
    (
        "simulator.knowledge.lookup",
        "repro.simulator.knowledge",
        "KnowledgeTracker",
        (
            "knows",
            "known_ids",
            "known_ids_view",
            "packed_known_mask",
            "valid_ids",
            "knowledge_count",
        ),
    ),
    ("simulator.engine.plan", "repro.simulator.engine", None, ("plan_token_rounds",)),
    (
        "simulator.engine.exchange",
        "repro.simulator.engine",
        None,
        (
            "batched_global_exchange",
            "_reference_batched_global_exchange",
            "resilient_batched_global_exchange",
        ),
    ),
    (
        "simulator.faults",
        "repro.simulator.faults",
        "FaultState",
        (
            "crashed_indices",
            "is_crashed",
            "crashed_index_array",
            "global_capacity_factor",
            "degraded_budget",
            "node_capacity_factors",
            "failed_edge_keys",
            "failed_edge_key_array",
            "take_permanent_closures",
            "drop_rate",
            "round_rng",
        ),
    ),
    # The per-round fault filter itself is a simulator method; it is the fault
    # layer's entry from the round lifecycle.
    ("simulator.faults", "repro.simulator.network", "HybridSimulator", ("_apply_faults",)),
)

#: Every traced layer, in ledger order.
LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(target[0] for target in LAYER_TARGETS))


def _send_work(args, kwargs, result) -> int:
    return result if isinstance(result, int) else 1


def _plan_work(args, kwargs, result) -> int:
    return len(args[0])


#: ``<layer>.tokens`` work counters: layer -> f(args, kwargs, result).
WORK_COUNTERS: Dict[str, Callable] = {
    "simulator.network.send": _send_work,
    "simulator.engine.plan": _plan_work,
}


class _Frame:
    __slots__ = ("layer", "phase", "child", "measured", "charged")

    def __init__(self, layer: str, phase: str) -> None:
        self.layer = layer
        self.phase = phase
        self.child = 0.0
        # Rounds of nested phases (phase frames only).
        self.measured = 0
        self.charged = 0


class Tracer:
    """Span recorder and self-time ledger for one traced run."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        #: Individually kept spans: dicts of name/start/end/parent/run_id.
        self.spans: List[Dict[str, Any]] = []
        #: (layer, parent phase) -> [self seconds, calls, work].
        self.ledger: Dict[Tuple[str, str], List[float]] = {}
        #: phase name -> [self seconds, calls, self measured, self charged].
        self.phases: Dict[str, List[float]] = {}
        #: ``rounds`` work count of the planner (len of its result).
        self.planned_rounds = 0
        self.root_seconds: Dict[str, float] = {}
        self._stack: List[_Frame] = []
        self._span_stack: List[int] = []
        self._restore: List[Tuple[Any, str, Any]] = []
        #: Layer entries named in LAYER_TARGETS that the program lacks.
        self.missing: List[str] = []

    # ------------------------------------------------------------------
    def _open_span(self, name: str, start: float) -> None:
        parent = self._span_stack[-1] if self._span_stack else None
        self.spans.append(
            {"name": name, "start": start, "end": None, "parent": parent,
             "run_id": self.run_id}
        )
        self._span_stack.append(len(self.spans) - 1)

    def _close_span(self, end: float) -> None:
        self.spans[self._span_stack.pop()]["end"] = end

    def root(self, name: str, fn: Callable[[], Any]) -> Any:
        """Run ``fn`` as the root span ``name`` (``setup`` or ``run``)."""
        frame = _Frame(name, name)
        self._stack.append(frame)
        start = clock()
        self._open_span(name, start)
        try:
            return fn()
        finally:
            end = clock()
            self._close_span(end)
            self._stack.pop()
            self.root_seconds[name] = self.root_seconds.get(name, 0.0) + end - start

    # ------------------------------------------------------------------
    def _wrap_layer(self, layer: str, fn: Callable) -> Callable:
        stack = self._stack
        ledger = self.ledger
        work_fn = WORK_COUNTERS.get(layer)
        is_plan = layer == "simulator.engine.plan"
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            parent = stack[-1]
            frame = _Frame(layer, parent.phase)
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                parent.child += elapsed
                key = (layer, frame.phase)
                entry = ledger.get(key)
                if entry is None:
                    entry = ledger[key] = [0.0, 0, 0]
                entry[0] += elapsed - frame.child
            if parent.layer != layer:
                entry[1] += 1
                if work_fn is not None:
                    entry[2] += work_fn(args, kwargs, result)
                if is_plan:
                    tracer.planned_rounds += len(result)
            return result

        return wrapper

    def _wrap_phase(self, name: str, fn: Callable, metrics) -> Callable:
        stack = self._stack
        phases = self.phases

        def phase():
            parent = stack[-1]
            frame = _Frame(name, name)
            stack.append(frame)
            measured = metrics.measured_rounds
            charged = metrics.charged_rounds
            start = clock()
            self._open_span(name, start)
            try:
                return fn()
            finally:
                end = clock()
                self._close_span(end)
                stack.pop()
                elapsed = end - start
                parent.child += elapsed
                d_measured = metrics.measured_rounds - measured
                d_charged = metrics.charged_rounds - charged
                parent.measured += d_measured
                parent.charged += d_charged
                entry = phases.get(name)
                if entry is None:
                    entry = phases[name] = [0.0, 0, 0, 0]
                entry[0] += elapsed - frame.child
                entry[1] += 1
                entry[2] += d_measured - frame.measured
                entry[3] += d_charged - frame.charged

        return phase

    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap every layer entry and every BatchAlgorithm's phases."""
        import importlib

        from repro.simulator.engine import BatchAlgorithm

        for layer, module_name, class_name, names in LAYER_TARGETS:
            module = importlib.import_module(module_name)
            owner = getattr(module, class_name, None) if class_name else module
            for name in names:
                original = vars(owner).get(name) if owner is not None else None
                if original is None:
                    # A renamed or removed entry is not guessed at: its time
                    # shows up as unattributed, and the run says so.
                    self.missing.append(f"{module_name}.{class_name or ''}.{name}")
                    continue
                wrapped = self._wrap_layer(layer, original)
                if class_name:
                    self._set(owner, name, wrapped)
                else:
                    self._rebind_function(original, wrapped)

        pending = list(BatchAlgorithm.__subclasses__())
        while pending:
            cls = pending.pop()
            pending.extend(cls.__subclasses__())
            if "phases" in cls.__dict__:
                self._set(cls, "phases", self._phases_wrapper(cls))

    def _phases_wrapper(self, cls) -> Callable:
        original = cls.__dict__["phases"]
        alias = ALGORITHM_ALIASES.get(cls.__name__, cls.__name__)
        tracer = self

        def phases(algorithm):
            metrics = algorithm.simulator.metrics
            return tuple(
                (name, tracer._wrap_phase(f"core.phase.{alias}.{name}", fn, metrics))
                for name, fn in original(algorithm)
            )

        return phases

    def _set(self, owner: Any, name: str, value: Any) -> None:
        self._restore.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def _rebind_function(self, original: Callable, wrapped: Callable) -> None:
        """Replace ``original`` in every loaded ``repro`` module namespace."""
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            namespace = vars(module)
            for attribute, value in list(namespace.items()):
                if value is original:
                    self._set(module, attribute, wrapped)

    def uninstall(self) -> None:
        while self._restore:
            owner, name, value = self._restore.pop()
            setattr(owner, name, value)

    # ------------------------------------------------------------------
    def layer_totals(self) -> Dict[str, List[float]]:
        """layer -> [self seconds, calls, work] summed over parent phases."""
        totals: Dict[str, List[float]] = {layer: [0.0, 0, 0] for layer in LAYERS}
        for (layer, _phase), (seconds, calls, work) in self.ledger.items():
            entry = totals[layer]
            entry[0] += seconds
            entry[1] += calls
            entry[2] += work
        return totals

    def run_layer_seconds(self) -> float:
        """Self time of every layer call made under the ``run`` root."""
        setup = "setup"
        return sum(
            entry[0] for (layer, phase), entry in self.ledger.items() if phase != setup
        )

    def dump(self) -> Dict[str, Any]:
        return {
            "run_id": self.run_id,
            "spans": self.spans,
            "ledger": [
                {"layer": layer, "phase": phase, "self_s": seconds,
                 "calls": calls, "work": work}
                for (layer, phase), (seconds, calls, work) in sorted(self.ledger.items())
            ],
            "phases": {
                name: {"self_s": s, "calls": c, "measured_rounds": m, "charged_rounds": ch}
                for name, (s, c, m, ch) in sorted(self.phases.items())
            },
            "roots": self.root_seconds,
        }
