"""The four benchmark workloads: input generation, construction, output checks.

Each workload is a :class:`Workload` with two steps, both driven by one
integer seed (the program under test only ever sees the generated inputs):

``build(seed)``
    Generate the inputs and construct the simulator and the algorithm.  This
    is the last step of set-up; the caller times ``algorithm.run()`` next.
``check(built, result)``
    Verify the output against centralized truth.  Runs outside the timed
    region and returns a list of failure strings (empty = correct).

:func:`simulated_stats` gives the simulated statistics that must repeat
exactly for a seed.

Why each workload was chosen, and which layer it loads, is written down in
``perfbench/README.md``.
"""

from __future__ import annotations

import dataclasses
import math
import random
from typing import Any, Callable, Dict, List

import networkx as nx

from repro.core.dissemination import KDissemination
from repro.core.resilience import ResilientDissemination
from repro.core.shortest_paths import SkeletonAPSP, UnweightedApproxAPSP
from repro.graphs.generators import cycle_graph, grid_graph, star_graph
from repro.simulator.config import ModelConfig
from repro.simulator.faults import crash_fraction_schedule
from repro.simulator.network import HybridSimulator

#: Rows of the distance tables compared against centralized truth per run.
STRETCH_SAMPLE_ROWS = 12
#: Slack for float round-off when comparing estimates with truth.
STRETCH_TOLERANCE = 1e-9


@dataclasses.dataclass
class Built:
    """A constructed workload instance, ready for ``algorithm.run()``."""

    graph: nx.Graph
    simulator: HybridSimulator
    algorithm: Any
    seed: int


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[int], Built]
    check: Callable[[Built, Any], List[str]]


def simulated_stats(simulator: HybridSimulator) -> Dict[str, int]:
    metrics = simulator.metrics
    return {
        "rounds_total": metrics.total_rounds,
        "measured_rounds": metrics.measured_rounds,
        "charged_rounds": metrics.charged_rounds,
        "global_words": metrics.global_words,
        "global_messages": metrics.global_messages,
        "local_words": metrics.local_words,
        "capacity_violations": metrics.capacity_violations,
        "dropped_messages": metrics.dropped_messages,
        "retransmissions": metrics.retransmissions,
    }



def _no_violations(built: Built) -> List[str]:
    violations = built.simulator.metrics.capacity_violations
    return [f"{violations} capacity violations"] if violations else []


# ----------------------------------------------------------------------
# star-charge: charge-only KDissemination on a star, HYBRID_0
# ----------------------------------------------------------------------
STAR_N = 200_000
STAR_K = 4096
#: NQ_k(star) = 2 by inspection (the centre's radius-1 ball is the whole
#: graph); the centralized NQ computation would be Theta(n^2) here.
STAR_NQ = 2


def _build_star(seed: int) -> Built:
    graph = star_graph(STAR_N)
    rng = random.Random(seed)
    tokens: Dict[int, List[Any]] = {}
    for index in range(STAR_K):
        tokens.setdefault(rng.randrange(STAR_N), []).append(("tok", index))
    simulator = HybridSimulator(
        graph, ModelConfig.hybrid0(), seed=seed, charge_only=True
    )
    algorithm = KDissemination(simulator, tokens, nq=STAR_NQ, charge_only=True)
    return Built(graph, simulator, algorithm, seed)


def _check_star(built: Built, result) -> List[str]:
    failures = _no_violations(built)
    if result.k != STAR_K or len(result.tokens) != STAR_K:
        failures.append(f"k={result.k}, expected {STAR_K}")
    # Cluster members share one frozenset, so compare each distinct object
    # once; a per-node comparison costs more than the run itself.
    distinct = {id(known): known for known in result.known_tokens.values()}
    if len(result.known_tokens) != STAR_N:
        failures.append(f"{len(result.known_tokens)} nodes reported, expected {STAR_N}")
    wrong = sum(1 for known in distinct.values() if known != result.tokens)
    if wrong:
        failures.append(f"{wrong} distinct token sets differ from the full set")
    return failures


# ----------------------------------------------------------------------
# grid-apsp: payload UnweightedApproxAPSP (Theorem 6) on a grid, HYBRID_0
# ----------------------------------------------------------------------
GRID_SIDE = 100
GRID_EPSILON = 0.5


def _build_grid_apsp(seed: int) -> Built:
    graph = grid_graph(GRID_SIDE)
    simulator = HybridSimulator(graph, ModelConfig.hybrid0(), seed=seed)
    algorithm = UnweightedApproxAPSP(simulator, epsilon=GRID_EPSILON)
    return Built(graph, simulator, algorithm, seed)


def _sample_rows(built: Built) -> List[Any]:
    nodes = sorted(built.graph.nodes)
    return random.Random(built.seed ^ 0x5EED).sample(nodes, STRETCH_SAMPLE_ROWS)


def _check_stretch(built: Built, table, truth_row) -> List[str]:
    """Every sampled row: truth <= estimate <= stretch_bound * truth."""
    failures = _no_violations(built)
    columns = table.columns()
    bound = table.stretch_bound
    for target in _sample_rows(built):
        truth = truth_row(target)
        row = table.row(target)
        for column, estimate in zip(columns, row):
            exact = truth.get(column, math.inf)
            low = exact * (1 - STRETCH_TOLERANCE)
            high = bound * exact * (1 + STRETCH_TOLERANCE)
            if not low <= estimate <= high:
                failures.append(
                    f"d({target},{column}) estimate {estimate} outside "
                    f"[{exact}, {bound} * {exact}]"
                )
                return failures
    return failures


def _check_grid_apsp(built: Built, table) -> List[str]:
    graph = built.graph
    return _check_stretch(
        built, table, lambda s: nx.single_source_shortest_path_length(graph, s)
    )


# ----------------------------------------------------------------------
# grid-skeleton: weighted SkeletonAPSP (Theorem 8) on a grid, HYBRID_0
# ----------------------------------------------------------------------
SKELETON_SIDE = 32
SKELETON_ALPHA = 1
SKELETON_MAX_WEIGHT = 16
#: The edge weights come from this fixed instance, not from the run's seed.
#: They set how long the h-hop Bellman-Ford sweeps run, and two weight draws
#: differ by up to 15% in run time; the seed still draws the identifiers and
#: the skeleton sample.
SKELETON_WEIGHT_SEED = 0


def _build_grid_skeleton(seed: int) -> Built:
    graph = grid_graph(SKELETON_SIDE)
    rng = random.Random(SKELETON_WEIGHT_SEED)
    for u, v in sorted(graph.edges):
        graph[u][v]["weight"] = rng.randint(1, SKELETON_MAX_WEIGHT)
    simulator = HybridSimulator(graph, ModelConfig.hybrid0(), seed=seed)
    algorithm = SkeletonAPSP(simulator, alpha=SKELETON_ALPHA, seed=seed)
    return Built(graph, simulator, algorithm, seed)


def _check_grid_skeleton(built: Built, table) -> List[str]:
    graph = built.graph
    return _check_stretch(
        built,
        table,
        lambda s: nx.single_source_dijkstra_path_length(graph, s, weight="weight"),
    )


# ----------------------------------------------------------------------
# cycle-faults: ResilientDissemination under crashes and drops, HYBRID
# ----------------------------------------------------------------------
CYCLE_N = 1024
CYCLE_K = 32
CYCLE_CRASH_FRACTION = 0.1
CYCLE_DROP_RATE = 0.1


def _build_cycle_faults(seed: int) -> Built:
    graph = cycle_graph(CYCLE_N)
    rng = random.Random(seed)
    holders = sorted(rng.sample(range(CYCLE_N), CYCLE_K))
    tokens = {holder: [("tok", index)] for index, holder in enumerate(holders)}
    schedule = crash_fraction_schedule(
        CYCLE_N,
        CYCLE_CRASH_FRACTION,
        seed=seed,
        crash_round=1,
        drop_rate=CYCLE_DROP_RATE,
        exclude=holders,
    )
    simulator = HybridSimulator(
        graph, ModelConfig.hybrid(), seed=seed, fault_schedule=schedule
    )
    algorithm = ResilientDissemination(simulator, tokens)
    return Built(graph, simulator, algorithm, seed)


def _check_cycle_faults(built: Built, result) -> List[str]:
    failures = _no_violations(built)
    if not result.complete:
        failures.append("resilient dissemination did not converge")
    expected_live = CYCLE_N - int(round(CYCLE_N * CYCLE_CRASH_FRACTION))
    if len(result.live_nodes) != expected_live:
        failures.append(f"{len(result.live_nodes)} live nodes, expected {expected_live}")
    if len(result.tokens) != CYCLE_K:
        failures.append(f"{len(result.tokens)} tokens, expected {CYCLE_K}")
    if not result.all_live_nodes_know_all_tokens():
        failures.append("a live node misses a token")
    if built.simulator.metrics.dropped_messages == 0:
        failures.append("no message was dropped: the fault schedule did not act")
    return failures


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload("star-charge", _build_star, _check_star),
        Workload("grid-apsp", _build_grid_apsp, _check_grid_apsp),
        Workload("grid-skeleton", _build_grid_skeleton, _check_grid_skeleton),
        Workload("cycle-faults", _build_cycle_faults, _check_cycle_faults),
    )
}
