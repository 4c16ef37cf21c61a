"""Sharded multi-core round planner + charge-only simulation benchmark.

Acceptance check for the sharded scheduler and charge-only mode at
production scale, in two smoke workloads and one large-tier workload:

* **Sharded planning** — a multi-component congested plane of m=10^5 tokens
  (64 node-disjoint groups hammering per-group hot receivers with
  non-uniform token sizes, so neither the uncongested nor the closed-form
  uniform path short-circuits the scheduler).  The 4-worker process-pool
  :class:`~repro.simulator.sharding.ShardedPlanner` must produce a schedule
  **token-for-token identical** to the single-process
  :func:`~repro.simulator.engine.plan_token_rounds` and be at least
  ``SHARDED_ENGINE_MIN_SPEEDUP`` times faster (default 1.8 on a quiet
  multi-core machine; CI relaxes the floor for shared runners).  On a
  single-core host the parallel floor is physically unmeasurable, so it is
  *waived* — reported, asserted only for identity — whenever
  ``cpu_count() < 2``.  Identity is never relaxed.

* **Charge-only dissemination** — ``KDissemination`` k=4096 on an n=10^4
  path in payload mode vs ``HybridSimulator(charge_only=True)``.  Metric
  summaries and round counts must be **bit-identical** (the whole point of
  charge-only mode: exact accounting, no payload materialisation); the
  speedup is reported, with a lenient sanity floor
  (``CHARGE_ONLY_MIN_SPEEDUP``, default 0.9) because eliding payloads must
  never make the run meaningfully slower.

* **Parallel delivery stages** — the three
  :class:`~repro.simulator.sharding.ShardedDelivery` stages (fault keep-mask,
  grouped capacity counters, the round capacity sweep) at production scale: m=2x10^6 tokens over n=2^22 nodes, 4-worker pool vs
  the serial whole-array twin.  Results must be **bit-identical** (asserted
  in the same run); the speedup floor is relaxed
  (``SHARDED_DELIVERY_MIN_SPEEDUP``, default 1.2) and *waived* on
  single-core hosts — identity is never relaxed.

* **Large tier** (``BENCH_SCALE=large``, the scheduled CI job) — charge-only
  ``KDissemination`` k=4096 on an n=10^6 **star**, run end-to-end twice:
  serial (no planner) vs a 4-worker installed planner, asserting bit-equal
  metrics and an end-to-end round-engine speedup of at least
  ``SHARDED_E2E_MIN_SPEEDUP`` (default 1.5; waived on single-core hosts).
  The star keeps NQ_k at 2 (the center's radius-1 ball is the whole graph),
  which yields few, large clusters and a down-cast volume that fits in
  memory — a payload run at this scale would materialise ~10^7 token
  objects; charge-only completes on the words columns alone.  NQ is passed
  as a precomputed hint (``nq=2`` by inspection) because the centralized NQ
  computation is Theta(n^2) on a star and is not what this benchmark
  measures.  The tier also records the **n=10^7** charge-only star point —
  rounds and wall-clock under the 4-worker parallel delivery path, the
  paper-scale tier the sharded engine exists for.

Each run writes ``BENCH_sharded_engine.json`` next to the ASCII tables (see
``_artifacts.py``).

Run directly (``python benchmarks/bench_sharded_engine.py``) or through
pytest (``pytest benchmarks/bench_sharded_engine.py``).
"""

from __future__ import annotations

import os
import random
import time
from typing import Any, Dict, List

import pytest

from _artifacts import update_trajectory, write_bench_artifact
from repro.core.dissemination import KDissemination
from repro.core.neighborhood_quality import neighborhood_quality
from repro.graphs.generators import path_graph, star_graph
from repro.simulator import _accel
from repro.simulator._accel import cpu_count
from repro.simulator.config import ModelConfig
from repro.simulator.engine import TokenPlane, install_planner, plan_token_rounds
from repro.simulator.network import HybridSimulator
from repro.simulator.sharding import ShardedPlanner, span_keep_mask

M_TOKENS = 100_000
GROUPS = 64
GROUP_NODES = 32
BUDGET = 57
TAG_WORDS = 1
WORKERS = 4
N_DISSEMINATION = 10_000
K_DISSEMINATION = 4096
N_LARGE = 1_000_000
N_XL = 10_000_000
M_DELIVERY = 2_000_000
N_DELIVERY_NODES = 1 << 22
SEED = 11
REPEATS = 3
#: Quiet-multi-core acceptance bar for the 4-worker planner.  Shared CI
#: runners relax it via SHARDED_ENGINE_MIN_SPEEDUP; single-core hosts waive
#: it entirely (identity is still asserted).
REQUIRED_SPEEDUP = float(os.environ.get("SHARDED_ENGINE_MIN_SPEEDUP", "1.8"))
#: Charge-only mode elides work, so it must never be meaningfully slower
#: than the payload run; the real acceptance criterion is metric identity.
CHARGE_ONLY_FLOOR = float(os.environ.get("CHARGE_ONLY_MIN_SPEEDUP", "0.9"))
#: Relaxed floor for the pooled delivery stages (IPC overhead is real;
#: identity is the hard criterion).  Waived when ``cpu_count() < 2``.
DELIVERY_FLOOR = float(os.environ.get("SHARDED_DELIVERY_MIN_SPEEDUP", "1.2"))
#: End-to-end round-engine floor for the 4-worker vs serial n=10^6
#: charge-only dissemination (the issue's acceptance bar).  Waived when
#: ``cpu_count() < 2``.
E2E_FLOOR = float(os.environ.get("SHARDED_E2E_MIN_SPEEDUP", "1.5"))


def _planning_plane() -> TokenPlane:
    """64 node-disjoint congested groups, non-uniform token sizes.

    Every group's hot receiver takes ~3/4 of the group's tokens, so every
    group is congested (multi-round) and the plane has 64 bipartite
    components — the partition path must engage, and neither the
    uncongested fast path nor the uniform-words closed form applies.
    """
    rng = random.Random(SEED)
    per_group = M_TOKENS // GROUPS
    senders: List[int] = []
    receivers: List[int] = []
    words: List[int] = []
    for group in range(GROUPS):
        base = group * GROUP_NODES
        hot = base
        for i in range(per_group):
            senders.append(base + rng.randrange(1, GROUP_NODES))
            receivers.append(hot if i % 4 else base + rng.randrange(GROUP_NODES))
            words.append(rng.choice([1, 2, 3, 5, 9]))
    return TokenPlane(senders, receivers, words, None)


def _schedules_identical(left, right) -> bool:
    if len(left) != len(right):
        return False
    return all(
        [int(p) for p in a] == [int(p) for p in b] for a, b in zip(left, right)
    )


def run_sharded_planning_comparison() -> Dict[str, Any]:
    plane = _planning_plane()
    cores = cpu_count()
    with ShardedPlanner(
        WORKERS, use_processes=True, min_tokens=1, process_min_tokens=4096
    ) as planner:
        planner.plan(plane, BUDGET, TAG_WORDS)  # warm the pool off the clock
        single_best = float("inf")
        sharded_best = float("inf")
        reference = None
        sharded = None
        for _ in range(REPEATS):  # interleave to average out machine drift
            start = time.perf_counter()
            reference = plan_token_rounds(plane, BUDGET, TAG_WORDS)
            single_best = min(single_best, time.perf_counter() - start)
            start = time.perf_counter()
            sharded = planner.plan(plane, BUDGET, TAG_WORDS)
            sharded_best = min(sharded_best, time.perf_counter() - start)
        pool_alive = not planner._pool_broken
        process_plans = planner.process_plans
    return {
        "workload": f"sharded planning m={M_TOKENS} groups={GROUPS}",
        "workers": WORKERS,
        "cores": cores,
        "single seconds (best)": round(single_best, 4),
        "sharded seconds (best)": round(sharded_best, 4),
        "speedup": round(single_best / sharded_best, 2),
        "floor": REQUIRED_SPEEDUP,
        "floor waived (single core)": cores < 2,
        "identical schedule": _schedules_identical(sharded, reference),
        "rounds": len(reference),
        "process pool": pool_alive and process_plans > 0,
    }


def run_charge_only_comparison() -> Dict[str, Any]:
    graph = path_graph(N_DISSEMINATION)
    rng = random.Random(SEED)
    tokens: Dict[int, List[Any]] = {}
    for index in range(K_DISSEMINATION):
        tokens.setdefault(rng.randrange(N_DISSEMINATION), []).append(("tok", index))
    nq = max(1, neighborhood_quality(graph, K_DISSEMINATION))

    def run(charge_only: bool):
        simulator = HybridSimulator(
            graph, ModelConfig.hybrid0(), seed=3, charge_only=charge_only
        )
        algorithm = KDissemination(
            simulator, tokens, nq=nq, charge_only=charge_only
        )
        start = time.perf_counter()
        result = algorithm.run()
        return time.perf_counter() - start, result, simulator

    times = {False: float("inf"), True: float("inf")}
    outcomes = {}
    for _ in range(REPEATS):
        for charge_only in (False, True):
            elapsed, result, simulator = run(charge_only)
            times[charge_only] = min(times[charge_only], elapsed)
            outcomes[charge_only] = (result, simulator)
    payload_result, payload_sim = outcomes[False]
    charged_result, charged_sim = outcomes[True]
    return {
        "workload": f"charge-only KDissemination k={K_DISSEMINATION}",
        "n": N_DISSEMINATION,
        "payload seconds (best)": round(times[False], 4),
        "charge-only seconds (best)": round(times[True], 4),
        "speedup": round(times[False] / times[True], 2),
        "identical metrics": payload_sim.metrics.diff(charged_sim.metrics) == {},
        "measured rounds": charged_sim.metrics.measured_rounds,
        "total rounds": charged_sim.metrics.total_rounds,
        "capacity violations": charged_sim.metrics.capacity_violations,
        "complete": payload_result.all_nodes_know_all_tokens()
        and charged_result.all_nodes_know_all_tokens(),
    }


def run_parallel_delivery_stages() -> Dict[str, Any]:
    """The three ShardedDelivery stages at production scale, pool vs serial.

    m=2x10^6 tokens over n=2^22 nodes: the fault keep-mask, the grouped
    capacity counters and the round capacity sweep.
    The pooled results must be bit-identical to the serial whole-array twin
    (asserted here); the speedup is the sum of best stage times.
    """
    np = _accel.np
    cores = cpu_count()
    if np is None:
        return {
            "workload": "parallel delivery stages",
            "skipped": "NumPy unavailable",
            "identical results": True,
            "floor waived (single core)": True,
        }
    n = N_DELIVERY_NODES
    rng = np.random.default_rng(SEED)
    senders = rng.integers(0, n, M_DELIVERY, dtype=np.int64)
    receivers = rng.integers(0, n, M_DELIVERY, dtype=np.int64)
    wt = rng.integers(1, 4, M_DELIVERY, dtype=np.int64)
    crashed = np.unique(rng.integers(0, n, n // 100, dtype=np.int64))
    failed = np.unique(
        rng.integers(0, n, 2_000, dtype=np.int64) * n
        + rng.integers(0, n, 2_000, dtype=np.int64)
    )
    budget = int(np.bincount(senders, weights=wt, minlength=n).max() * 0.75)

    def serial_stages():
        mask = span_keep_mask(np, senders, receivers, crashed, failed, n)
        sent = np.bincount(senders, weights=wt, minlength=n)
        recv = np.bincount(receivers, weights=wt, minlength=n)
        triples = []
        for arr in (sent, recv):
            over = arr > budget
            count = int(over.sum())
            first = int(np.argmax(over)) if count else -1
            triples.append((int(arr.max()), count, first))
        return mask, sent, recv, triples

    with ShardedPlanner(WORKERS, use_processes=True, min_tokens=1) as planner:
        engine = planner.delivery()
        engine.min_tokens = 1

        def pooled_stages():
            mask = engine.keep_mask(np, senders, receivers, crashed, failed, n)
            sent = np.zeros(n)
            recv = np.zeros(n)
            engine.apply_counters(np, senders, receivers, wt, sent, recv)
            swept = engine.sweep(np, sent, recv, budget)
            return mask, sent, recv, swept

        pooled_stages()  # warm the pool off the clock
        serial_best = float("inf")
        pooled_best = float("inf")
        serial = pooled = None
        for _ in range(REPEATS):
            start = time.perf_counter()
            serial = serial_stages()
            serial_best = min(serial_best, time.perf_counter() - start)
            start = time.perf_counter()
            pooled = pooled_stages()
            pooled_best = min(pooled_best, time.perf_counter() - start)
        pool_alive = not planner._pool_broken
        pool_stages = engine.pool_stages
    identical = (
        bool(np.array_equal(serial[0], pooled[0]))
        and bool(np.array_equal(serial[1], pooled[1]))
        and bool(np.array_equal(serial[2], pooled[2]))
        and (pooled[3] is None or serial[3] == [tuple(t) for t in pooled[3]])
    )
    return {
        "workload": f"parallel delivery stages m={M_DELIVERY} n=2^22",
        "workers": WORKERS,
        "cores": cores,
        "serial seconds (best)": round(serial_best, 4),
        "pooled seconds (best)": round(pooled_best, 4),
        "speedup": round(serial_best / pooled_best, 2),
        "floor": DELIVERY_FLOOR,
        "floor waived (single core)": cores < 2,
        "identical results": identical,
        "process pool": pool_alive and pool_stages > 0,
    }


def _large_star_workload():
    graph = star_graph(N_LARGE)
    rng = random.Random(SEED)
    tokens: Dict[int, List[Any]] = {}
    for index in range(K_DISSEMINATION):
        tokens.setdefault(rng.randrange(N_LARGE), []).append(("tok", index))
    return graph, tokens


def run_parallel_dissemination_large() -> Dict[str, Any]:
    """End-to-end n=10^6 charge-only star dissemination, 4 workers vs 1.

    The issue's acceptance bar: round-engine speedup >= E2E_FLOOR with
    strict metric identity asserted in the same run (floor waived on
    single-core hosts; identity never waived).
    """
    graph, tokens = _large_star_workload()
    cores = cpu_count()

    def run(planner):
        install_planner(planner)
        try:
            simulator = HybridSimulator(
                graph, ModelConfig.hybrid0(), seed=3, charge_only=True
            )
            # NQ_k(star) = 2 by inspection (the center's radius-1 ball is the
            # whole graph); the centralized NQ computation is Theta(n^2) here.
            algorithm = KDissemination(
                simulator, tokens, nq=2, charge_only=True
            )
            start = time.perf_counter()
            result = algorithm.run()
            return time.perf_counter() - start, result, simulator
        finally:
            install_planner(None)

    serial_seconds, serial_result, serial_sim = run(None)
    with ShardedPlanner(WORKERS, use_processes=True) as planner:
        parallel_seconds, parallel_result, parallel_sim = run(planner)
        pool_alive = not planner._pool_broken
    return {
        "workload": f"charge-only star KDissemination k={K_DISSEMINATION}, "
        f"{WORKERS} workers vs 1",
        "n": N_LARGE,
        "cores": cores,
        "serial seconds": round(serial_seconds, 2),
        "parallel seconds": round(parallel_seconds, 2),
        "speedup": round(serial_seconds / parallel_seconds, 2),
        "floor": E2E_FLOOR,
        "floor waived (single core)": cores < 2,
        "identical metrics": serial_sim.metrics.diff(parallel_sim.metrics) == {},
        "total rounds": parallel_result.metrics.total_rounds,
        "global words": parallel_result.metrics.global_words,
        "capacity violations": parallel_result.metrics.capacity_violations,
        "complete": serial_result.all_nodes_know_all_tokens()
        and parallel_result.all_nodes_know_all_tokens(),
        "process pool": pool_alive,
    }


def run_charge_only_xl_tier() -> Dict[str, Any]:
    """The n=10^7 charge-only star point under the parallel delivery path."""
    graph = star_graph(N_XL)
    rng = random.Random(SEED)
    tokens: Dict[int, List[Any]] = {}
    for index in range(K_DISSEMINATION):
        tokens.setdefault(rng.randrange(N_XL), []).append(("tok", index))
    with ShardedPlanner(WORKERS, use_processes=True) as planner:
        install_planner(planner)
        try:
            simulator = HybridSimulator(
                graph, ModelConfig.hybrid0(), seed=3, charge_only=True
            )
            algorithm = KDissemination(
                simulator, tokens, nq=2, charge_only=True
            )
            start = time.perf_counter()
            result = algorithm.run()
            elapsed = time.perf_counter() - start
        finally:
            install_planner(None)
    return {
        "workload": f"charge-only star KDissemination k={K_DISSEMINATION}",
        "n": N_XL,
        "workers": WORKERS,
        "seconds": round(elapsed, 2),
        "total rounds": result.metrics.total_rounds,
        "global words": result.metrics.global_words,
        "capacity violations": result.metrics.capacity_violations,
        "complete": result.all_nodes_know_all_tokens(),
    }


def _check_smoke(rows: List[Dict[str, Any]]) -> None:
    planning, charge, delivery = rows
    assert planning["identical schedule"], (
        "sharded planner diverged from the single-process schedule"
    )
    if not planning["floor waived (single core)"]:
        assert planning["speedup"] >= REQUIRED_SPEEDUP, (
            f"sharded planning speedup {planning['speedup']}x below the "
            f"required {REQUIRED_SPEEDUP}x on {planning['cores']} cores"
        )
    assert charge["complete"], "charge-only dissemination failed to deliver"
    assert charge["identical metrics"], (
        "charge-only metrics diverged from the payload run"
    )
    assert charge["capacity violations"] == 0
    assert charge["speedup"] >= CHARGE_ONLY_FLOOR, (
        f"charge-only run {charge['speedup']}x vs payload — below the "
        f"{CHARGE_ONLY_FLOOR}x sanity floor"
    )
    assert delivery["identical results"], (
        "pooled delivery stages diverged from the serial twin"
    )
    if "skipped" not in delivery and not delivery["floor waived (single core)"]:
        assert delivery["speedup"] >= DELIVERY_FLOOR, (
            f"pooled delivery stages {delivery['speedup']}x below the "
            f"{DELIVERY_FLOOR}x floor on {delivery['cores']} cores"
        )


def _write_artifact(rows: List[Dict[str, Any]]) -> None:
    write_bench_artifact(
        "sharded_engine",
        rows,
        m_tokens=M_TOKENS,
        workers=WORKERS,
        cores=cpu_count(),
        n_dissemination=N_DISSEMINATION,
        k_dissemination=K_DISSEMINATION,
        m_delivery=M_DELIVERY,
        repeats=REPEATS,
        required_speedup=REQUIRED_SPEEDUP,
        delivery_floor=DELIVERY_FLOOR,
        e2e_floor=E2E_FLOOR,
    )
    planning, charge, delivery = rows[0], rows[1], rows[2]
    update_trajectory(
        "sharded_engine",
        f"sharded planner {planning['speedup']}x and delivery stages "
        f"{delivery.get('speedup', 'n/a')}x on {planning['cores']} cores "
        f"(bit-identical schedules and stage results), charge-only "
        f"dissemination {charge['speedup']}x with bit-identical metrics at "
        f"n={N_DISSEMINATION}",
    )


def test_sharded_engine(save_table):
    rows = [
        run_sharded_planning_comparison(),
        run_charge_only_comparison(),
        run_parallel_delivery_stages(),
    ]
    save_table(
        "sharded_engine",
        rows,
        f"Sharded planner + delivery ({WORKERS} workers) + charge-only mode",
    )
    _write_artifact(rows)
    _check_smoke(rows)


def test_sharded_engine_large_tier(save_table):
    """n=10^6 4-vs-1 dissemination; runs in the scheduled CI job."""
    if os.environ.get("BENCH_SCALE") != "large":
        pytest.skip("large tier runs in the scheduled CI job (BENCH_SCALE=large)")
    row = run_parallel_dissemination_large()
    save_table(
        "sharded_engine_large_tier",
        [row],
        f"Charge-only dissemination at n={N_LARGE} (star), "
        f"{WORKERS} workers vs 1",
    )
    assert row["complete"], "charge-only large-tier dissemination incomplete"
    assert row["identical metrics"], (
        "parallel dissemination metrics diverged from the serial run"
    )
    assert row["capacity violations"] == 0
    if not row["floor waived (single core)"]:
        assert row["speedup"] >= E2E_FLOOR, (
            f"end-to-end round-engine speedup {row['speedup']}x below the "
            f"{E2E_FLOOR}x floor on {row['cores']} cores"
        )


def test_sharded_engine_xl_tier(save_table):
    """The n=10^7 charge-only star point; runs in the scheduled CI job."""
    if os.environ.get("BENCH_SCALE") != "large":
        pytest.skip("xl tier runs in the scheduled CI job (BENCH_SCALE=large)")
    row = run_charge_only_xl_tier()
    save_table(
        "sharded_engine_xl_tier",
        [row],
        f"Charge-only dissemination at n={N_XL} (star)",
    )
    assert row["complete"], "charge-only xl-tier dissemination incomplete"
    assert row["capacity violations"] == 0


def main() -> None:
    rows = [
        run_sharded_planning_comparison(),
        run_charge_only_comparison(),
        run_parallel_delivery_stages(),
    ]
    if os.environ.get("BENCH_SCALE") == "large":
        rows.append(run_parallel_dissemination_large())
        rows.append(run_charge_only_xl_tier())
    for row in rows:
        width = max(len(key) for key in row)
        for key, value in row.items():
            print(f"{key:<{width}}  {value}")
        print()
    _write_artifact(rows[:3])
    _check_smoke(rows[:3])
    for row in rows[3:]:
        assert row["complete"]
    print(
        "OK: sharded schedules and delivery stages identical; "
        "charge-only metrics bit-identical."
    )


if __name__ == "__main__":
    main()
