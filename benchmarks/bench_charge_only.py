"""Charge-only simulation benchmark.

Acceptance check for charge-only mode (``HybridSimulator(charge_only=True)``:
payload-free token planes with exact round and word accounting):

* **Payload vs charge-only** (smoke tier) — ``KDissemination`` k=4096 on an
  n=10^4 path in payload mode vs charge-only mode.  Metric summaries and
  round counts must be **bit-identical** (the whole point of charge-only
  mode: exact accounting, no payload materialisation); the speedup is
  reported, with a lenient sanity floor (``CHARGE_ONLY_MIN_SPEEDUP``,
  default 0.9) because eliding payloads must never make the run
  meaningfully slower.

* **Large tier** (``BENCH_SCALE=large``, the scheduled CI job) — charge-only
  ``KDissemination`` k=4096 on an n=10^6 and an n=10^7 **star**, one serial
  end-to-end run each.  These are absolute rows (seconds, rounds, words,
  host cores) with no speedup floor; each asserts that the run completed
  with zero capacity violations.  The star keeps NQ_k at 2 (the center's
  radius-1 ball is the whole graph), which yields few, large clusters and a
  down-cast volume that fits in memory — a payload run at this scale would
  materialise >= 10^7 token objects; charge-only completes on the words
  columns alone.  NQ is passed as a precomputed hint (``nq=2`` by
  inspection) because the centralized NQ computation is Theta(n^2) on a
  star and is not what this benchmark measures.

Each run writes ``BENCH_charge_only.json`` next to the ASCII tables (see
``_artifacts.py``).

Run directly (``python benchmarks/bench_charge_only.py``) or through
pytest (``pytest benchmarks/bench_charge_only.py``).
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
from repro.simulator._accel import cpu_count
from repro.simulator.config import ModelConfig
from repro.simulator.network import HybridSimulator

N_DISSEMINATION = 10_000
K_DISSEMINATION = 4096
N_LARGE = 1_000_000
N_XL = 10_000_000
SEED = 11
REPEATS = 3
#: Charge-only mode elides work, so it must never be meaningfully slower
#: than the payload run; the real acceptance criterion is metric identity.
CHARGE_ONLY_FLOOR = float(os.environ.get("CHARGE_ONLY_MIN_SPEEDUP", "0.9"))


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
        "cores": cpu_count(),
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


def run_charge_only_star(n: int) -> Dict[str, Any]:
    """One serial end-to-end charge-only star dissemination at size ``n``."""
    graph = star_graph(n)
    rng = random.Random(SEED)
    tokens: Dict[int, List[Any]] = {}
    for index in range(K_DISSEMINATION):
        tokens.setdefault(rng.randrange(n), []).append(("tok", index))
    simulator = HybridSimulator(graph, ModelConfig.hybrid0(), seed=3, charge_only=True)
    # NQ_k(star) = 2 by inspection (the center's radius-1 ball is the whole
    # graph); the centralized NQ computation is Theta(n^2) here.
    algorithm = KDissemination(simulator, tokens, nq=2, charge_only=True)
    start = time.perf_counter()
    result = algorithm.run()
    elapsed = time.perf_counter() - start
    return {
        "workload": f"charge-only star KDissemination k={K_DISSEMINATION}",
        "n": n,
        "cores": cpu_count(),
        "seconds": round(elapsed, 2),
        "total rounds": result.metrics.total_rounds,
        "global words": result.metrics.global_words,
        "capacity violations": result.metrics.capacity_violations,
        "complete": result.all_nodes_know_all_tokens(),
    }


def _check_comparison(charge: Dict[str, Any]) -> None:
    assert charge["complete"], "charge-only dissemination failed to deliver"
    assert charge["identical metrics"], (
        "charge-only metrics diverged from the payload run"
    )
    assert charge["capacity violations"] == 0
    assert charge["speedup"] >= CHARGE_ONLY_FLOOR, (
        f"charge-only run {charge['speedup']}x vs payload — below the "
        f"{CHARGE_ONLY_FLOOR}x sanity floor"
    )


def _check_star(row: Dict[str, Any]) -> None:
    assert row["complete"], f"charge-only star dissemination incomplete at n={row['n']}"
    assert row["capacity violations"] == 0


def _write_artifact(charge: Dict[str, Any]) -> None:
    write_bench_artifact(
        "charge_only",
        [charge],
        cores=cpu_count(),
        n_dissemination=N_DISSEMINATION,
        k_dissemination=K_DISSEMINATION,
        repeats=REPEATS,
        charge_only_floor=CHARGE_ONLY_FLOOR,
    )
    update_trajectory(
        "charge_only",
        f"charge-only KDissemination {charge['charge-only seconds (best)']} s vs "
        f"payload {charge['payload seconds (best)']} s ({charge['speedup']}x, "
        f"floor {CHARGE_ONLY_FLOOR}x) with bit-identical metrics at "
        f"n={N_DISSEMINATION}, k={K_DISSEMINATION} on {charge['cores']} cores",
    )


def test_charge_only(save_table):
    charge = run_charge_only_comparison()
    save_table("charge_only", [charge], "Charge-only vs payload dissemination")
    _write_artifact(charge)
    _check_comparison(charge)


@pytest.mark.parametrize(
    "name,n", [("charge_only_large_tier", N_LARGE), ("charge_only_xl_tier", N_XL)]
)
def test_charge_only_star_tier(save_table, name, n):
    """Serial charge-only star rows; run in the scheduled CI job."""
    if os.environ.get("BENCH_SCALE") != "large":
        pytest.skip("star tiers run in the scheduled CI job (BENCH_SCALE=large)")
    row = run_charge_only_star(n)
    save_table(name, [row], f"Charge-only dissemination at n={n} (star), serial")
    _check_star(row)


def main() -> None:
    charge = run_charge_only_comparison()
    rows = [charge]
    if os.environ.get("BENCH_SCALE") == "large":
        rows.extend(run_charge_only_star(n) for n in (N_LARGE, N_XL))
    for row in rows:
        width = max(len(key) for key in row)
        for key, value in row.items():
            print(f"{key:<{width}}  {value}")
        print()
    _write_artifact(charge)
    _check_comparison(charge)
    for row in rows[1:]:
        _check_star(row)
    print("OK: charge-only metrics bit-identical to the payload run.")


if __name__ == "__main__":
    main()
