"""Bit-identity grid for the sharded *delivery* engine.

PR 9 proved the sharded planner schedule-identical; this grid proves the
same for the delivery side (:class:`~repro.simulator.sharding.ShardedDelivery`):
fault filtering of token planes, grouped capacity counters, the round
capacity sweep, and sparse-regime identifier learning must be **bit-identical**
to the serial path for every worker count {1, 2, 4, 7}, on both array
backends, in all three operating modes — fault-free, a crash + link-failure +
drop schedule, and charge-only.  Pinned quantities per the issue contract:
``RoundMetrics.diff`` (empty), the full metrics summary, capacity-violation
counts (and the strict-mode error text), and the complete per-node
``KnowledgeTracker`` state.

The in-process legs exercise the dispatch seam (the serial twin *is* the
whole-array path); the ``use_processes=True`` legs push every stage through
the real shared-memory pool with thresholds forced to 1, and a degrade test
proves a broken pool falls back permanently without changing a single bit.
"""

from __future__ import annotations

import random

import pytest

from repro.core.dissemination import KDissemination
from repro.graphs.generators import erdos_renyi_graph, path_graph
from repro.simulator import _accel
from repro.simulator import engine as engine_module
from repro.simulator.config import ModelConfig
from repro.simulator.engine import TokenPlane, batched_global_exchange, install_planner
from repro.simulator.errors import CapacityExceededError
from repro.simulator.faults import CrashEvent, FaultSchedule, LinkFailure
from repro.simulator.network import HybridSimulator
from repro.simulator.sharding import ShardedPlanner, WorkerPoolService

SEEDS = [0, 1, 2]
WORKER_COUNTS = [1, 2, 4, 7]
MODES = ["fault-free", "faulted", "charge-only"]

requires_numpy = pytest.mark.skipif(
    _accel.np is None, reason="NumPy not available; vectorised leg is inactive"
)


@pytest.fixture(params=["numpy", "python"])
def backend(request, monkeypatch):
    """Run the test body under both array backends."""
    if request.param == "python":
        monkeypatch.setattr(_accel, "np", None)
    elif _accel.np is None:
        pytest.skip("NumPy not available; vectorised leg is inactive")
    return request.param


@pytest.fixture
def planner_state(monkeypatch):
    """Snapshot/restore the engine's process-wide planner hook."""
    monkeypatch.setattr(
        engine_module, "_active_planner", engine_module._active_planner
    )
    monkeypatch.setattr(
        engine_module, "_env_planner_resolved", engine_module._env_planner_resolved
    )
    return engine_module


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
def _congested_triples(rng, n, budget):
    """Node-disjoint congested groups (multi-component, multi-round), with
    shards large enough that the vectorised plane path engages."""
    groups = max(2, min(4, n // 8))
    nodes = list(range(n))
    rng.shuffle(nodes)
    size = n // groups
    triples = []
    for g in range(groups):
        members = nodes[g * size : (g + 1) * size]
        hot = members[0]
        count = 2 * budget + rng.randrange(5, 20)
        for i in range(count):
            sender = rng.choice(members)
            receiver = hot if i % 4 else rng.choice(members)
            triples.append((sender, receiver, ("m", g, i)))
    return triples


def _exchange_schedule(seed):
    """Crashes (one transient, one permanent), a failed link on a real path
    edge, and both drop rates — every fault-filter branch fires."""
    return FaultSchedule(
        seed=seed,
        crashes=(
            CrashEvent(node=1, crash_round=1, recover_round=3),
            CrashEvent(node=4, crash_round=2),
        ),
        link_failures=(LinkFailure(2, 3, start_round=1, end_round=5),),
        global_drop_rate=0.15,
        local_drop_rate=0.1,
    )


def _dissemination_schedule(seed):
    """Transient crash only: the algorithm must still terminate."""
    return FaultSchedule(
        seed=seed,
        crashes=(CrashEvent(node=1, crash_round=2, recover_round=4),),
    )


def _sim_kwargs(mode, seed, schedule_factory):
    kwargs = {}
    if mode == "faulted":
        kwargs["fault_schedule"] = schedule_factory(seed)
    elif mode == "charge-only":
        kwargs["charge_only"] = True
    return kwargs


def _knowledge_state(sim):
    return {
        identifier: sorted(sim.knowledge.known_ids(identifier))
        for identifier in sim.all_ids()
    }


def _force_pool(planner):
    """Drop every delivery threshold so all three stages hit the real pool."""
    engine = planner.delivery()
    engine.min_tokens = 1
    engine.process_min_tokens = 1
    engine.sweep_min_nodes = 1
    return engine


# ----------------------------------------------------------------------
# Scenario drivers (return everything the grid pins)
# ----------------------------------------------------------------------
def _run_exchange(planner, seed, mode):
    """Congested multi-round exchange, non-strict: metrics summary pinned."""
    install_planner(planner)
    graph = erdos_renyi_graph(36, 0.15, seed=seed)
    rng = random.Random(f"delivery-{seed}-{mode}")
    sim = HybridSimulator(
        graph,
        ModelConfig(strict=False),
        seed=seed,
        **_sim_kwargs(mode, seed, _exchange_schedule),
    )
    budget = sim.global_budget_words()
    triples = _congested_triples(rng, 36, min(budget, 57))
    batched_global_exchange(sim, triples, tag="sd", collect=False)
    return sim.metrics


def _run_dissemination(planner, seed, mode):
    """HYBRID_0 dissemination: metrics + full knowledge state pinned."""
    install_planner(planner)
    graph = erdos_renyi_graph(30, 0.18, seed=seed + 40)
    rng = random.Random(f"kdiss-{seed}-{mode}")
    tokens = {}
    for index in range(16):
        tokens.setdefault(rng.randrange(30), []).append(("tok", index))
    sim = HybridSimulator(
        graph,
        ModelConfig.hybrid0(),
        seed=seed,
        **_sim_kwargs(mode, seed, _dissemination_schedule),
    )
    result = KDissemination(sim, tokens).run()
    return result.metrics, _knowledge_state(sim)


def _run_overload(planner, seed, mode, *, strict=False):
    """Planes sent over budget on purpose: the sweep must report identical
    violation counts (non-strict) or the identical first offender (strict)."""
    install_planner(planner)
    graph = path_graph(24)
    rng = random.Random(f"overload-{seed}-{mode}")
    sim = HybridSimulator(
        graph,
        ModelConfig.hybrid(strict=strict),
        seed=seed,
        **_sim_kwargs(mode, seed, _exchange_schedule),
    )
    budget = sim.global_budget_words()
    count = 36 * max(1, budget // 2)
    senders = [rng.randrange(24) for _ in range(count)]
    receivers = [rng.choice([5, 11]) for _ in range(count)]
    words = [rng.choice([1, 2, 3]) for _ in range(count)]
    plane = TokenPlane(
        senders, receivers, words, [("p", i) for i in range(count)]
    )
    outcome = None
    try:
        sim.global_send_plane(plane, tag="ov")
        sim.advance_round()
    except CapacityExceededError as exc:
        outcome = str(exc)
    return sim.metrics, outcome


# ----------------------------------------------------------------------
# The grid: workers x modes x backends, in-process delivery twin
# ----------------------------------------------------------------------
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("workers", WORKER_COUNTS)
@pytest.mark.parametrize("seed", SEEDS)
def test_exchange_delivery_is_bit_identical(seed, workers, mode, backend, planner_state):
    baseline = _run_exchange(None, seed, mode)
    with ShardedPlanner(workers, use_processes=False, min_tokens=1) as planner:
        sharded = _run_exchange(planner, seed, mode)
    assert sharded.diff(baseline) == {}
    assert sharded.summary() == baseline.summary()
    if mode == "faulted":
        assert baseline.summary()["dropped_messages"] > 0


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("workers", WORKER_COUNTS)
@pytest.mark.parametrize("seed", SEEDS[:2])
def test_dissemination_delivery_is_bit_identical(
    seed, workers, mode, backend, planner_state
):
    base_metrics, base_known = _run_dissemination(None, seed, mode)
    with ShardedPlanner(workers, use_processes=False, min_tokens=1) as planner:
        shard_metrics, shard_known = _run_dissemination(planner, seed, mode)
    assert shard_metrics.diff(base_metrics) == {}
    assert shard_known == base_known


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("workers", [1, 4, 7])
@pytest.mark.parametrize("seed", SEEDS[:2])
def test_capacity_sweep_is_bit_identical(seed, workers, mode, backend, planner_state):
    base_metrics, base_error = _run_overload(None, seed, mode)
    with ShardedPlanner(workers, use_processes=False, min_tokens=1) as planner:
        shard_metrics, shard_error = _run_overload(planner, seed, mode)
    assert shard_metrics.diff(base_metrics) == {}
    assert shard_error == base_error is None
    assert base_metrics.capacity_violations > 0


@pytest.mark.parametrize("seed", SEEDS[:2])
def test_strict_sweep_reports_the_identical_first_offender(
    seed, backend, planner_state
):
    base_metrics, base_error = _run_overload(None, seed, "fault-free", strict=True)
    with ShardedPlanner(4, use_processes=False, min_tokens=1) as planner:
        shard_metrics, shard_error = _run_overload(
            planner, seed, "fault-free", strict=True
        )
    assert base_error is not None and "global words in round" in base_error
    assert shard_error == base_error
    assert shard_metrics.diff(base_metrics) == {}


# ----------------------------------------------------------------------
# Real process pool: every stage through shared memory
# ----------------------------------------------------------------------
@requires_numpy
@pytest.mark.parametrize("mode", MODES)
def test_pool_exchange_delivery_is_bit_identical(mode, planner_state):
    seed = 1
    baseline = _run_exchange(None, seed, mode)
    with ShardedPlanner(2, use_processes=True, min_tokens=1) as planner:
        engine = _force_pool(planner)
        sharded = _run_exchange(planner, seed, mode)
        if planner._pool_broken:
            pytest.skip("multiprocessing pool unavailable in this environment")
    assert engine.pool_stages > 0  # the pool path genuinely ran
    assert sharded.diff(baseline) == {}
    assert sharded.summary() == baseline.summary()


@requires_numpy
def test_pool_dissemination_and_sweep_are_bit_identical(planner_state):
    seed = 0
    base_metrics, base_known = _run_dissemination(None, seed, "faulted")
    sweep_base, _ = _run_overload(None, seed, "fault-free")
    with ShardedPlanner(2, use_processes=True, min_tokens=1) as planner:
        engine = _force_pool(planner)
        shard_metrics, shard_known = _run_dissemination(planner, seed, "faulted")
        sweep_shard, sweep_error = _run_overload(planner, seed, "fault-free")
        if planner._pool_broken:
            pytest.skip("multiprocessing pool unavailable in this environment")
    assert engine.pool_stages > 0
    assert shard_metrics.diff(base_metrics) == {}
    assert shard_known == base_known
    assert sweep_shard.diff(sweep_base) == {}
    assert sweep_error is None


@requires_numpy
def test_pool_failure_degrades_delivery_without_changing_bits(
    monkeypatch, planner_state
):
    """A pool that dies mid-stage marks the planner broken permanently; the
    run completes on the in-process twin with identical results."""
    seed = 2
    baseline = _run_exchange(None, seed, "faulted")
    monkeypatch.setattr(
        WorkerPoolService,
        "apply_async",
        lambda self, func, args: (_ for _ in ()).throw(OSError("pool died")),
    )
    with ShardedPlanner(2, use_processes=True, min_tokens=1) as planner:
        engine = _force_pool(planner)
        sharded = _run_exchange(planner, seed, "faulted")
        assert planner._pool_broken
        again = _run_exchange(planner, seed, "faulted")
    assert engine.pool_stages == 0
    assert sharded.diff(baseline) == {}
    assert again.diff(baseline) == {}
