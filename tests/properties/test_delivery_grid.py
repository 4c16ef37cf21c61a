"""Delivery identity grid for the serial round engine.

Every exchange is planned by :func:`~repro.simulator.engine.plan_token_rounds`
and delivered by the one serial ``advance_round``: fault filtering of token
planes, grouped capacity counters, the round capacity sweep and identifier
learning.  This grid pins that path against an independent twin in three
operating modes — fault-free, a crash + link-failure + drop schedule, and
charge-only — on both array backends:

* exchanges against the reference schedule (``_reference_shard_transfers``):
  drops never refund budget, so rounds, messages and words match it in the
  faulted mode too;
* a charge-only run against the payload run it stands in for, and vice
  versa;
* one bulk plane against the same tokens sent as small shards (the array
  capacity sweep against the per-node dict counters);
* every result against the same run on the other array backend.

Pinned quantities: ``RoundMetrics.diff`` (empty), the full metrics summary,
capacity-violation counts, the strict-mode error text and the complete
per-node ``KnowledgeTracker`` state.
"""

from __future__ import annotations

import random

import pytest

from repro.core.dissemination import KDissemination
from repro.graphs.generators import erdos_renyi_graph, path_graph
from repro.simulator import _accel
from repro.simulator.config import ModelConfig
from repro.simulator.engine import TokenPlane, batched_global_exchange
from repro.simulator.errors import CapacityExceededError
from repro.simulator.faults import CrashEvent, FaultSchedule, LinkFailure
from repro.simulator.messages import payload_words
from repro.simulator.network import HybridSimulator
from schedule_oracle import expected_exchange

MODES = ["fault-free", "faulted", "charge-only"]


@pytest.fixture(params=["numpy", "python"])
def backend(request, monkeypatch):
    """Run the test body under both array backends."""
    if request.param == "python":
        monkeypatch.setattr(_accel, "np", None)
    elif _accel.np is None:
        pytest.skip("NumPy not available; vectorised leg is inactive")
    return request.param


def _pin_across_backends(test, key, value, backend):
    """The first backend to run a case pins ``value``; the other must match."""
    pins = test.__dict__.setdefault("_pins", {})
    if key in pins:
        assert value == pins[key], f"{key}: backend {backend} diverged"
    else:
        pins[key] = value


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
def _congested_triples(rng, n, budget):
    """Node-disjoint congested groups (multi-round), with shards large enough
    that the vectorised plane path engages."""
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


def _sim_kwargs(mode, seed, schedule_factory, *, charge_only=None):
    kwargs = {}
    if mode == "faulted":
        kwargs["fault_schedule"] = schedule_factory(seed)
    if charge_only if charge_only is not None else mode == "charge-only":
        kwargs["charge_only"] = True
    return kwargs


def _knowledge_state(sim):
    return {
        identifier: sorted(sim.knowledge.known_ids(identifier))
        for identifier in sim.all_ids()
    }


# ----------------------------------------------------------------------
# Scenario drivers (return everything the grid pins)
# ----------------------------------------------------------------------
def _run_exchange(seed, mode, *, charge_only=None):
    """Congested multi-round exchange, non-strict: metrics pinned, plus what
    the reference schedule expects of it."""
    graph = erdos_renyi_graph(36, 0.15, seed=seed)
    rng = random.Random(f"delivery-{seed}-{mode}")
    sim = HybridSimulator(
        graph,
        ModelConfig(strict=False),
        seed=seed,
        **_sim_kwargs(mode, seed, _exchange_schedule, charge_only=charge_only),
    )
    budget = sim.global_budget_words()
    triples = _congested_triples(rng, 36, min(budget, 57))
    batched_global_exchange(sim, triples, tag="sd", collect=False)
    return sim.metrics, expected_exchange(budget, triples, "sd")


def _run_dissemination(seed, mode, *, charge_only=None):
    """HYBRID_0 dissemination: metrics + full knowledge state pinned."""
    graph = erdos_renyi_graph(30, 0.18, seed=seed + 40)
    rng = random.Random(f"kdiss-{seed}-{mode}")
    tokens = {}
    for index in range(16):
        tokens.setdefault(rng.randrange(30), []).append(("tok", index))
    sim = HybridSimulator(
        graph,
        ModelConfig.hybrid0(),
        seed=seed,
        **_sim_kwargs(mode, seed, _dissemination_schedule, charge_only=charge_only),
    )
    result = KDissemination(sim, tokens).run()
    return result, _knowledge_state(sim)


def _run_overload(seed, mode, *, strict=False, chunked=False, charge_only=None):
    """One plane sent over budget on purpose, whole or as small shards: the
    sweep reports the violation counts (non-strict) or the first offender
    (strict)."""
    graph = path_graph(24)
    rng = random.Random(f"overload-{seed}-{mode}")
    sim = HybridSimulator(
        graph,
        ModelConfig.hybrid(strict=strict),
        seed=seed,
        **_sim_kwargs(mode, seed, _exchange_schedule, charge_only=charge_only),
    )
    budget = sim.global_budget_words()
    count = 36 * max(1, budget // 2)
    senders = [rng.randrange(24) for _ in range(count)]
    receivers = [rng.choice([5, 11]) for _ in range(count)]
    payloads = [("p", i, "x" * 8 * rng.choice([0, 1, 2])) for i in range(count)]
    outcome = None
    plane = TokenPlane(senders, receivers, [payload_words(p) for p in payloads], payloads)
    try:
        if chunked:
            # Shards below the simulator's small-shard cutoff feed the
            # per-node dict counters instead of the dense arrays.
            step = HybridSimulator._SMALL_SHARD // 2
            for start in range(0, count, step):
                sim.global_send_plane(
                    plane, list(range(start, min(start + step, count))), tag="ov"
                )
        else:
            sim.global_send_plane(plane, tag="ov")
        sim.advance_round()
    except CapacityExceededError as exc:
        outcome = str(exc)
    return sim.metrics, outcome


# ----------------------------------------------------------------------
# The grid: seeds x modes x backends
# ----------------------------------------------------------------------
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("seed", range(12))
def test_exchange_delivery_is_bit_identical(seed, mode, backend):
    plane, expected = _run_exchange(seed, mode)
    twin, _ = _run_exchange(seed, mode, charge_only=mode != "charge-only")
    assert plane.diff(twin) == {}
    assert plane.summary() == twin.summary()
    assert (plane.measured_rounds, plane.global_messages, plane.global_words) == (
        expected.rounds,
        expected.messages,
        expected.words,
    )
    if mode == "faulted":
        assert plane.summary()["dropped_messages"] > 0
    else:
        assert plane.capacity_violations == 0
    _pin_across_backends(
        test_exchange_delivery_is_bit_identical, (seed, mode), plane.summary(), backend
    )


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("seed", range(8))
def test_dissemination_delivery_is_bit_identical(seed, mode, backend):
    result, known = _run_dissemination(seed, mode)
    twin, twin_known = _run_dissemination(
        seed, mode, charge_only=mode != "charge-only"
    )
    assert result.metrics.diff(twin.metrics) == {}
    assert known == twin_known
    if mode == "fault-free":
        assert result.all_nodes_know_all_tokens()
    _pin_across_backends(
        test_dissemination_delivery_is_bit_identical,
        (seed, mode),
        (result.metrics.summary(), known),
        backend,
    )


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("seed", range(6))
def test_capacity_sweep_is_bit_identical(seed, mode, backend):
    plane, plane_error = _run_overload(seed, mode)
    chunks, chunk_error = _run_overload(seed, mode, chunked=True)
    assert plane.diff(chunks) == {}
    assert plane_error == chunk_error is None
    assert plane.capacity_violations > 0
    _pin_across_backends(
        test_capacity_sweep_is_bit_identical, (seed, mode), plane.summary(), backend
    )


@pytest.mark.parametrize("seed", range(2))
def test_strict_sweep_reports_the_identical_first_offender(seed, backend):
    plane, plane_error = _run_overload(seed, "fault-free", strict=True)
    chunks, chunk_error = _run_overload(seed, "fault-free", strict=True, chunked=True)
    assert plane_error is not None and "global words in round" in plane_error
    assert chunk_error == plane_error
    assert plane.diff(chunks) == {}
    _pin_across_backends(
        test_strict_sweep_reports_the_identical_first_offender,
        seed,
        plane_error,
        backend,
    )
