"""The repository's benchmark: four paper workloads, end to end and per layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload star-charge --seed 1 --seconds 34 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 34 --trace 0

Each repetition is one workload instance run to completion in a fresh
process (``perfbench/worker.py``), so set-up time and peak memory belong to
that repetition.  Repetitions of the same seed repeat until ``--seconds`` is
used up (at least one), and the run reports medians.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced repetitions and reports the per-layer ledger; the
difference between the two is ``trace.overhead_s``.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  The lines before it are an environment record
and, when tracing, a readable ledger.

The exit code is 0 when every repetition passed its output check and the
determinism check, 1 when one failed (the result line is still printed), and
2 when the run was refused: a ``REPRO_*`` switch is set, or the directory is
not a checkout of the program.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
#: Trace files and the determinism registry; ignored by git.
OUT_DIR = os.path.join(HERE, "runs")
#: One invocation must end within the benchmark contract's 180 seconds.
DEADLINE_S = 165.0

WORKLOAD_NAMES = ("star-charge", "grid-apsp", "grid-skeleton", "cycle-faults")

#: Metric units, by metric name.
END_TO_END_UNITS = {
    "run_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "rounds_total": "rounds",
    "global_words": "words",
}

#: ``(workload, phase)`` pairs reported by the traced run, as
#: ``core.phase.<algorithm>.<phase>``; nested KDissemination instances add up.
PHASES = (
    "kdis.parameters",
    "kdis.clustering",
    "kdis.load-balance",
    "kdis.converge-cast",
    "kdis.down-cast",
    "apsp.parameters",
    "apsp.identifier-broadcast",
    "apsp.leader-sssp",
    "apsp.local-exploration",
    "apsp.closest-leader-broadcast",
    "skel.parameters",
    "skel.skeleton",
    "skel.skeleton-spanner",
    "skel.local-exploration",
    "resil.resilient-dissemination",
)

#: Layers predicted to dominate each workload's traced self time (README.md).
PREDICTED = {
    "star-charge": (
        "simulator.knowledge.learn",
        "simulator.knowledge.lookup",
        "simulator.network.send",
        "simulator.network.advance",
    ),
    "grid-apsp": ("graphs.index.nq",),
    "grid-skeleton": ("graphs.index.hhop",),
    "cycle-faults": ("simulator.network.send", "simulator.faults"),
}

#: Simulated figures that must repeat exactly for one seed.
DETERMINISTIC_KEYS = (
    "rounds_total",
    "measured_rounds",
    "charged_rounds",
    "global_words",
    "global_messages",
    "dropped_messages",
    "retransmissions",
)


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def refuse(message: str) -> None:
    print(f"perfbench: refused: {message}", file=sys.stderr)
    sys.exit(2)


def preflight(root: str) -> None:
    switches = sorted(key for key in os.environ if key.startswith("REPRO_"))
    if switches:
        refuse(
            f"{', '.join(switches)} set; the benchmark measures the default "
            f"configuration only"
        )
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        refuse(f"{root} holds no src/repro package; run from a checkout's root")


def source_digest(root: str) -> str:
    """Digest of the program's and the benchmark's source, keying the
    determinism registry: either one changing may change the figures."""
    digest = hashlib.sha256()
    for top in (os.path.join(root, "src"), HERE):
        for directory, subdirs, files in os.walk(top):
            subdirs.sort()
            for name in sorted(files):
                if name.endswith(".py"):
                    path = os.path.join(directory, name)
                    digest.update(os.path.relpath(path, root).encode())
                    with open(path, "rb") as handle:
                        digest.update(handle.read())
    return digest.hexdigest()[:16]


# ----------------------------------------------------------------------
# Repetitions
# ----------------------------------------------------------------------
def repetition(
    workload: str, seed: int, traced: bool, timeout: float, root: str
) -> Dict[str, Any]:
    """Run one repetition in a fresh process; a crash is a failed report."""
    command = [
        sys.executable,
        WORKER,
        "--workload", workload,
        "--seed", str(seed),
        "--trace", "1" if traced else "0",
    ]
    if traced:
        os.makedirs(OUT_DIR, exist_ok=True)
        command += [
            "--trace-out",
            os.path.join(OUT_DIR, f"trace-{workload}-{seed}-{os.getpid()}-{time.time_ns()}.json"),
        ]
    launched = monotonic()
    try:
        completed = subprocess.run(
            command + ["--launched", repr(launched)],
            cwd=root,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            timeout=max(timeout, 1.0),
        )
    except subprocess.TimeoutExpired:
        return {"ok": False, "failures": [f"repetition exceeded {timeout:.0f} s"],
                "wall_s": monotonic() - launched}
    wall = monotonic() - launched
    lines = completed.stdout.strip().splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, ValueError):
        report = {"ok": False, "failures": [
            f"worker exited {completed.returncode} without a report: "
            f"{completed.stderr.strip()[-2000:]}"
        ]}
    report["wall_s"] = wall
    return report


def repetitions(
    workload: str, seed: int, seconds: float, trace: bool, root: str, started: float
) -> List[Dict[str, Any]]:
    """Repeat while another repetition (pair, when tracing) of typical
    length fits in ``seconds``; always at least one.  Stops at the first
    crash, and early enough to end within the contract's deadline."""
    reports: List[Dict[str, Any]] = []
    durations: List[float] = []
    begin = monotonic()
    while True:
        iteration = monotonic()
        for traced in ((False, True) if trace else (False,)):
            timeout = DEADLINE_S - (monotonic() - started)
            report = repetition(workload, seed, traced, timeout, root)
            report["traced"] = traced
            reports.append(report)
            if "run_s" not in report:
                return reports
        now = monotonic()
        durations.append(now - iteration)
        if now - begin + statistics.median(durations) > seconds:
            return reports
        if now - started + 2 * max(durations) > DEADLINE_S:
            return reports


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------
def fingerprint(report: Dict[str, Any]) -> Dict[str, Any]:
    stats = report["stats"]
    return {
        "stats": {key: stats[key] for key in DETERMINISTIC_KEYS},
        "phase_log": report["phase_log"],
    }


def determinism_failures(
    workload: str, seed: int, reports: List[Dict[str, Any]], root: str
) -> List[str]:
    """Simulated figures must be identical across every run of one seed.

    Repetitions of this invocation are compared with each other (each is its
    own process, with its own hash seed), and with every earlier invocation
    on the same seed and source, through a registry kept in the checkout.
    """
    prints = [fingerprint(report) for report in reports if "stats" in report]
    if not prints:
        return []
    failures = [
        f"determinism: repetition {i} differs: {p} != {prints[0]}"
        for i, p in enumerate(prints[1:], 1)
        if p != prints[0]
    ]
    os.makedirs(OUT_DIR, exist_ok=True)
    registry_path = os.path.join(OUT_DIR, "determinism.json")
    try:
        with open(registry_path) as handle:
            registry = json.load(handle)
    except FileNotFoundError:
        registry = {}
    key = f"{workload}|{seed}|{source_digest(root)}"
    known = registry.setdefault(key, prints[0])
    if known != prints[0]:
        failures.append(f"determinism: {prints[0]} differs from an earlier run: {known}")
    temporary = registry_path + f".{os.getpid()}"
    with open(temporary, "w") as handle:
        json.dump(registry, handle, indent=1, sort_keys=True)
    os.replace(temporary, registry_path)
    return failures


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(reports: List[Dict[str, Any]]) -> Dict[str, Dict[str, Any]]:
    untraced = [r for r in reports if not r["traced"] and "run_s" in r]
    values = {
        "run_s": median([r["run_s"] for r in untraced]),
        "setup_s": median([r["setup_s"] for r in untraced]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in untraced]),
        "rounds_total": untraced[0]["stats"]["rounds_total"] if untraced else 0,
        "global_words": untraced[0]["stats"]["global_words"] if untraced else 0,
    }
    return {
        name: {"value": value, "unit": END_TO_END_UNITS[name]}
        for name, value in values.items()
    }


def per_layer(reports: List[Dict[str, Any]]) -> Dict[str, Dict[str, Any]]:
    traced = [r for r in reports if r["traced"] and "trace" in r]
    untraced = [r for r in reports if not r["traced"] and "run_s" in r]
    rows: Dict[str, List[Tuple[float, str]]] = {}

    def put(name: str, unit: str, value: float) -> None:
        rows.setdefault(name, []).append((value, unit))

    for report in traced:
        trace = report["trace"]
        for layer, (seconds, calls, work) in trace["layers"].items():
            put(f"{layer}.s", "s", seconds)
            put(f"{layer}.calls", "count", calls)
        layers = trace["layers"]
        put("simulator.network.send.tokens", "count", layers["simulator.network.send"][2])
        put("simulator.engine.plan.tokens", "count", layers["simulator.engine.plan"][2])
        put("simulator.engine.plan.rounds", "count", trace["planned_rounds"])
        sent = trace["global_messages"]
        put(
            "simulator.faults.delivered_ratio",
            "ratio",
            1.0 - trace["dropped_messages"] / sent if sent else 1.0,
        )
        put("simulator.faults.retransmissions", "count", trace["retransmissions"])
        for phase in PHASES:
            seconds, _calls, measured, charged = trace["phases"].get(
                f"core.phase.{phase}", (0.0, 0, 0, 0)
            )
            put(f"core.phase.{phase}.s", "s", seconds)
            put(f"core.phase.{phase}.measured_rounds", "rounds", measured)
            put(f"core.phase.{phase}.charged_rounds", "rounds", charged)
        put("unattributed.s", "s", report["run_s"] - trace["run_layer_s"])
        put("trace.run_s", "s", report["run_s"])
    metrics = {
        name: {"value": median([value for value, _ in values]), "unit": values[0][1]}
        for name, values in rows.items()
    }
    if traced and untraced:
        overhead = median([r["run_s"] for r in traced]) - median(
            [r["run_s"] for r in untraced]
        )
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return metrics


def unknown_phases(reports: List[Dict[str, Any]]) -> List[str]:
    listed = {f"core.phase.{phase}" for phase in PHASES}
    seen = {
        name
        for report in reports
        if "trace" in report
        for name in report["trace"]["phases"]
    }
    return sorted(seen - listed)


def print_ledger(workload: str, metrics: Dict[str, Dict[str, Any]], predicted) -> None:
    run_s = metrics.get("trace.run_s", {}).get("value", 0.0)
    selfs = sorted(
        (
            (entry["value"], name[: -len(".s")])
            for name, entry in metrics.items()
            if name.endswith(".s") and not name.startswith(("core.phase.", "unattributed"))
        ),
        reverse=True,
    )
    print(f"# per-layer self time, {workload} (traced run_s {run_s:.3f} s; "
          f"set-up included):")
    for seconds, layer in selfs:
        if seconds > 0:
            calls = metrics[f"{layer}.calls"]["value"]
            print(f"#   {layer:<28} {seconds:9.3f} s  {calls:>10.0f} calls")
    print(f"#   {'unattributed (run only)':<28} {metrics['unattributed.s']['value']:9.3f} s")
    dominant = selfs[0][1] if selfs else None
    verdict = "matches" if dominant in predicted else "DOES NOT match"
    print(f"# dominant layer: {dominant}; {verdict} the prediction {', '.join(predicted)}")


def declared_metrics(root: str, trace: bool) -> Optional[set]:
    """The metric names BENCHMARK.json declares for this mode, if present."""
    try:
        with open(os.path.join(root, "BENCHMARK.json")) as handle:
            declared = json.load(handle)
    except FileNotFoundError:
        return None
    return {entry["name"] for entry in declared["per_layer" if trace else "end_to_end"]}


# ----------------------------------------------------------------------
def run_workload(
    workload: str, seed: int, seconds: float, trace: bool, root: str, started: float
) -> Dict[str, Any]:
    """Run one workload's repetitions, check them, print the environment
    record (and the ledger when tracing) and return the result object."""
    reports = repetitions(workload, seed, seconds, trace, root, started)
    failures: List[str] = []
    for index, report in enumerate(reports):
        for failure in report.get("failures", []):
            failures.append(f"repetition {index}: {failure}")
    failed = sum(1 for report in reports if not report.get("ok"))
    drift = determinism_failures(workload, seed, reports, root)
    if drift:
        # Drift fails the whole set: no repetition's figures can be trusted.
        failures += drift
        failed = len(reports)
    for failure in failures:
        print(f"# FAILED {workload} seed {seed}: {failure}")
    if trace:
        metrics = per_layer(reports)
        for name in unknown_phases(reports):
            print(f"# warning: phase {name} is not listed in PHASES; its self "
                  f"time is in unattributed.s only")
        for entry in sorted({e for r in reports for e in r.get("trace", {}).get("unwrapped", [])}):
            print(f"# warning: layer entry {entry} no longer exists; its time "
                  f"is unattributed")
    else:
        metrics = end_to_end(reports)
    numpy_version = next((r["numpy"] for r in reports if "numpy" in r), None)
    environment = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "repetitions": len(reports),
        "run_s_each": [
            round(r["run_s"], 4) for r in reports if "run_s" in r and not r["traced"]
        ],
    }
    print(json.dumps({"environment": environment}))
    declared = declared_metrics(root, trace)
    if failed == 0 and declared is not None and set(metrics) != declared:
        print(f"# FAILED {workload}: metrics differ from BENCHMARK.json: "
              f"{sorted(set(metrics) ^ declared)}")
        failed = len(reports)
    if trace and "unattributed.s" in metrics:
        print_ledger(workload, metrics, PREDICTED[workload])
    return {
        "correct": failed == 0,
        "attempted": len(reports),
        "failed": failed,
        "metrics": metrics,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = monotonic()
    root = os.getcwd()
    preflight(root)

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        result = run_workload(
            name, args.seed, args.seconds, bool(args.trace), root,
            started if len(names) == 1 else monotonic(),
        )
        if len(names) == 1:
            combined = result
        else:
            print(json.dumps({"workload": name, **result}))
            combined["correct"] = combined["correct"] and result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            combined["metrics"].update(
                {f"{name}.{metric}": entry for metric, entry in result["metrics"].items()}
            )
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
