"""One benchmark repetition in a fresh process: set up, run, check, report.

Started by ``perfbench/run.py``; not meant to be run by hand.  The parent
passes the monotonic clock reading taken just before it started this
process, so ``setup_s`` covers interpreter start, imports, input generation
and construction up to the call to ``run()``.  ``CLOCK_MONOTONIC`` is
system-wide on Linux, so the two processes' readings compare.

The last line of standard output is one JSON object.  A workload that raises
or fails its output check is reported there with ``ok: false``; it is an
operation failure, not a crash of the harness.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--launched", type=float, required=True)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args()

    root = os.getcwd()
    sys.path.insert(0, os.path.join(root, "src"))
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    report = {"ok": False, "failures": []}
    try:
        report.update(_measure(args))
    except Exception:  # the boundary that must report, not crash
        report["failures"].append(traceback.format_exc(limit=8))
    print(json.dumps(report))
    return 0


def _measure(args) -> dict:
    from workloads import WORKLOADS, simulated_stats
    import numpy

    workload = WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer(run_id=f"{args.workload}-{args.seed}-{os.getpid()}")
        tracer.install()
        built = tracer.root("setup", lambda: workload.build(args.seed))
    else:
        built = workload.build(args.seed)

    started = monotonic()
    if tracer is not None:
        result = tracer.root("run", built.algorithm.run)
    else:
        result = built.algorithm.run()
    finished = monotonic()
    peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        tracer.uninstall()

    failures = workload.check(built, result)
    report = {
        "ok": not failures,
        "failures": failures,
        "setup_s": started - args.launched,
        "run_s": finished - started,
        "peak_rss_mb": peak_rss_kib / 1024.0,
        "stats": simulated_stats(built.simulator),
        "phase_log": [
            [record.name, record.measured_rounds, record.charged_rounds]
            for record in built.algorithm.phase_log
        ],
        "numpy": numpy.__version__,
    }
    if tracer is not None:
        report["trace"] = _trace_report(tracer, built, report)
        if args.trace_out:
            with open(args.trace_out, "w") as handle:
                json.dump(tracer.dump(), handle)
    return report


def _trace_report(tracer, built, report) -> dict:
    """Per-layer figures of this run, plus the tracer's consistency checks."""
    metrics = built.simulator.metrics
    phase_measured = sum(entry[2] for entry in tracer.phases.values())
    phase_charged = sum(entry[3] for entry in tracer.phases.values())
    logged_measured = sum(row[1] for row in report["phase_log"])
    logged_charged = sum(row[2] for row in report["phase_log"])
    # Every simulated round happens inside some phase, so the phase spans'
    # self rounds must add up to the run's totals and to the top-level
    # phase_log; a mismatch means a phase escaped the wrapper.
    for what, traced, logged, total in (
        ("measured", phase_measured, logged_measured, metrics.measured_rounds),
        ("charged", phase_charged, logged_charged, metrics.charged_rounds),
    ):
        if not traced == logged == total:
            report["failures"].append(
                f"traced {what} rounds {traced} != phase_log {logged} != total {total}"
            )
            report["ok"] = False
    return {
        "layers": tracer.layer_totals(),
        "phases": tracer.phases,
        "planned_rounds": tracer.planned_rounds,
        "run_layer_s": tracer.run_layer_seconds(),
        "dropped_messages": metrics.dropped_messages,
        "global_messages": metrics.global_messages,
        "retransmissions": metrics.retransmissions,
        "unwrapped": tracer.missing,
    }


if __name__ == "__main__":
    sys.exit(main())
