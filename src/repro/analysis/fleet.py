"""Fleet-level analysis: latency percentiles, goodput, availability.

Consumes a :class:`repro.workloads.fleet.FleetRunResult` and produces the
report the CLI ``fleet`` subcommand prints: fleet-wide p50/p95/p99 latency
and TTFT over finished requests, goodput and availability, the disposition
census, failover/retry activity, and per-replica occupancy under load.

Shares :func:`repro.analysis.serving.latency_summary` so an all-shed fleet
(total outage, everything degraded away) reports well-defined zeros instead
of dividing by an empty sample.
"""

from __future__ import annotations

from typing import Dict, List

from repro.analysis.serving import cycles_cell, latency_summary, summary_line
from repro.workloads.fleet import FleetRunResult

FLEET_REQUEST_HEADERS = [
    "request",
    "model",
    "arrival",
    "replica",
    "disposition",
    "failovers",
    "retries",
    "TTFT",
    "latency",
]


def fleet_report(result: FleetRunResult) -> Dict[str, object]:
    """The full fleet report: percentiles, dispositions, per-replica load.

    Percentiles cover finished requests only -- a shed or failed request
    has no latency, and folding zeros in would flatter the tail exactly
    when the fleet is degrading.  Goodput and the disposition census
    account for the unfinished.
    """
    finished = [request for request in result.requests if request.finished]
    report: Dict[str, object] = {
        "kind": "fleet_latency",
        "trace": result.trace,
        "policy": result.policy,
        "fleet": list(result.fleet),
        "heterogeneous": result.heterogeneous,
        "replicas": len(result.replicas),
        "requests": len(result.requests),
        "finished": len(finished),
        "total_cycles": result.total_cycles,
        "goodput": result.goodput,
        "availability": result.availability,
        "dispositions": dict(result.dispositions),
        "dispatch_count": result.dispatch_count,
        "failed_dispatches": result.failed_dispatches,
        "retry_count": result.retry_count,
        "failover_count": result.failover_count,
        "reprefill_cycles": sum(request.reprefill_cycles for request in result.requests),
        "latency_cycles": latency_summary(
            [float(request.latency_cycles) for request in finished]
        ),
        "ttft_cycles": latency_summary([float(request.ttft_cycles) for request in finished]),
        "queueing_cycles": latency_summary(
            [
                float(request.queueing_cycles)
                for request in result.requests
                if request.queueing_cycles is not None
            ]
        ),
        "replica_occupancy": {
            f"replica{replica.index}": replica.to_dict()["unit_occupancy_percent"]
            for replica in result.replicas
        },
    }
    return report


def fleet_perf_stats(result: FleetRunResult) -> Dict[str, Dict[str, int]]:
    """Process-local perf diagnostics: memo, cache and epoch activity.

    Kept out of :func:`fleet_report` deliberately -- the report (like
    ``FleetRunResult.to_dict``) is a canonical encoding that must stay
    byte-identical across cache and memo states, while these counters
    describe how *this* process happened to execute the run.
    """
    return {key: dict(value) for key, value in result.perf.items()}


def fleet_request_rows(result: FleetRunResult) -> List[List[str]]:
    """One formatted row per request for the CLI table."""
    rows = []
    for request in result.requests:
        rows.append(
            [
                request.request_id,
                request.model_family,
                f"{request.arrival_cycle:,}",
                str(request.replica) if request.replica is not None else "-",
                request.disposition,
                str(request.failovers),
                str(request.retries),
                cycles_cell(request.ttft_cycles),
                cycles_cell(request.latency_cycles),
            ]
        )
    return rows


def format_fleet_report(result: FleetRunResult) -> str:
    """Human-readable fleet report for the CLI ``--latency-report`` flag."""
    report = fleet_report(result)
    dispositions = "  ".join(
        f"{name} {count}" for name, count in report["dispositions"].items()
    )
    lines = [
        (
            f"fleet of {report['replicas']} ({', '.join(report['fleet'])}) "
            f"under {report['policy']}: {report['requests']} requests, "
            f"makespan {report['total_cycles']:,} cycles"
        ),
        (
            f"goodput {report['goodput']:.3f}  availability {report['availability']:.3f}  "
            f"({dispositions})"
        ),
        (
            f"dispatches {report['dispatch_count']} "
            f"({report['failed_dispatches']} failed), "
            f"retries {report['retry_count']}, failovers {report['failover_count']}, "
            f"re-prefill {report['reprefill_cycles']:,} cycles"
        ),
    ]
    if report["requests"] and not report["finished"]:
        lines.append(
            "no request finished (all shed, timed out or failed): latency and "
            "ttft percentiles are empty, zeros below are placeholders"
        )
    lines.append(summary_line("latency", report["latency_cycles"]))
    lines.append(summary_line("ttft", report["ttft_cycles"]))
    lines.append(summary_line("queueing", report["queueing_cycles"]))
    for replica in result.replicas:
        occupancy = "  ".join(
            f"{resource} {percent:.1f}%"
            for resource, percent in report["replica_occupancy"][
                f"replica{replica.index}"
            ].items()
        )
        flags = []
        if replica.crashes:
            flags.append(f"{replica.crashes} crash")
        if replica.slowdowns:
            flags.append(f"{replica.slowdowns} slow")
        if replica.partitions:
            flags.append(f"{replica.partitions} partition")
        suffix = f"  [{', '.join(flags)}]" if flags else ""
        lines.append(
            f"replica{replica.index} ({replica.design}): "
            f"{replica.completed}/{replica.dispatched} completed over "
            f"{replica.iterations} iterations; {occupancy}{suffix}"
        )
    perf = fleet_perf_stats(result)
    memo, cache = perf["iteration_memo"], perf["timing_cache"]
    lines.append(
        f"iteration memo: {memo.get('hits', 0)} hits, "
        f"{memo.get('misses', 0)} misses; timing cache: "
        f"{cache.get('hits', 0)} hits, {cache.get('misses', 0)} misses"
    )
    epochs = perf["epochs"]
    extrapolated = int(epochs.get("extrapolated_iterations", 0))
    executed = int(epochs.get("executed_iterations", 0))
    if extrapolated:
        lines.append(
            f"epoch extrapolation: {epochs.get('epochs', 0)} epochs; "
            f"{extrapolated}/{executed + extrapolated} iterations extrapolated"
        )
    return "\n".join(lines)
