"""Barrier-transparent fleet epochs: compressed == exact under chaos.

A fleet replica extrapolates a whole epoch as one *run*, and router events
that do not change the replica pass through it.  Only a dispatch into the
replica, its crash, or a slow window edge on it cuts the run; the cut
retires the iterations that have ended and keeps the crossing one atomic.
These tests pin that against the exact per-iteration reference
(``epoch_extrapolation=False``) on a trace long enough that nearly every
epoch straddles some router event:

* **differential** -- every router policy x ``max_outstanding`` under a
  crash + slow + partition plan: byte-identical ``to_dict()`` and equal
  memo / timing-cache totals, from a cleared cache.  The totals must also
  be the right ones, not just equal: one memo probe per retired or aborted
  iteration, and exactly the lookups the process-wide cache counted;
* **trace accounting** -- each replica's ``iterations``-track spans cover
  exactly its ``serving_cycles`` and ``iterations``, so no cut loses or
  double-counts retired work.
"""

import pytest

from differential import assert_byte_identical

from repro.obs import TraceRecorder, tracing
from repro.perf import timing_cache
from repro.workloads import (
    ROUTER_POLICIES,
    RouterConfig,
    poisson_stream_trace,
    run_fleet,
    slo_trace,
)

CHAOS = "crash:0.6:400000,slow:0.5:2.5:300000,partition:0.4:250000"
SEED = 201


@pytest.fixture(scope="module")
def chaos_trace():
    base = poisson_stream_trace(
        "fleet-epochs", requests=300, mean_interarrival=1_000_000, seed=SEED
    )
    return slo_trace(base.name, base)


def chaos_run(trace, policy, max_outstanding=None, **kwargs):
    return run_fleet(
        trace,
        "trio-virgo",
        policy=policy,
        config=RouterConfig(seed=SEED, max_outstanding=max_outstanding),
        faults=CHAOS,
        fault_seed=SEED,
        **kwargs,
    )


@pytest.mark.parametrize("max_outstanding", [None, 2])
@pytest.mark.parametrize("policy", sorted(ROUTER_POLICIES))
def test_compressed_equals_exact_under_chaos(chaos_trace, policy, max_outstanding):
    timing_cache().clear()
    exact = chaos_run(chaos_trace, policy, max_outstanding, epoch_extrapolation=False)
    timing_cache().clear()
    compressed = chaos_run(chaos_trace, policy, max_outstanding)
    assert_byte_identical(compressed.to_dict(), exact.to_dict(), context=policy)
    assert compressed.perf["iteration_memo"] == exact.perf["iteration_memo"]
    assert compressed.perf["timing_cache"] == exact.perf["timing_cache"]
    memo = compressed.perf["iteration_memo"]
    assert memo["hits"] + memo["misses"] == sum(
        rep.iterations + rep.aborted_iterations for rep in compressed.replicas
    )
    cache = timing_cache().stats()
    assert compressed.perf["timing_cache"] == {"hits": cache["hits"], "misses": cache["misses"]}
    # The plan must actually exercise the cut paths, and most iterations
    # must be extrapolated.
    assert sum(rep.crashes for rep in compressed.replicas) > 0
    assert sum(rep.slowdowns for rep in compressed.replicas) > 0
    assert exact.perf["epochs"]["extrapolated_iterations"] == 0
    assert compressed.perf["epochs"]["extrapolated_iterations"] > \
        compressed.perf["epochs"]["executed_iterations"]


@pytest.mark.parametrize("policy", sorted(ROUTER_POLICIES))
def test_iteration_spans_account_for_every_retired_iteration(chaos_trace, policy):
    recorder = TraceRecorder(label="fleet-epochs", capture_phases=False)
    with tracing(recorder):
        result = chaos_run(chaos_trace, policy)
    for rep in result.replicas:
        process = f"replica{rep.index} ({rep.design})"
        spans = [
            span for span in recorder.spans
            if span.process == process and span.track == "iterations"
        ]
        assert spans, process
        assert sum(span.duration for span in spans) == rep.serving_cycles
        assert sum(
            span.args["iterations"] if span.category == "epoch" else 1
            for span in spans
        ) == rep.iterations
        # Retired runs tile the replica's timeline without overlapping.
        ordered = sorted(spans, key=lambda span: span.start)
        for before, after in zip(ordered, ordered[1:]):
            assert before.start + before.duration <= after.start
