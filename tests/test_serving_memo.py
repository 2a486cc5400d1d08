"""The serving iteration memo must be a pure accelerator.

Continuous-batching iterations are memoized process-wide by their batch
composition (ordered (model, bucketed context, unit) triples + design
fingerprint); a hit replays the recorded span, per-request step ends,
energy and busy cycles instead of re-merging and re-scheduling.  These
tests pin the contract from both ends:

* hypothesis: for random traces, a memoized run's serialized result --
  and therefore every latency/TTFT/queueing percentile derived from it --
  is byte-identical to a memo-disabled run's;
* accounting: memo hits credit the timing-cache lookups they skipped, so
  memoized and non-memoized runs report identical cache totals;
* lifecycle: the memo is keyed to the timing cache's generation (clearing
  one clears the other) and bypassed while the cache is disabled.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from differential import assert_byte_identical

from repro.analysis.serving import serving_latency_report, serving_perf_stats
from repro.config.presets import DesignKind
from repro.perf import cache_disabled, timing_cache
from repro.workloads import (
    ModelSpec,
    RequestSpec,
    ServingScheduler,
    ServingTrace,
    run_serving,
)
from repro.workloads import serving as serving_module

GPT = ModelSpec(family="gpt", phase="decode", batch=1, seq_len=32,
                hidden=128, blocks=1, heads=4)
GQA = ModelSpec(family="gpt", phase="decode", batch=1, seq_len=32,
                hidden=128, blocks=1, heads=4, kv_heads=1)
MOE = ModelSpec(family="moe", phase="decode", batch=1, seq_len=32,
                hidden=128, blocks=1, heads=4, experts=4, top_k=2)
MODELS = (GPT, GQA, MOE)


@st.composite
def traces(draw):
    count = draw(st.integers(1, 6))
    bucket = draw(st.sampled_from((32, 64)))
    requests = []
    for index in range(count):
        requests.append(
            RequestSpec(
                request_id=f"m{index}",
                model=MODELS[draw(st.integers(0, len(MODELS) - 1))],
                arrival_cycle=draw(st.integers(0, 500_000)),
                prompt_len=draw(st.integers(1, 160)),
                decode_steps=draw(st.integers(1, 4)),
            )
        )
    # Traces must be sorted by (arrival, id) since construction validates it.
    requests.sort(key=lambda r: (r.arrival_cycle, r.request_id))
    return ServingTrace(name="memo-hypothesis", requests=tuple(requests),
                        context_bucket=bucket)


def steady_trace(count=3, decode_steps=6, bucket=64):
    """A co-resident batch that decodes long enough to repeat compositions."""
    return ServingTrace(
        name="memo-steady",
        requests=tuple(
            RequestSpec(request_id=f"s{index}", model=MODELS[index % len(MODELS)],
                        arrival_cycle=0, prompt_len=16, decode_steps=decode_steps)
            for index in range(count)
        ),
        context_bucket=bucket,
    )


@settings(deadline=None, max_examples=10)
@given(trace=traces(), heterogeneous=st.booleans())
def test_memo_never_changes_results(trace, heterogeneous):
    """Memo on vs off: byte-identical to_dict, so identical percentiles."""
    timing_cache().clear()
    memoized = run_serving(trace, DesignKind.VIRGO, heterogeneous=heterogeneous)
    baseline = run_serving(trace, DesignKind.VIRGO, heterogeneous=heterogeneous,
                           iteration_memo=False)
    assert_byte_identical(memoized, baseline, context="memo on vs off")
    assert serving_latency_report(memoized) == serving_latency_report(baseline)
    timing_cache().clear()


@settings(deadline=None, max_examples=8)
@given(trace=traces())
def test_memo_hits_keep_cache_accounting_consistent(trace):
    """A memoized run reports the same timing-cache totals as a memo-free
    run: hits skipped by the memo are credited back."""
    timing_cache().clear()
    memoized = run_serving(trace, DesignKind.VIRGO)
    memoized_totals = dict(hits=timing_cache().hits, misses=timing_cache().misses)
    assert memoized.timing_cache == memoized_totals

    timing_cache().clear()
    baseline = run_serving(trace, DesignKind.VIRGO, iteration_memo=False)
    baseline_totals = dict(hits=timing_cache().hits, misses=timing_cache().misses)
    timing_cache().clear()

    assert baseline.timing_cache == baseline_totals
    assert memoized_totals == baseline_totals


def test_repeated_compositions_hit_within_a_run():
    timing_cache().clear()
    result = run_serving(steady_trace(decode_steps=8), DesignKind.VIRGO)
    stats = serving_perf_stats(result)["iteration_memo"]
    assert result.iteration_memo == stats
    # Contexts bucket to a handful of shapes, so most iterations replay.
    assert stats["hits"] > 0
    assert stats["hits"] + stats["misses"] == result.iteration_count
    timing_cache().clear()


def test_memo_shared_across_scheduler_instances():
    """A second run of the same trace on a fresh scheduler replays entirely
    from the process-wide memo (the cross-run reuse the CLI profits from)."""
    timing_cache().clear()
    trace = steady_trace()
    first = ServingScheduler(DesignKind.VIRGO).run(trace)
    second = ServingScheduler(DesignKind.VIRGO).run(trace)
    assert first.iteration_memo["misses"] > 0
    assert second.iteration_memo["misses"] == 0
    assert second.iteration_memo["hits"] == second.iteration_count
    assert_byte_identical(second, first, context="memo replay vs first run")
    timing_cache().clear()


def test_memo_invalidated_by_timing_cache_clear():
    timing_cache().clear()
    trace = steady_trace()
    run_serving(trace, DesignKind.VIRGO)
    assert timing_cache().namespace("serving.iteration_memo")
    timing_cache().clear()
    assert not timing_cache().namespace("serving.iteration_memo")
    # The next run re-executes from scratch.
    result = run_serving(trace, DesignKind.VIRGO)
    assert result.iteration_memo["misses"] > 0
    timing_cache().clear()


def test_memo_bypassed_while_cache_disabled():
    """cache_disabled() must measure the true cold path: no kernel memo, no
    iteration memo, and nothing stored for later runs to reuse."""
    timing_cache().clear()
    trace = steady_trace(count=2, decode_steps=2)
    with cache_disabled():
        result = run_serving(trace, DesignKind.VIRGO)
    assert result.iteration_memo == {"hits": 0, "misses": result.iteration_count}
    assert not timing_cache().namespace("serving.iteration_memo")
    assert result.timing_cache == {"hits": 0, "misses": 0}
    timing_cache().clear()


def test_memo_key_distinguishes_batch_order():
    """The list scheduler packs kernels in insertion order, so (A, B) and
    (B, A) are different schedule contents and must not share an entry."""
    timing_cache().clear()
    scheduler = ServingScheduler(DesignKind.VIRGO)
    a = serving_module._InFlight(
        request=RequestSpec(request_id="a", model=GPT, prompt_len=16), admitted_cycle=0
    )
    b = serving_module._InFlight(
        request=RequestSpec(request_id="b", model=MOE, prompt_len=16), admitted_cycle=0
    )
    forward = scheduler._memo_key([32, 32], [a, b], ["matrix", "matrix"])
    backward = scheduler._memo_key([32, 32], [b, a], ["matrix", "matrix"])
    assert forward != backward
    # Request identity is not content: renaming a request keeps the key.
    a2 = serving_module._InFlight(
        request=RequestSpec(request_id="zz", model=GPT, prompt_len=16), admitted_cycle=0
    )
    assert scheduler._memo_key([32, 32], [a2, b], ["matrix", "matrix"]) == forward
    timing_cache().clear()
