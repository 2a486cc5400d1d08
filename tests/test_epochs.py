"""Differential harness for epoch-level serving compression.

The epoch layer (:mod:`repro.workloads.epochs`) only earns its keep if the
extrapolation is *exact*: a compressed run must serialize byte-identically
to the exact per-iteration loop, across every policy, fault plan and
arrival pattern.  This suite is that proof, from four directions:

* the **differential matrix**: exact-vs-compressed byte-identical
  ``to_dict`` across the trace zoo x all three scheduling policies x
  seeded fault plans, with cold caches on both sides;
* **hypothesis properties** generating adversarial arrival patterns --
  simultaneous bursts, boundary-exact spacing, long idle gaps -- that
  maximize epoch/episode transients;
* **boundary unit tests**: cycle entry/exit arithmetic, drain, preemption
  mid-epoch, fault-forced epoch breaks, and the accounting invariant
  ``executed + extrapolated == iterations``;
* **primitive unit tests**: :class:`IterationTimeline` sequence semantics,
  :func:`epoch_horizon` and :func:`clean_fault_run` edge cases, episode
  template learning/replay.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from differential import assert_byte_identical

from repro.__main__ import main
from repro.analysis.serving import serving_latency_report, serving_perf_stats
from repro.config.presets import DesignKind
from repro.faults import FaultInjector, FaultPlan
from repro.perf import timing_cache
from repro.workloads import (
    REQUEST_MODELS,
    ModelSpec,
    RequestSpec,
    ServingTrace,
    build_request_stream,
    build_stream_trace,
    run_serving,
    trace_names,
)
from repro.workloads.epochs import (
    EpisodeRun,
    EpisodeSegment,
    EpochRecord,
    IterationRecord,
    IterationTimeline,
    build_episode_template,
    clean_fault_run,
    epoch_horizon,
    fresh_epoch_stats,
)

TINY_GPT = ModelSpec(family="gpt", phase="decode", batch=1, seq_len=32,
                     hidden=128, blocks=1, heads=4)

POLICIES = ("fcfs", "kv-budget", "preemptive-slo")
FAULT_PLANS = (None, "spike:0.2:3.0,stall:0.1:500")
FAULT_SEED = 11

#: Solo request shape whose whole decode stays inside one KV bucket -- the
#: shape episode templates compress best (mirrors poisson_stream_trace).
STREAM_PROMPT, STREAM_STEPS = 105, 24


def spaced_stream(arrival_gap: int = 3_000_000, count: int = 12) -> ServingTrace:
    """Uniform solo-shape requests spaced far beyond one solo service."""
    return build_stream_trace(
        "spaced",
        build_request_stream(
            REQUEST_MODELS["gpt-request"],
            [index * arrival_gap for index in range(count)],
            prompt_len=STREAM_PROMPT,
            decode_steps=STREAM_STEPS,
        ),
    )


def run_cold(trace, compress, **kwargs):
    """One serving run from a cold timing cache (and empty memo/episodes)."""
    timing_cache().clear()
    return run_serving(
        trace, DesignKind.VIRGO, epoch_compression=compress, **kwargs
    )


def assert_epoch_invariants(result) -> None:
    """The accounting identity every compressed run must satisfy."""
    stats = result.epochs
    assert stats["enabled"] is True
    assert (
        stats["executed_iterations"] + stats["extrapolated_iterations"]
        == result.iteration_count
    )
    assert stats["extrapolated_requests"] <= len(result.requests)


# --------------------------------------------------------------------------- #
# The differential matrix: trace zoo x policies x fault plans.
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize("trace_name", trace_names())
@pytest.mark.parametrize("policy", POLICIES)
def test_exact_vs_compressed_matrix(trace_name, policy):
    for faults in FAULT_PLANS:
        kwargs = dict(policy=policy, faults=faults, fault_seed=FAULT_SEED)
        exact = run_cold(trace_name, False, **kwargs)
        compressed = run_cold(trace_name, True, **kwargs)
        assert_byte_identical(
            exact,
            compressed,
            context=f"{trace_name} x {policy} x faults={faults!r}",
        )
        # Derived analysis surfaces agree too (same inputs, but pin it).
        assert serving_latency_report(exact) == serving_latency_report(compressed)
        assert exact.epochs["enabled"] is False
        assert_epoch_invariants(compressed)
        # Cold-vs-cold runs execute the same cache/memo work: extrapolated
        # hits are credited, so the diagnostics match exactly.
        assert exact.iteration_memo == compressed.iteration_memo
        assert exact.timing_cache == compressed.timing_cache


def test_episode_replay_is_byte_identical():
    """A warm second run replays whole requests as episodes -- identically."""
    trace = spaced_stream()
    timing_cache().clear()
    first = run_serving(trace, DesignKind.VIRGO)
    second = run_serving(trace, DesignKind.VIRGO)
    assert_byte_identical(first, second, context="episode replay vs first run")
    # The first run learns the template mid-stream and already replays the
    # tail; the second covers every request.
    assert second.epochs["episode_runs"] >= 1
    assert second.epochs["extrapolated_requests"] == len(trace.requests)
    assert_epoch_invariants(second)


def test_compressed_timeline_expands_identically():
    """Walking the lazy timeline yields the exact loop's records."""
    trace = spaced_stream(count=6)
    exact = run_cold(trace, False)
    compressed = run_cold(trace, True)
    assert isinstance(compressed.iterations, IterationTimeline)
    expanded = [record.to_dict() for record in compressed.iterations]
    assert expanded == [record.to_dict() for record in exact.iterations]
    # Indexing agrees with iteration order, including from the rear.
    assert compressed.iterations[0].to_dict() == expanded[0]
    assert compressed.iterations[-1].to_dict() == expanded[-1]


# --------------------------------------------------------------------------- #
# Hypothesis: adversarial arrival patterns maximize transients.
# --------------------------------------------------------------------------- #


@st.composite
def adversarial_traces(draw):
    """Arrival streams engineered to stress epoch/episode boundaries:
    simultaneous bursts (gap 0), near-boundary spacings, and long idle
    stretches, over a couple of request shapes."""
    count = draw(st.integers(1, 6))
    gap_kinds = st.sampled_from((0, 1, 7_000, 60_000, 1_000_000, 40_000_000))
    arrival = 0
    requests = []
    for index in range(count):
        if index:
            arrival += draw(gap_kinds)
        requests.append(
            RequestSpec(
                request_id=f"a{index}",
                model=draw(st.sampled_from((TINY_GPT, REQUEST_MODELS["gpt-request"]))),
                arrival_cycle=arrival,
                prompt_len=draw(st.sampled_from((1, 31, 32, 105))),
                decode_steps=draw(st.integers(1, 6)),
            )
        )
    return ServingTrace(name="adversarial", requests=tuple(requests),
                        context_bucket=32)


@settings(deadline=None, max_examples=12)
@given(trace=adversarial_traces(), policy=st.sampled_from(POLICIES))
def test_property_exact_vs_compressed(trace, policy):
    exact = run_cold(trace, False, policy=policy)
    compressed = run_cold(trace, True, policy=policy)
    assert_byte_identical(exact, compressed, context=f"adversarial x {policy}")
    assert_epoch_invariants(compressed)


@settings(deadline=None, max_examples=8)
@given(trace=adversarial_traces(), seed=st.integers(0, 2**16))
def test_property_exact_vs_compressed_under_faults(trace, seed):
    faults = "spike:0.3:2.5,stall:0.2:700,burst:0.2:30000"
    exact = run_cold(trace, False, faults=faults, fault_seed=seed)
    compressed = run_cold(trace, True, faults=faults, fault_seed=seed)
    assert_byte_identical(exact, compressed, context=f"faults seed={seed}")
    assert_epoch_invariants(compressed)


# --------------------------------------------------------------------------- #
# Epoch boundaries: entry/exit, drain, preemption, fault breaks.
# --------------------------------------------------------------------------- #


def test_solo_drain_compresses_to_epochs():
    """A single request's cold run drains through whole-epoch hits."""
    trace = build_stream_trace(
        "solo",
        build_request_stream(
            REQUEST_MODELS["gpt-request"], [0],
            prompt_len=STREAM_PROMPT, decode_steps=STREAM_STEPS,
        ),
    )
    result = run_cold(trace, True)
    assert result.epochs["epochs"] >= 1
    assert result.epochs["extrapolated_iterations"] >= 1
    assert_epoch_invariants(result)
    # The drain epoch runs to the finish: the last timeline record ends at
    # the finish cycle, and the request's stamps match the exact run's.
    exact = run_cold(trace, False)
    assert_byte_identical(exact, result, context="solo drain")


def test_epoch_breaks_at_arrival_boundary():
    """An epoch never extrapolates across a pending arrival."""
    gap = 100_000  # lands mid-service: the second request joins the batch
    trace = build_stream_trace(
        "overlap",
        build_request_stream(
            REQUEST_MODELS["gpt-request"], [0, gap],
            prompt_len=STREAM_PROMPT, decode_steps=STREAM_STEPS,
        ),
    )
    exact = run_cold(trace, False)
    compressed = run_cold(trace, True)
    assert_byte_identical(exact, compressed, context="arrival mid-epoch")
    # Batch-2 iterations exist in both runs: the epoch stopped for the join.
    assert any(record.batch == 2 for record in compressed.iterations)


def test_preemption_mid_epoch_stays_exact():
    """Control-plane preemption is a transient: epochs break around it."""
    from repro.workloads.control import SLO_CLASSES

    unit = 200_000
    trace = ServingTrace(
        name="preempt",
        requests=(
            RequestSpec(request_id="bulk0", model=TINY_GPT, arrival_cycle=0,
                        prompt_len=16, decode_steps=4, slo=SLO_CLASSES["batch"]),
            RequestSpec(request_id="bulk1", model=TINY_GPT, arrival_cycle=0,
                        prompt_len=16, decode_steps=4, slo=SLO_CLASSES["batch"]),
            RequestSpec(request_id="vip", model=TINY_GPT, arrival_cycle=1,
                        prompt_len=16, decode_steps=2,
                        slo=SLO_CLASSES["interactive"]),
        ),
        context_bucket=32,
    )
    kwargs = dict(policy="preemptive-slo", kv_budget=2 * unit)
    exact = run_cold(trace, False, **kwargs)
    compressed = run_cold(trace, True, **kwargs)
    assert compressed.preemption_count == exact.preemption_count
    assert_byte_identical(exact, compressed, context="preemption mid-epoch")
    assert_epoch_invariants(compressed)


def test_saturated_faults_force_epoch_breaks():
    """With every iteration faulted, nothing may be extrapolated."""
    trace = spaced_stream(count=4)
    result = run_cold(trace, True, faults="spike:1.0:2.0", fault_seed=3)
    assert result.epochs["epochs"] == 0
    assert result.epochs["episode_runs"] == 0
    assert result.epochs["extrapolated_iterations"] == 0
    assert result.epochs["executed_iterations"] == result.iteration_count
    exact = run_cold(trace, False, faults="spike:1.0:2.0", fault_seed=3)
    assert_byte_identical(exact, result, context="saturated faults")


def test_memo_off_disables_compression():
    """Epochs ride on the iteration memo: no memo, no extrapolation."""
    result = run_cold(spaced_stream(count=3), True, iteration_memo=False)
    assert result.epochs["enabled"] is False
    assert isinstance(result.iterations, IterationTimeline)


# --------------------------------------------------------------------------- #
# Epoch statistics surfaces: perf stats and serve --json.
# --------------------------------------------------------------------------- #


def test_perf_stats_carry_epoch_section():
    result = run_cold(spaced_stream(count=4), True)
    perf = serving_perf_stats(result)
    assert perf["epochs"] == result.epochs
    counters = result.metrics
    assert counters.counter("epoch.runs", diagnostic=True).value == (
        result.epochs["epochs"] + result.epochs["episode_runs"]
    )
    assert counters.counter(
        "epoch.extrapolated_iterations", diagnostic=True
    ).value == result.epochs["extrapolated_iterations"]


def test_serve_json_flag_matrix(capsys):
    """``serve --json`` is byte-identical across the flag, modulo the
    process-dependent perf section, and surfaces the epoch stats."""
    reports = {}
    for flag in ("--epoch-compression", "--no-epoch-compression"):
        timing_cache().clear()
        assert main(["serve", "--trace", "bursty-gpt", "--json", flag]) == 0
        reports[flag] = json.loads(capsys.readouterr().out)
    on, off = reports["--epoch-compression"], reports["--no-epoch-compression"]
    assert on["perf"]["epochs"]["enabled"] is True
    assert off["perf"]["epochs"]["enabled"] is False
    assert_byte_identical(
        on, off, ignore_paths=("perf",), context="serve --json flag matrix"
    )


# --------------------------------------------------------------------------- #
# IterationTimeline: sequence semantics over mixed segments.
# --------------------------------------------------------------------------- #


def record(index, start=0, span=10, batch=1, ids=("r0",)):
    return IterationRecord(index=index, start_cycle=start, span_cycles=span,
                           batch=batch, request_ids=list(ids))


def sample_template():
    return build_episode_template([
        EpisodeSegment(count=2, span_cycles=10, end_cycle=7, kernel_count=3,
                       energy_fj=1500, resource_busy=(("matrix", 6),),
                       cache_lookups=2),
        EpisodeSegment(count=1, span_cycles=12, end_cycle=9, kernel_count=4,
                       energy_fj=2250, resource_busy=(("matrix", 8), ("simt", 2)),
                       cache_lookups=3),
    ])


class TestIterationTimeline:
    def build(self):
        template = sample_template()
        timeline = IterationTimeline([record(0, start=0)])
        timeline.append(EpochRecord(index=1, start_cycle=10, span_cycles=5,
                                    count=3, request_ids=["r0", "r1"]))
        timeline.append(
            EpisodeRun(
                index=4,
                template=template,
                arrivals=np.array([100, 400], dtype=np.int64),
                requests=[
                    RequestSpec(request_id=f"e{i}", model=TINY_GPT,
                                arrival_cycle=arrival, prompt_len=8,
                                decode_steps=3)
                    for i, arrival in enumerate((100, 400))
                ],
            )
        )
        return timeline

    def test_len_and_decode_steps(self):
        timeline = self.build()
        assert len(timeline) == 1 + 3 + 2 * 3
        # 1 batch-1 exact + 3 batch-2 epoch iterations + 6 solo episodes.
        assert timeline.decode_steps == 1 + 6 + 6
        assert len(timeline.segments) == 3

    def test_iteration_matches_indexing(self):
        timeline = self.build()
        walked = [record.to_dict() for record in timeline]
        indexed = [timeline[i].to_dict() for i in range(len(timeline))]
        assert walked == indexed
        # Indices are consecutive and starts are the closed-form offsets.
        assert [r["index"] for r in walked] == list(range(len(timeline)))

    def test_negative_indexing_and_slicing(self):
        timeline = self.build()
        assert timeline[-1].to_dict() == timeline[len(timeline) - 1].to_dict()
        sliced = timeline[2:5]
        assert [r.to_dict() for r in sliced] == [
            timeline[i].to_dict() for i in (2, 3, 4)
        ]
        assert timeline[::-1][0].to_dict() == timeline[-1].to_dict()

    def test_out_of_range_raises(self):
        timeline = self.build()
        with pytest.raises(IndexError):
            timeline[len(timeline)]
        with pytest.raises(IndexError):
            timeline[-len(timeline) - 1]

    def test_batch_observations_cover_every_iteration(self):
        timeline = self.build()
        observations = list(timeline.batch_observations())
        assert sum(count for _, count in observations) == len(timeline)
        assert sum(batch * count for batch, count in observations) == (
            timeline.decode_steps
        )

    def test_epoch_record_arithmetic(self):
        epoch = EpochRecord(index=7, start_cycle=1000, span_cycles=50,
                            count=4, request_ids=["a", "b", "c"])
        assert epoch.batch == 3
        assert epoch.decode_steps == 12
        records = list(epoch.records())
        assert [r.index for r in records] == [7, 8, 9, 10]
        assert [r.start_cycle for r in records] == [1000, 1050, 1100, 1150]
        assert all(r.span_cycles == 50 and r.batch == 3 for r in records)

    def test_episode_run_record_at_matches_records(self):
        run = self.build().segments[2]
        assert isinstance(run, EpisodeRun)
        assert len(run.requests) == 2
        assert run.iteration_count == 6
        walked = [r.to_dict() for r in run.records()]
        direct = [run.record_at(i).to_dict() for i in range(run.iteration_count)]
        assert walked == direct
        # Second request's records restart at its arrival.
        assert walked[3]["start_cycle"] == 400
        assert walked[3]["request_ids"] == ["e1"]


# --------------------------------------------------------------------------- #
# Primitives: horizons, fault probes, templates.
# --------------------------------------------------------------------------- #


class TestEpochHorizon:
    def test_finish_bound(self):
        assert epoch_horizon([3, 5], [10, 10], 10, 0, None) == 3

    def test_bucket_bound(self):
        assert epoch_horizon([8, 9], [2, 6], 10, 0, None) == 2

    def test_arrival_bound_strictly_before(self):
        # Boundaries at 110, 120; the arrival at 125 allows both (ceil).
        assert epoch_horizon([9], [9], 10, 100, 125) == 3
        # An arrival exactly on a boundary excludes that boundary.
        assert epoch_horizon([9], [9], 10, 100, 120) == 2

    def test_floor_is_one(self):
        assert epoch_horizon([1], [1], 10, 0, None) == 1
        # Arrival already due: the current iteration still runs.
        assert epoch_horizon([9], [9], 10, 100, 100) == 1


class TestCleanFaultRun:
    def test_saturated_plan_breaks_immediately(self):
        injector = FaultInjector(FaultPlan.parse("spike:1.0:2.0", seed=1))
        assert clean_fault_run(injector, 0, 10) == 0

    def test_clean_plan_runs_to_limit(self):
        injector = FaultInjector(FaultPlan.parse("burst:1.0:5000", seed=1))
        # Bursts perturb arrivals, not iterations: every iteration is clean.
        assert clean_fault_run(injector, 0, 7) == 7

    def test_partial_plan_stops_at_first_fault(self):
        injector = FaultInjector(FaultPlan.parse("stall:0.5:100", seed=2))
        length = clean_fault_run(injector, 0, 64)
        assert 0 <= length < 64
        assert injector.iteration_stall(length) > 0
        for index in range(length):
            assert injector.iteration_stall(index) == 0


class TestEpisodeTemplate:
    def test_build_totals(self):
        template = sample_template()
        assert template.iterations == 3
        assert template.span_cycles == 2 * 10 + 12
        assert template.first_token_end == 7
        assert template.finish_offset == 32 - 12 + 9
        assert template.kernel_count == 2 * 3 + 4
        assert template.cache_lookups == 2 * 2 + 3
        assert template.resource_busy == (("matrix", 2 * 6 + 8), ("simt", 2))
        assert template.energy_fj == 2 * 1500 + 2250

    def test_empty_segments_rejected(self):
        with pytest.raises(ValueError):
            build_episode_template([])

    def test_fresh_stats_shape(self):
        stats = fresh_epoch_stats(True)
        assert stats == {
            "enabled": True,
            "epochs": 0,
            "episode_runs": 0,
            "executed_iterations": 0,
            "extrapolated_iterations": 0,
            "extrapolated_requests": 0,
        }


class TestTraceHonesty:
    def test_epoch_spans_stay_compressed(self):
        """Extrapolated epochs export as single annotated spans."""
        from repro.obs import TraceRecorder, tracing

        trace = spaced_stream(count=3)
        timing_cache().clear()
        run_serving(trace, DesignKind.VIRGO)  # learn templates
        recorder = TraceRecorder(capture_phases=False)
        with tracing(recorder):
            result = run_serving(trace, DesignKind.VIRGO)
        assert result.epochs["extrapolated_requests"] == len(trace.requests)
        episode_spans = [
            span for span in recorder.spans
            if span.category == "epoch" and span.name.startswith("episode x")
        ]
        assert episode_spans, "episode runs must export annotated spans"
        # One span per run -- never one per extrapolated iteration.
        total_iterations = sum(
            span.args["iterations"] for span in episode_spans
        )
        assert total_iterations == result.epochs["extrapolated_iterations"]
        assert len(episode_spans) == result.epochs["episode_runs"]
