"""Tests for the observability layer: metrics, phases, traces, reports.

The trace goldens pin the full Chrome trace-event JSON byte for byte --
the trace is a canonical serialization surface exactly like ``to_dict``
encodings, and viewer-visible drift (renamed tracks, shifted spans, lost
flow edges) should fail at review time.  Golden recorders run with
``capture_phases=False``: wall-clock spans are nondeterministic by nature.
The property test then covers what goldens cannot: for *every* trace shape,
spans stay inside the run's makespan and request lifecycles nest.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from differential import record_schedule
from repro.analysis.trace_report import (
    format_trace_summary,
    trace_summary,
    validate_chrome_trace,
)
from repro.config.presets import DesignKind
from repro.kernels.flash_attention import simulate_flash_attention
from repro.kernels.gemm import simulate_gemm
from repro.obs import (
    MetricsRegistry,
    PhaseProfiler,
    PhaseRecord,
    TraceRecorder,
    occupancy_percent,
    phase,
    profiling,
    trace_recorder,
    tracing,
)
from repro.perf import timing_cache
from repro.sim.taskgraph import OperationGraph, Resource
from repro.workloads import (
    ModelSpec,
    RequestSpec,
    ServingTrace,
    run_model,
    run_serving,
)

GPT_TINY = ModelSpec(family="gpt", phase="decode", batch=1, seq_len=32,
                     hidden=128, blocks=1, heads=4, context_len=64)
GPT_PREFILL_TINY = ModelSpec(family="gpt", phase="prefill", batch=1, seq_len=32,
                             hidden=128, blocks=1, heads=4, context_len=64)
GQA_TINY = ModelSpec(family="gpt", phase="decode", batch=1, seq_len=32,
                     hidden=128, blocks=1, heads=4, kv_heads=1, context_len=64)
MOE_TINY = ModelSpec(family="moe", phase="decode", batch=2, seq_len=32,
                     hidden=128, blocks=1, heads=4, context_len=64,
                     experts=4, top_k=2)

#: Three requests with staggered arrivals: the trace golden shows queueing,
#: batched iterations and (via the in-run memo) the capture/replay path.
OBS_SERVING_TRACE = ServingTrace(
    name="obs-trace",
    requests=(
        RequestSpec(request_id="t0", model=GPT_TINY, arrival_cycle=0,
                    prompt_len=32, decode_steps=2),
        RequestSpec(request_id="t1", model=GQA_TINY, arrival_cycle=500,
                    prompt_len=48, decode_steps=3),
        RequestSpec(request_id="t2", model=MOE_TINY, arrival_cycle=1_000,
                    prompt_len=64, decode_steps=2),
    ),
    context_bucket=32,
)


# --------------------------------------------------------------------------- #
# Metrics registry
# --------------------------------------------------------------------------- #


class TestMetricsRegistry:
    def test_counter_gauge_histogram_snapshot(self):
        metrics = MetricsRegistry()
        metrics.counter("requests").inc()
        metrics.counter("requests").inc(2)
        metrics.gauge("makespan").set(640)
        for value in (1, 2, 3):
            metrics.histogram("batch").observe(value)
        snapshot = metrics.snapshot()
        assert snapshot == {
            "batch": {"count": 3, "max": 3, "mean": 2.0, "min": 1, "total": 6},
            "makespan": 640,
            "requests": 3,
        }
        assert list(snapshot) == sorted(snapshot)

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("n").inc(-1)

    def test_kind_mismatch_is_an_error(self):
        metrics = MetricsRegistry()
        metrics.counter("x")
        with pytest.raises(TypeError):
            metrics.gauge("x")

    def test_diagnostic_flag_mismatch_is_an_error(self):
        metrics = MetricsRegistry()
        metrics.counter("cache.hits", diagnostic=True)
        with pytest.raises(ValueError):
            metrics.counter("cache.hits")

    def test_diagnostic_metrics_partitioned_out_of_default_snapshot(self):
        metrics = MetricsRegistry()
        metrics.counter("stable").inc(1)
        metrics.counter("cache.hits", diagnostic=True).inc(7)
        assert metrics.snapshot() == {"stable": 1}
        assert metrics.snapshot(include_diagnostic=True) == {
            "cache.hits": 7,
            "stable": 1,
        }

    def test_occupancy_percent_matches_inline_formula(self):
        busy = {"simt": 100, "matrix": 750}
        span = 1_000
        expected = {
            resource: 100.0 * cycles / max(1, span)
            for resource, cycles in sorted(busy.items())
        }
        assert occupancy_percent(busy, span) == expected
        assert list(occupancy_percent(busy, span)) == ["matrix", "simt"]
        # Degenerate span: guarded, not a ZeroDivisionError.
        assert occupancy_percent({"matrix": 5}, 0) == {"matrix": 500.0}


# --------------------------------------------------------------------------- #
# Phase profiling
# --------------------------------------------------------------------------- #


class TestPhaseProfiling:
    def test_phase_records_into_active_profiler(self):
        with profiling() as profiler:
            with phase("lower", model="tiny"):
                pass
            with phase("lower", model="tiny"):
                pass
        totals = profiler.totals()
        assert totals["lower"]["calls"] == 2
        assert totals["lower"]["seconds"] >= 0.0
        assert profiler.records[0].args == {"model": "tiny"}
        assert "lower" in profiler.format_totals()

    def test_phase_is_inert_without_profiler_or_recorder(self):
        profiler = PhaseProfiler()
        with phase("lower"):
            pass
        assert profiler.records == []
        assert profiler.format_totals() == "no phases recorded"

    def test_self_times_of_nested_phases_sum_to_the_outermost(self):
        with profiling() as profiler:
            with phase("outer"):
                with phase("mid"):
                    with phase("inner"):
                        sum(range(5_000))
                    sum(range(5_000))
                with phase("inner"):
                    sum(range(5_000))
                sum(range(5_000))
        outer = next(r for r in profiler.records if r.name == "outer")
        assert sum(r.self_seconds for r in profiler.records) == pytest.approx(
            outer.seconds, rel=1e-9
        )
        assert all(0.0 <= r.self_seconds <= r.seconds for r in profiler.records)
        mid = next(r for r in profiler.records if r.name == "mid")
        first_inner = profiler.records[0]
        assert mid.self_seconds == pytest.approx(mid.seconds - first_inner.seconds, rel=1e-9)
        totals = profiler.totals()
        assert totals["inner"]["calls"] == 2
        assert totals["outer"]["self_seconds"] < totals["outer"]["seconds"]

    def test_format_totals_ranks_by_self_time(self):
        # An enclosing phase with the largest inclusive time but little of
        # its own must not top the profile.
        profiler = PhaseProfiler()
        profiler.records = [
            PhaseRecord("fleet.iteration", 3.0, {}, self_seconds=0.5),
            PhaseRecord("serving.iteration", 2.5, {}, self_seconds=1.0),
            PhaseRecord("merge", 1.5, {}, self_seconds=1.5),
        ]
        names = [line.split()[0] for line in profiler.format_totals().splitlines()]
        assert names == ["merge", "serving.iteration", "fleet.iteration"]

    def test_profiling_contexts_nest_and_restore(self):
        with profiling() as outer:
            with profiling() as inner:
                with phase("p"):
                    pass
            with phase("q"):
                pass
        assert [record.name for record in inner.records] == ["p"]
        assert [record.name for record in outer.records] == ["q"]

    def test_model_run_hits_the_expected_phase_sites(self):
        # A first run lowers and compiles; a repeat replays the memoized
        # program and only places it.
        timing_cache().clear()
        with profiling() as profiler:
            run_model(GPT_TINY, DesignKind.VIRGO)
        names = {record.name for record in profiler.records}
        assert {"lower", "kernel_sim", "list_schedule"} <= names
        with profiling() as profiler:
            run_model(GPT_TINY, DesignKind.VIRGO)
        assert {record.name for record in profiler.records} == {"list_schedule"}

    def test_serving_run_hits_the_expected_phase_sites(self):
        with profiling() as profiler:
            run_serving(OBS_SERVING_TRACE, DesignKind.VIRGO)
        names = {record.name for record in profiler.records}
        assert {"serving.run", "serving.iteration", "merge"} <= names


# --------------------------------------------------------------------------- #
# Trace recorder mechanics
# --------------------------------------------------------------------------- #


class TestTraceRecorder:
    def test_tracing_activates_and_restores(self):
        assert trace_recorder() is None
        with tracing() as recorder:
            assert trace_recorder() is recorder
            with tracing() as inner:
                assert trace_recorder() is inner
            assert trace_recorder() is recorder
        assert trace_recorder() is None

    def test_time_offset_shifts_and_nests(self):
        recorder = TraceRecorder()
        with recorder.time_offset(100):
            recorder.add_span("a", process="units", track="matrix",
                              start=5, duration=10)
            with recorder.time_offset(1_000):
                recorder.add_span("b", process="units", track="matrix",
                                  start=5, duration=10)
        recorder.add_span("c", process="units", track="matrix",
                          start=5, duration=10)
        assert [span.start for span in recorder.spans] == [105, 1105, 5]

    def test_capture_replay_round_trip(self):
        recorder = TraceRecorder()
        recorder.add_span("before", process="units", track="matrix",
                          start=0, duration=1)
        marker = recorder.mark()
        a = recorder.add_span("k0", process="units", track="matrix",
                              start=200, duration=10)
        b = recorder.add_span("k1", process="units", track="simt",
                              start=210, duration=5)
        recorder.add_flow(a, b)
        captured = recorder.capture(marker, base=200)
        assert [span.start for span in captured.spans] == [0, 10]
        assert captured.flows == [(0, 1)]

        recorder.replay(captured, base=900)
        assert [span.start for span in recorder.spans[-2:]] == [900, 910]
        assert recorder.flows[-1] == (3, 4)

    def test_record_schedule_spans_and_flows(self):
        graph = OperationGraph()
        graph.add_resource(Resource("matrix"))
        graph.add_resource(Resource("simt"))
        graph.add_operation("g0", "matrix", 100, kind="gemm")
        graph.add_operation("g1", "matrix", 50, deps=["g0"], kind="gemm")
        graph.add_operation("e0", "simt", 30, deps=["g0"], kind="simt")
        placed = graph.schedule()

        recorder = TraceRecorder()
        first, last = record_schedule(
            recorder, placed, extra_args={"g0": {"layer": "L0"}}
        )
        assert (first, last) == (0, 3)
        by_name = {span.name: span for span in recorder.spans}
        assert by_name["g0"].args == {"layer": "L0"}
        assert by_name["g1"].args == {"deps": ["g0"]}
        assert by_name["g0"].category == "gemm"
        assert by_name["e0"].track == "simt"
        assert len(recorder.flows) == 2
        # Span intervals mirror the placement exactly.
        for name, item in placed.scheduled.items():
            assert by_name[name].start == item.start
            assert by_name[name].duration == item.end - item.start

    def test_chrome_trace_structure(self):
        recorder = TraceRecorder(label="unit-test")
        a = recorder.add_span("k0", process="units", track="matrix",
                              start=0, duration=10, category="gemm")
        b = recorder.add_span("k1", process="units", track="simt",
                              start=10, duration=5, category="simt")
        recorder.add_flow(a, b)
        trace = recorder.chrome_trace()

        assert validate_chrome_trace(trace) == []
        assert trace["otherData"]["generator"] == "unit-test"
        events = trace["traceEvents"]
        metadata = [event for event in events if event["ph"] == "M"]
        assert {event["name"] for event in metadata} == {
            "process_name", "process_sort_index", "thread_name"
        }
        starts = [event for event in events if event["ph"] == "s"]
        finishes = [event for event in events if event["ph"] == "f"]
        assert len(starts) == len(finishes) == 1
        assert starts[0]["id"] == finishes[0]["id"]
        assert starts[0]["ts"] == 10  # source span end
        assert finishes[0]["ts"] == 10  # target span start

    def test_write_emits_canonical_json(self, tmp_path):
        recorder = TraceRecorder()
        recorder.add_span("k0", process="units", track="matrix",
                          start=0, duration=1)
        path = recorder.write(tmp_path / "trace.json")
        text = path.read_text(encoding="utf-8")
        assert text.endswith("\n")
        assert json.loads(text) == recorder.chrome_trace()


# --------------------------------------------------------------------------- #
# End-to-end trace goldens
# --------------------------------------------------------------------------- #


def _record_model_trace(spec) -> TraceRecorder:
    timing_cache().clear()
    recorder = TraceRecorder(capture_phases=False)
    with tracing(recorder):
        run_model(spec, DesignKind.VIRGO)
    return recorder


def _record_serving_trace() -> "tuple":
    # Clearing the timing cache also empties the iteration-memo namespace,
    # so the capture/replay decisions (and therefore the span stream) are
    # identical no matter which tests ran earlier in the process.
    timing_cache().clear()
    recorder = TraceRecorder(capture_phases=False)
    with tracing(recorder):
        result = run_serving(OBS_SERVING_TRACE, DesignKind.VIRGO)
    return recorder, result


def test_model_trace_golden(golden):
    recorder = _record_model_trace(GPT_TINY)
    golden("trace_model_gpt_decode_tiny", recorder.chrome_trace())


def test_serving_trace_golden(golden):
    recorder, _ = _record_serving_trace()
    golden("trace_serving_three_requests", recorder.chrome_trace())


def test_model_trace_annotates_compression():
    """Compressed kernels stay single spans, annotated instead of expanded:
    the trace must carry ``compressed`` plus operation counts.  Every GEMM
    is scheduled in closed form, so every GEMM span is compressed."""
    recorder = _record_model_trace(GPT_PREFILL_TINY)
    gemm_flags = {
        (span.args or {}).get("compressed")
        for span in recorder.spans
        if span.category == "gemm"
    }
    assert gemm_flags == {True}
    flash = [span for span in recorder.spans if span.category == "flash"]
    assert flash, "prefill attention should lower to a fused flash kernel"
    for span in flash:
        assert span.args["compressed"] is True
        assert span.args["executed_operations"] < span.args["operations"]


def test_serving_trace_has_request_lifecycles_and_unit_spans():
    recorder, result = _record_serving_trace()
    categories = {}
    for span in recorder.spans:
        categories.setdefault(span.category, []).append(span)
    assert len(categories["queue"]) == len(OBS_SERVING_TRACE.requests)
    assert len(categories["decode"]) == len(OBS_SERVING_TRACE.requests)
    assert len(categories["iteration"]) == result.iteration_count
    assert sum(len(categories.get(kind, [])) for kind in ("gemm", "simt", "epoch")) > 0
    step_spans = categories["decode_step"]
    assert len(step_spans) == result.decode_steps_executed
    assert all(
        span.args["memo"] in ("miss", "replay")
        for span in categories["iteration"]
    )


def test_warm_memo_falls_back_to_epoch_spans():
    """A composition memoized *before* tracing started has no captured shape;
    its iterations must still appear, as synthesized per-unit epoch spans."""
    timing_cache().clear()
    run_serving(OBS_SERVING_TRACE, DesignKind.VIRGO)  # warm the memo untraced
    recorder = TraceRecorder(capture_phases=False)
    with tracing(recorder):
        result = run_serving(OBS_SERVING_TRACE, DesignKind.VIRGO)
    epochs = [span for span in recorder.spans if span.category == "epoch"]
    assert epochs
    assert all(span.name == "epoch (memoized)" for span in epochs)
    assert all(span.process == "units" for span in epochs)
    assert all(
        span.start + span.duration <= result.total_cycles for span in epochs
    )
    timing_cache().clear()


def test_full_expansion_and_compressed_kernel_paths_agree():
    """The trace annotations come from ``schedule_stats``; both scheduler
    paths must account for every operation and time identically."""
    compressed = simulate_gemm(DesignKind.VIRGO, 256)
    expanded = simulate_gemm(DesignKind.VIRGO, 256, full_expansion=True)
    assert expanded.total_cycles == compressed.total_cycles
    c_stats, e_stats = compressed.schedule_stats, expanded.schedule_stats
    assert c_stats["operation_count"] == e_stats["operation_count"]
    assert e_stats["extrapolated_operations"] == 0
    assert e_stats["executed_operations"] == e_stats["operation_count"]
    assert c_stats["extrapolated_operations"] > 0
    assert (
        c_stats["executed_operations"] + c_stats["extrapolated_operations"]
        == c_stats["operation_count"]
    )

    flash_compressed = simulate_flash_attention(DesignKind.VIRGO)
    flash_expanded = simulate_flash_attention(DesignKind.VIRGO, full_expansion=True)
    assert flash_expanded.total_cycles == flash_compressed.total_cycles
    assert flash_expanded.schedule_stats["extrapolated_operations"] == 0
    assert flash_compressed.schedule_stats["extrapolated_operations"] > 0


# --------------------------------------------------------------------------- #
# Result metrics
# --------------------------------------------------------------------------- #


def test_model_result_metrics_snapshot_is_cache_state_independent():
    timing_cache().clear()
    cold = run_model(GPT_TINY, DesignKind.VIRGO)
    warm = run_model(GPT_TINY, DesignKind.VIRGO)
    assert cold.to_dict() == warm.to_dict()
    cold_diag = cold.metrics.snapshot(include_diagnostic=True)
    warm_diag = warm.metrics.snapshot(include_diagnostic=True)
    assert cold_diag["timing_cache.misses"] > 0
    assert warm_diag["timing_cache.misses"] == 0
    assert cold.metrics.snapshot() == warm.metrics.snapshot()


def test_serving_result_metrics_match_result_fields():
    timing_cache().clear()
    result = run_serving(OBS_SERVING_TRACE, DesignKind.VIRGO)
    snapshot = result.metrics.snapshot()
    assert snapshot["serving.requests"] == len(result.requests)
    assert snapshot["serving.iterations"] == result.iteration_count
    assert snapshot["serving.decode_steps"] == result.decode_steps_executed
    assert snapshot["serving.makespan_cycles"] == result.total_cycles
    assert snapshot["serving.batch"]["count"] == result.iteration_count
    for resource, busy in result.resource_busy.items():
        assert snapshot[f"unit.busy_cycles.{resource}"] == busy
    assert "iteration_memo.hits" not in snapshot
    assert "iteration_memo.hits" in result.metrics.snapshot(include_diagnostic=True)


# --------------------------------------------------------------------------- #
# Trace validation and reporting
# --------------------------------------------------------------------------- #


class TestTraceReport:
    def test_validate_accepts_recorded_trace(self):
        recorder, _ = _record_serving_trace()
        assert validate_chrome_trace(recorder.chrome_trace()) == []

    def test_validate_rejects_malformed_traces(self):
        assert validate_chrome_trace([]) != []
        assert validate_chrome_trace({}) == ["trace has no 'traceEvents' list"]
        errors = validate_chrome_trace(
            {
                "traceEvents": [
                    "not-an-event",
                    {"ph": "Q", "pid": 1, "tid": 1},
                    {"ph": "X", "pid": 1, "tid": 1, "name": "", "ts": 0, "dur": 1},
                    {"ph": "X", "pid": 1, "tid": 1, "name": "k", "ts": -5, "dur": 1},
                    {"ph": "s", "pid": 1, "tid": 1, "ts": 0},
                ]
            }
        )
        assert len(errors) == 5
        assert "unknown phase" in errors[1]
        assert "without a name" in errors[2]
        assert "bad 'ts'" in errors[3]
        assert "without an id" in errors[4]

    def test_summary_of_a_serving_trace(self):
        recorder, result = _record_serving_trace()
        summary = trace_summary(recorder.chrome_trace(), top=5)
        assert summary["makespan_ts"] == result.total_cycles
        assert summary["spans"] + summary["profile_spans"] == len(recorder.spans)
        assert len(summary["top_spans"]) == 5
        durations = [span["dur"] for span in summary["top_spans"]]
        assert durations == sorted(durations, reverse=True)
        occupancy = summary["unit_occupancy"]
        assert set(occupancy) == set(result.resource_busy)
        for resource, entry in occupancy.items():
            assert entry["busy"] == result.resource_busy[resource]
        assert len(summary["iterations"]) == result.iteration_count
        assert summary["iterations"][0]["args"]["batch"] >= 1

        text = format_trace_summary(summary, title="serving")
        assert "serving" in text
        assert "unit occupancy timeline" in text
        assert "iteration 0" in text


# --------------------------------------------------------------------------- #
# Property: spans stay inside the run and request lifecycles nest
# --------------------------------------------------------------------------- #

MODELS = (GPT_TINY, GQA_TINY, MOE_TINY)


@st.composite
def obs_traces(draw):
    count = draw(st.integers(1, 4))
    requests = []
    for index in range(count):
        requests.append(
            RequestSpec(
                request_id=f"p{index}",
                model=MODELS[draw(st.integers(0, len(MODELS) - 1))],
                arrival_cycle=draw(st.integers(0, 200_000)),
                prompt_len=draw(st.integers(1, 96)),
                decode_steps=draw(st.integers(1, 3)),
            )
        )
    # Traces must be sorted by (arrival, id) since construction validates it.
    requests.sort(key=lambda r: (r.arrival_cycle, r.request_id))
    return ServingTrace(name="obs-hypothesis", requests=tuple(requests),
                        context_bucket=32)


@settings(deadline=None, max_examples=10)
@given(trace=obs_traces())
def test_trace_spans_bounded_and_nested(trace):
    recorder = TraceRecorder(capture_phases=False)
    with tracing(recorder):
        # The exact loop is the path that emits one span per decode step;
        # under epoch compression extrapolated stretches deliberately stay
        # single annotated spans (pinned by tests/test_epochs.py), so this
        # nesting contract is the exact path's.
        result = run_serving(trace, DesignKind.VIRGO, epoch_compression=False)

    by_request = {}
    for span in recorder.spans:
        assert span.start >= 0
        assert span.duration >= 0
        assert span.start + span.duration <= result.total_cycles
        if span.process == "requests":
            by_request.setdefault(span.track, {})\
                .setdefault(span.category, []).append(span)

    arrivals = {request.request_id: request.arrival_cycle
                for request in trace.requests}
    assert set(by_request) == set(arrivals)
    for request_id, spans in by_request.items():
        (queue,) = spans["queue"]
        (decode,) = spans["decode"]
        assert queue.start == arrivals[request_id]
        # The decode span begins the cycle the queue span ends: admission.
        assert decode.start == queue.start + queue.duration
        for step in spans["decode_step"]:
            assert step.start >= decode.start
            assert step.start + step.duration <= decode.start + decode.duration
