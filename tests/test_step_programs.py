"""Compiled step programs equal the merged-schedule path they replace.

A serving iteration runs on compiled step programs
(``lowering.compile_step_program`` + ``execute_step_programs``): every
per-request decode step is resolved once into integer arrays, and a batch
is list-scheduled position-interleaved on plain ints.  The reference is the
path it replaced -- ``merge_schedules`` + ``execute_schedule`` over the
rows' kernel schedules (``differential.merged_iteration``).  The two must
agree on the span, every row's end cycle, the kernel count, busy cycles,
timing-cache hits/misses and energy, in whole femtojoules, exactly.  Traces
must match span for span, flows included.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from differential import (
    assert_byte_identical,
    execute_schedule,
    merge_schedules,
    merged_iteration,
)
from repro.__main__ import main
from repro.config.presets import DesignKind, make_design
from repro.obs import TraceRecorder, tracing
from repro.perf import cache_disabled, timing_cache
from repro.sim.stats import Counters
from repro.workloads import RequestSpec, lowering, run_serving
from repro.workloads.lowering import (
    MATRIX_RESOURCE,
    PROGRAM_RESOURCES,
    SIMT_RESOURCE,
    SMALL_MATRIX_RESOURCE,
    KernelInvocation,
    KernelSchedule,
    compile_step_program,
    execute_step_programs,
)
from repro.workloads.models import REQUEST_MODELS
from repro.workloads.serving import ServingScheduler, _InFlight

#: The serving request presets: dense, GQA and MoE decode networks.
MODELS = tuple(REQUEST_MODELS.values())
#: Bucketed KV contexts (multiples of the default 64-token bucket).
CONTEXTS = (64, 128, 192, 512)


@st.composite
def batches(draw, max_rows=64):
    """(heterogeneous, rows, duration_scale); a row is (model, context, unit)."""
    heterogeneous = draw(st.booleans())
    units = (MATRIX_RESOURCE, SMALL_MATRIX_RESOURCE) if heterogeneous else (MATRIX_RESOURCE,)
    count = draw(st.integers(1, max_rows))
    rows = draw(
        st.lists(
            st.tuples(
                st.sampled_from(MODELS), st.sampled_from(CONTEXTS), st.sampled_from(units)
            ),
            min_size=count,
            max_size=count,
        )
    )
    return heterogeneous, rows, draw(st.sampled_from((1.0, 2.5)))


def _iteration(rows):
    active = [
        _InFlight(
            request=RequestSpec(request_id=f"r{index}", model=model, prompt_len=context),
            admitted_cycle=0,
        )
        for index, (model, context, _) in enumerate(rows)
    ]
    return active, [context for _, context, _ in rows], [unit for _, _, unit in rows]


def _compiled(scheduler, active, contexts, units, scale):
    return scheduler._execute_iteration(None, active, contexts, units, "batch", scale)


def _merged(scheduler, active, contexts, units, scale):
    return merged_iteration(scheduler, None, active, contexts, units, "batch", scale)


def _assert_equal(compiled, merged):
    assert compiled.span_cycles == merged.span_cycles
    assert compiled.entry_end_cycles == merged.entry_end_cycles
    assert compiled.kernel_count == merged.kernel_count
    assert compiled.resource_busy == merged.resource_busy
    assert (compiled.cache_hits, compiled.cache_misses) == (
        merged.cache_hits,
        merged.cache_misses,
    )
    assert compiled.energy_fj == merged.energy_fj


@pytest.mark.parametrize("cache_state", ["cold", "warm", "cleared"])
@settings(deadline=None, max_examples=15)
@given(batch=batches())
def test_compiled_iteration_equals_merged_schedule(cache_state, batch):
    heterogeneous, rows, scale = batch
    scheduler = ServingScheduler("virgo", heterogeneous=heterogeneous)
    active, contexts, units = _iteration(rows)
    cache = timing_cache()
    cache.clear()
    if cache_state == "warm":
        # Programs compiled by an earlier, differently ordered iteration:
        # every row reuses one and credits its kernels back as hits.
        _compiled(scheduler, active[::-1], contexts[::-1], units[::-1], 1.0)
    elif cache_state == "cleared":
        # Programs compiled, then the cache cleared under them: they must be
        # dropped and recompiled, missing exactly as the merged path does.
        _compiled(scheduler, active, contexts, units, scale)
        cache.clear()
    compiled = _compiled(scheduler, active, contexts, units, scale)
    if cache_state != "warm":
        cache.clear()
    _assert_equal(compiled, _merged(scheduler, active, contexts, units, scale))


@settings(deadline=None, max_examples=6)
@given(batch=batches(max_rows=6))
def test_compiled_iteration_equals_merged_schedule_with_cache_disabled(batch):
    heterogeneous, rows, scale = batch
    scheduler = ServingScheduler("virgo", heterogeneous=heterogeneous)
    active, contexts, units = _iteration(rows)
    timing_cache().clear()
    _compiled(scheduler, active, contexts, units, scale)
    with cache_disabled():
        # Programs compiled while the cache was enabled are not reused, and
        # a disabled cache counts nothing on either path.
        compiled = _compiled(scheduler, active, contexts, units, scale)
        merged = _merged(scheduler, active, contexts, units, scale)
    assert (compiled.cache_hits, compiled.cache_misses) == (0, 0)
    _assert_equal(compiled, merged)
    assert all(step.program is None for step in scheduler._step_schedules.values())


@st.composite
def simt_schedules(draw, resources):
    """A random dependency-ordered SIMT-kernel schedule.

    Fractional FLOPs per element exercise the SIMT cost model's rounding to
    whole events.  Layers may be non-contiguous, and kernels land on any
    resource.
    """
    invocations = []
    layers = 0
    for index in range(draw(st.integers(1, 10))):
        layer = draw(st.integers(0, layers))
        layers = max(layers, layer + 1)
        deps = draw(st.lists(st.integers(0, index - 1), max_size=3, unique=True)) if index else []
        invocations.append(
            KernelInvocation(
                name=f"k{index}",
                layer=f"L{layer}",
                phase="decode",
                kind="simt",
                resource=draw(st.sampled_from(resources)),
                deps=tuple(f"k{dep}" for dep in deps) + draw(st.sampled_from(((), ("",)))),
                elements=draw(st.integers(1, 5000)),
                flops_per_element=draw(st.floats(0.01, 10.0)),
            )
        )
    return invocations


@settings(deadline=None, max_examples=40)
@given(data=st.data(), heterogeneous=st.booleans(), scale=st.sampled_from((1.0, 2.5, 0.3)))
def test_executor_equals_merged_schedule_on_synthetic_schedules(data, heterogeneous, scale):
    design = make_design(DesignKind.VIRGO)
    resources = PROGRAM_RESOURCES if heterogeneous else PROGRAM_RESOURCES[:2]
    schedules = [
        KernelSchedule(
            model=f"s{index}",
            design=design,
            invocations=data.draw(simt_schedules(resources)),
            heterogeneous=heterogeneous,
        )
        for index in range(data.draw(st.integers(1, 4)))
    ]
    rows = data.draw(st.lists(st.integers(0, len(schedules) - 1), min_size=1, max_size=12))
    prefixes = [f"r{row}/" for row in range(len(rows))]
    programs = [compile_step_program(schedule) for schedule in schedules]

    with tracing(TraceRecorder(capture_phases=False)) as merged_trace:
        merged = execute_schedule(
            merge_schedules([(prefix, schedules[j]) for prefix, j in zip(prefixes, rows)], "m"),
            duration_scale=scale,
        )
    with tracing(TraceRecorder(capture_phases=False)) as compiled_trace:
        placed = execute_step_programs(
            [programs[j] for j in rows], prefixes, duration_scale=scale
        )
    ends = {}
    for layer in merged.layers:
        prefix = layer.layer.split("/", 1)[0] + "/"
        ends[prefix] = max(ends.get(prefix, -1), layer.end)
    assert placed.total_cycles == merged.total_cycles
    assert placed.row_ends == tuple(ends[prefix] for prefix in prefixes)
    assert placed.kernel_count == merged.kernel_count
    assert placed.resource_busy == merged.resource_busy
    assert placed.energy_fj == merged.power.total_energy_fj
    assert compiled_trace.spans == merged_trace.spans
    assert compiled_trace.flows == merged_trace.flows


def test_zero_cycle_kernels_cost_one_cycle(monkeypatch):
    """``_scaled_cycles`` applies at scale 1.0 too: a 0-cycle kernel costs 1."""
    monkeypatch.setattr(lowering, "_simt_cost", lambda *args: (0, Counters()))
    kernel = dict(layer="L0", phase="decode", kind="simt", resource=SIMT_RESOURCE)
    schedule = KernelSchedule(
        model="zero",
        design=make_design(DesignKind.VIRGO),
        invocations=[
            KernelInvocation(name="k0", **kernel),
            KernelInvocation(name="k1", deps=("k0",), **kernel),
        ],
    )
    merged = execute_schedule(merge_schedules([("a/", schedule), ("b/", schedule)], "m"))
    placed = execute_step_programs([compile_step_program(schedule)] * 2, ["a/", "b/"])
    assert placed.total_cycles == merged.total_cycles == 4
    assert placed.energy_fj == merged.power.total_energy_fj == 0


def test_programs_compile_once_per_step_and_generation():
    scheduler = ServingScheduler("virgo")
    rows = [(REQUEST_MODELS["gpt-request"], 64, MATRIX_RESOURCE)] * 3
    active, contexts, units = _iteration(rows)
    timing_cache().clear()
    first = _compiled(scheduler, active, contexts, units, 1.0)
    (step,) = scheduler._step_schedules.values()
    program = step.program
    assert program is not None
    assert first.cache_hits + first.cache_misses == first.kernel_count
    _compiled(scheduler, active, contexts, units, 1.0)
    assert step.program is program
    timing_cache().clear()
    _compiled(scheduler, active, contexts, units, 1.0)
    assert step.program is not program


# --------------------------------------------------------------------------- #
# Whole runs and traces: compiled executor vs the merged reference
# --------------------------------------------------------------------------- #


@pytest.fixture
def merged_path(monkeypatch):
    """Route every serving iteration through the merged reference path."""

    def use():
        monkeypatch.setattr(ServingScheduler, "_execute_iteration", merged_iteration)

    return use


def _traced_serve(**kwargs):
    timing_cache().clear()
    recorder = TraceRecorder(capture_phases=False)
    with tracing(recorder):
        result = run_serving("bursty-slo", "virgo", **kwargs)
    return result, recorder.chrome_trace()


def test_hetero_spike_serve_trace_matches_merged_path(merged_path):
    kwargs = dict(
        heterogeneous=True, faults="spike:0.35:3.0,stall:0.25:60000", fault_seed=7
    )
    result, trace = _traced_serve(**kwargs)
    merged_path()
    reference, reference_trace = _traced_serve(**kwargs)
    assert_byte_identical(result, reference)
    assert result.timing_cache == reference.timing_cache
    assert result.iteration_memo == reference.iteration_memo
    spans = [event for event in trace["traceEvents"] if event["ph"] == "X"]
    assert any(event["cat"] == "gemm" for event in spans)
    assert_byte_identical(trace, reference_trace, context="serve trace")


def _cycle_events(path):
    """A ``--trace-out`` file's simulated-time events, pids/tids by name.

    Wall-clock phase spans (the ``profile`` process) differ run to run by
    nature and are dropped.
    """
    events = json.loads(path.read_text(encoding="utf-8"))["traceEvents"]
    processes = {
        event["pid"]: event["args"]["name"]
        for event in events
        if event["ph"] == "M" and event["name"] == "process_name"
    }
    tracks = {
        (event["pid"], event["tid"]): event["args"]["name"]
        for event in events
        if event["ph"] == "M" and event["name"] == "thread_name"
    }
    named = []
    for event in events:
        if event["ph"] == "M" or processes[event["pid"]] == "profile":
            continue
        named.append(
            dict(event, pid=processes[event["pid"]], tid=tracks[(event["pid"], event["tid"])])
        )
    return named


def test_fleet_trace_out_matches_merged_path(merged_path, tmp_path, capsys):
    argv = ["fleet", "--trace", "bursty-gpt", "--inject", "crash@0:100000:600000"]
    timing_cache().clear()
    main(argv + ["--trace-out", str(tmp_path / "compiled.json")])
    merged_path()
    timing_cache().clear()
    main(argv + ["--trace-out", str(tmp_path / "merged.json")])
    capsys.readouterr()
    compiled = _cycle_events(tmp_path / "compiled.json")
    assert any(event["ph"] == "s" for event in compiled)
    assert_byte_identical(
        {"events": compiled},
        {"events": _cycle_events(tmp_path / "merged.json")},
        context="fleet --trace-out",
    )
