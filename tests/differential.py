"""Shared differential-testing helpers.

The repo's exactness claims -- steady-state GEMM/flash compression, the
serving iteration memo, epoch-level serving compression and compiled step
programs -- are all the same statement: two execution paths must produce
*byte-identical* canonical encodings, not merely approximately equal
numbers.  This module is the one place that statement is implemented, so
every differential suite (``test_schedule_compression``,
``test_flash_compression``, ``test_serving_memo``, ``test_faults``,
``test_epochs``, ``test_step_programs``, ``test_model_programs``) fails
with the same, pinpointed diagnostics.

It also keeps the reference executor the compiled one replaced
(``docs/perf-contract.md`` contract 7): :func:`merge_schedules` interleaves
per-request kernel schedules into one named schedule, and
:func:`execute_schedule` probes the timing cache per kernel, places the
kernels on an ``OperationGraph``, traces them with :func:`record_schedule`
and folds ``Counters`` layer by layer.
:func:`oracle_run_model`, :func:`merged_iteration` and
:func:`oracle_isolated_step_spans` run ``run_model``, a serving iteration
and ``isolated_step_spans`` on it.  :func:`oracle_compile_step_program` is
the step-program compiler that probed the timing cache once per kernel
instance, the reference for the one that probes once per distinct kernel.
"""

import json
from dataclasses import replace
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.config.presets import DesignKind
from repro.config.soc import DataType
from repro.energy.model import EnergyTable
from repro.energy.power import make_power_report
from repro.obs import MetricsRegistry, TraceRecorder, occupancy_percent, phase, trace_recorder
from repro.obs.trace import UNITS_PROCESS
from repro.perf import timing_cache
from repro.runner import run_flash_attention, run_gemm
from repro.sim.resources import Resource
from repro.sim.stats import Counters
from repro.sim.taskgraph import OperationGraph, ScheduleResult
from repro.workloads import lowering
from repro.workloads.graph import LayerGraph, bucket_context
from repro.workloads.lowering import (
    MATRIX_RESOURCE,
    SIMT_RESOURCE,
    SMALL_MATRIX_RESOURCE,
    KernelInvocation,
    KernelSchedule,
    LayerRunResult,
    ModelRunResult,
    ProgramLayer,
    StepProgram,
    _RESOURCE_INDEX,
    _scaled_cycles,
    lower_graph,
)
from repro.workloads.models import build_model
from repro.workloads.serving import _IterationOutcome


def canonical_bytes(payload, ignore_paths: Sequence[str] = ()) -> str:
    """The canonical JSON encoding compared by :func:`assert_byte_identical`.

    ``payload`` may be a dict or anything with a ``to_dict()``.
    ``ignore_paths`` names dotted paths (e.g. ``("perf.epochs",)``) pruned
    before encoding -- for diagnostics that legitimately differ between the
    two paths under comparison.  A missing path is fine: the pruning is a
    no-op there, so one ignore list can serve several payload shapes.
    """
    if hasattr(payload, "to_dict"):
        payload = payload.to_dict()
    if ignore_paths:
        payload = _without_paths(payload, ignore_paths)
    return json.dumps(payload, sort_keys=True)


def assert_byte_identical(
    left,
    right,
    *,
    ignore_paths: Sequence[str] = (),
    context: str = "",
) -> None:
    """Assert two payloads encode to byte-identical canonical JSON.

    On mismatch, the error names the first diverging byte offset and shows
    a window of both encodings around it -- a 100k-character encoding diff
    is useless without that.
    """
    a = canonical_bytes(left, ignore_paths)
    b = canonical_bytes(right, ignore_paths)
    if a == b:
        return
    offset, left_window, right_window = first_divergence(a, b)
    prefix = f"{context}: " if context else ""
    raise AssertionError(
        f"{prefix}encodings diverge at byte {offset} "
        f"(lengths {len(a)} vs {len(b)}):\n"
        f"  left : ...{left_window}...\n"
        f"  right: ...{right_window}..."
    )


def _without_paths(payload: dict, paths: Iterable[str]) -> dict:
    pruned = dict(payload)
    for path in paths:
        head, _, rest = path.partition(".")
        if head not in pruned:
            continue
        if rest:
            child = pruned[head]
            if isinstance(child, dict):
                pruned[head] = _without_paths(child, (rest,))
        else:
            del pruned[head]
    return pruned


def first_divergence(a: str, b: str) -> Tuple[int, str, str]:
    """(offset, left window, right window) of the first differing byte."""
    offset = next(
        (i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b))
    )
    lo, hi = max(0, offset - 60), offset + 60
    return offset, a[lo:hi], b[lo:hi]


def merged_iteration(
    scheduler, trace, active, contexts, units, label, duration_scale=1.0
) -> _IterationOutcome:
    """One serving iteration on the reference path: merge the rows' step
    schedules, execute the merged schedule, read each row's end off its
    prefixed layers.

    Signature-compatible with ``ServingScheduler._execute_iteration``, so a
    test can call it directly or monkeypatch it in to run whole serving and
    fleet runs on the reference path.
    """
    entries = [
        (state.prefix, scheduler.step_schedule(state.request, context, unit))
        for state, context, unit in zip(active, contexts, units)
    ]
    result = execute_schedule(
        merge_schedules(entries, model=label), duration_scale=duration_scale
    )
    ends = {}
    for layer in result.layers:
        prefix = layer.layer.split("/", 1)[0] + "/"
        ends[prefix] = max(ends.get(prefix, -1), layer.end)
    return _IterationOutcome(
        span_cycles=result.total_cycles,
        entry_end_cycles=tuple(ends[state.prefix] for state in active),
        kernel_count=result.kernel_count,
        energy_fj=result.power.total_energy_fj,
        resource_busy=tuple(sorted(result.resource_busy.items())),
        cache_hits=result.timing_cache["hits"],
        cache_misses=result.timing_cache["misses"],
    )


def oracle_isolated_step_spans(scheduler, request, context_bucket) -> List[int]:
    """``ServingScheduler.isolated_step_spans`` on the reference executor."""
    return [
        execute_schedule(
            scheduler.step_schedule(
                request,
                bucket_context(request.context_at(step), context_bucket),
                MATRIX_RESOURCE,
            )
        ).total_cycles
        for step in range(request.decode_steps)
    ]


# --------------------------------------------------------------------------- #
# The reference executor
# --------------------------------------------------------------------------- #


def oracle_run_model(model, design=DesignKind.VIRGO, heterogeneous=False,
                     dtype=DataType.FP16) -> ModelRunResult:
    """``run_model`` on the reference executor: build, lower, execute."""
    graph = model if isinstance(model, LayerGraph) else build_model(model)
    if isinstance(design, str):
        design = DesignKind(design.lower())
    with phase("lower", model=graph.name):
        schedule = lower_graph(graph, design, heterogeneous=heterogeneous, dtype=dtype)
    return execute_schedule(schedule)


def _prefixed_invocation(inv: KernelInvocation, prefix: str) -> KernelInvocation:
    """``inv`` renamed into ``prefix``'s namespace (name, layer and deps)."""
    return replace(
        inv,
        name=prefix + inv.name,
        layer=prefix + inv.layer,
        deps=tuple(prefix + dep for dep in inv.deps if dep),
    )


def merge_schedules(
    entries: Sequence[Tuple[str, KernelSchedule]],
    model: str,
) -> KernelSchedule:
    """Merge independent per-request schedules into one iteration schedule.

    ``entries`` pairs a namespace prefix (e.g. ``"r3/"``) with each request's
    kernel schedule; prefixes must be distinct and every schedule must target
    the same design configuration and unit layout.  No cross-request edges
    are added -- the requests stay mutually independent, which is exactly
    what lets the list scheduler co-run them on the matrix / small-matrix /
    SIMT resources.

    Invocations are interleaved round-robin by position rather than
    concatenated: the list scheduler reserves resources in insertion order,
    so position-aligned interleaving lets request j's SIMT kernels run under
    request j+1's matrix-unit GEMMs instead of queueing whole requests back
    to back (the same trick the MoE lowering plays with expert chains).
    """
    if not entries:
        raise ValueError("merge_schedules needs at least one schedule")
    prefixes = [prefix for prefix, _ in entries]
    if len(set(prefixes)) != len(prefixes):
        raise ValueError(f"merge prefixes must be distinct, got {prefixes}")
    first = entries[0][1]
    for _, schedule in entries[1:]:
        if schedule.design != first.design:
            raise ValueError("merged schedules must share one design configuration")
        if (
            schedule.heterogeneous != first.heterogeneous
            or schedule.small_design != first.small_design
        ):
            raise ValueError("merged schedules must share the unit layout")

    invocations: List[KernelInvocation] = []
    depth = max(len(schedule.invocations) for _, schedule in entries)
    for position in range(depth):
        for prefix, schedule in entries:
            if position < len(schedule.invocations):
                invocations.append(
                    _prefixed_invocation(schedule.invocations[position], prefix)
                )
    return KernelSchedule(
        model=model,
        design=first.design,
        invocations=invocations,
        heterogeneous=first.heterogeneous,
        small_design=first.small_design,
        ideal_mac_cycles=sum(schedule.ideal_mac_cycles for _, schedule in entries),
    )


def record_schedule(
    recorder: TraceRecorder,
    placed: ScheduleResult,
    *,
    extra_args: Optional[Mapping[str, Mapping[str, object]]] = None,
    flows: bool = True,
) -> Tuple[int, int]:
    """Record every operation of a :class:`ScheduleResult` placement.

    One span per scheduled operation on the ``units`` process (track =
    the operation's resource, category = its kind), in placement order;
    dependency edges become flow events when ``flows`` is set.
    ``extra_args`` optionally enriches spans by operation name (the
    reference executor passes layer/phase/compression annotations through
    it).  Returns the recorded ``(first, last + 1)`` span index range.
    """
    first = len(recorder.spans)
    index_of: Dict[str, int] = {}
    for name, item in placed.scheduled.items():
        operation = item.operation
        args: Dict[str, object] = {}
        if extra_args and name in extra_args:
            args.update(extra_args[name])
        if operation.deps:
            args["deps"] = list(operation.deps)
        index_of[name] = recorder.add_span(
            name,
            process=UNITS_PROCESS,
            track=operation.resource,
            start=item.start,
            duration=item.end - item.start,
            category=operation.kind or "op",
            args=args or None,
        )
    if flows:
        for name, item in placed.scheduled.items():
            for dep in item.operation.deps:
                if dep in index_of:
                    recorder.add_flow(index_of[dep], index_of[name])
    return first, len(recorder.spans)


def _trace_span_args(
    schedule: KernelSchedule, kernel_stats: Dict[str, Dict[str, int]]
) -> Dict[str, Dict[str, object]]:
    """Per-kernel span annotations for the trace recorder.

    Compressed steady-state kernels (flash/GEMM loop compression, see
    :mod:`repro.sim.steady_state`) stay single spans -- the span *is* the
    synthesized epoch covering every executed and extrapolated inner
    operation -- annotated with ``compressed`` and the operation counts so a
    timeline never forces full expansion.
    """
    extra: Dict[str, Dict[str, object]] = {}
    for inv in schedule.invocations:
        args: Dict[str, object] = {"layer": inv.layer, "phase": inv.phase}
        stats = kernel_stats.get(inv.name)
        if stats:
            args["operations"] = stats.get("operation_count", 0)
            args["executed_operations"] = stats.get("executed_operations", 0)
            args["compressed"] = stats.get("extrapolated_operations", 0) > 0
        extra[inv.name] = args
    return extra


def _model_metrics(
    schedule: KernelSchedule,
    placed,
    kind_cycles: Dict[str, int],
    cache_stats: Dict[str, int],
) -> MetricsRegistry:
    """The unified metrics registry for one executed kernel schedule."""
    metrics = MetricsRegistry()
    metrics.counter("schedule.kernels").inc(len(schedule.invocations))
    metrics.gauge("schedule.makespan_cycles").set(placed.total_cycles)
    for kind, cycles in sorted(kind_cycles.items()):
        metrics.counter(f"schedule.kind_cycles.{kind}").inc(cycles)
    for resource, busy in sorted(placed.resource_busy.items()):
        metrics.counter(f"unit.busy_cycles.{resource}").inc(busy)
    occupancy = occupancy_percent(placed.resource_busy, placed.total_cycles)
    for resource, percent in occupancy.items():
        metrics.gauge(f"unit.occupancy_percent.{resource}").set(percent)
    metrics.counter("timing_cache.hits", diagnostic=True).inc(cache_stats["hits"])
    metrics.counter("timing_cache.misses", diagnostic=True).inc(cache_stats["misses"])
    return metrics


def execute_schedule(schedule: KernelSchedule, duration_scale: float = 1.0) -> ModelRunResult:
    """Run every kernel of ``schedule`` and assemble the model-level result.

    ``duration_scale`` multiplies every kernel's simulated duration (after
    timing-cache retrieval, so cached entries are never poisoned) without
    touching counters or energy -- the fault-injection hook for transient
    latency spikes (:mod:`repro.faults`).
    """
    design = schedule.design
    table = EnergyTable.for_design(design.style)
    recorder = trace_recorder()

    # Phase 1: per-kernel simulation through the existing runner entry
    # points.  The runner memoizes per distinct kernel content, so a model
    # with L layers of ~3 distinct shapes simulates ~3 kernels, not ~3L.
    cache = timing_cache()
    hits_before, misses_before = cache.hits, cache.misses
    durations: Dict[str, int] = {}
    kernel_counters: Dict[str, Counters] = {}
    kernel_util: Dict[str, float] = {}
    kernel_macs: Dict[str, int] = {}
    kernel_stats: Dict[str, Dict[str, int]] = {}
    with phase("kernel_sim", model=schedule.model, kernels=len(schedule.invocations)):
        for inv in schedule.invocations:
            if inv.kind == "gemm":
                target = (
                    schedule.small_design
                    if inv.resource == SMALL_MATRIX_RESOURCE and schedule.small_design
                    else design
                )
                run = run_gemm(target, inv.workload, inv.workload.dtype)
                cycles, counters = run.total_cycles, run.counters
                kernel_util[inv.name] = run.kernel.mac_utilization
                kernel_macs[inv.name] = (
                    inv.reported_macs if inv.reported_macs is not None
                    else inv.workload.macs
                )
                if recorder is not None:
                    kernel_stats[inv.name] = run.kernel.schedule_stats
            elif inv.kind == "flash":
                run = run_flash_attention(design, inv.workload)
                cycles, counters = run.total_cycles, run.kernel.counters
                kernel_util[inv.name] = run.kernel.mac_utilization
                kernel_macs[inv.name] = inv.workload.gemm_macs
                if recorder is not None:
                    kernel_stats[inv.name] = run.kernel.schedule_stats
            else:
                cycles, counters = lowering._simt_cost(
                    design, inv.elements, inv.flops_per_element
                )
                kernel_util[inv.name] = 0.0
                kernel_macs[inv.name] = 0
            durations[inv.name] = _scaled_cycles(cycles, duration_scale)
            kernel_counters[inv.name] = counters
    cache_stats = {
        "hits": cache.hits - hits_before,
        "misses": cache.misses - misses_before,
    }

    # Phase 2: place the kernels on the cluster's resources; independent
    # kernels (e.g. SIMT elementwise vs the next layer's GEMM, or small-unit
    # vs large-unit GEMMs in heterogeneous mode) overlap.
    with phase("list_schedule", model=schedule.model):
        op_graph = OperationGraph()
        op_graph.add_resource(Resource(MATRIX_RESOURCE))
        op_graph.add_resource(Resource(SIMT_RESOURCE))
        if schedule.heterogeneous:
            op_graph.add_resource(Resource(SMALL_MATRIX_RESOURCE))
        for inv in schedule.invocations:
            op_graph.add_operation(
                inv.name,
                inv.resource,
                durations[inv.name],
                deps=[dep for dep in inv.deps if dep],
                kind=inv.kind,
            )
        placed = op_graph.schedule()
    if recorder is not None:
        record_schedule(recorder, placed, extra_args=_trace_span_args(schedule, kernel_stats))

    # Phase 3: aggregate per layer, per phase and model-wide.
    layer_order: List[str] = []
    by_layer: Dict[str, List[KernelInvocation]] = {}
    for inv in schedule.invocations:
        if inv.layer not in by_layer:
            layer_order.append(inv.layer)
            by_layer[inv.layer] = []
        by_layer[inv.layer].append(inv)

    total_counters = Counters()
    layers: List[LayerRunResult] = []
    phase_cycles: Dict[str, int] = {}
    phase_energy: Dict[str, int] = {}
    for layer_name in layer_order:
        invs = by_layer[layer_name]
        layer_counters = Counters()
        for inv in invs:
            layer_counters.merge(kernel_counters[inv.name])
        energy_fj = table.energy_femtojoules(layer_counters)
        cycles = sum(durations[inv.name] for inv in invs)
        start = min(placed.scheduled[inv.name].start for inv in invs)
        end = max(placed.scheduled[inv.name].end for inv in invs)
        macs = sum(kernel_macs[inv.name] for inv in invs)
        # MAC-weighted utilization across the layer's matrix kernels.
        weighted = sum(
            kernel_util[inv.name] * kernel_macs[inv.name] for inv in invs
        )
        utilization = 100.0 * weighted / macs if macs else 0.0
        layer_phase = invs[0].phase
        layers.append(
            LayerRunResult(
                layer=layer_name,
                phase=layer_phase,
                kinds=tuple(dict.fromkeys(inv.kind for inv in invs)),
                kernels=tuple(inv.name for inv in invs),
                cycles=cycles,
                start=start,
                end=end,
                energy_fj=energy_fj,
                mac_utilization_percent=utilization,
                macs=macs,
            )
        )
        phase_cycles[layer_phase] = phase_cycles.get(layer_phase, 0) + cycles
        phase_energy[layer_phase] = phase_energy.get(layer_phase, 0) + energy_fj
        total_counters.merge(layer_counters)

    power = make_power_report(
        design.name, total_counters, table, placed.total_cycles, design.soc
    )
    kind_cycles: Dict[str, int] = {}
    for inv in schedule.invocations:
        kind_cycles[inv.kind] = kind_cycles.get(inv.kind, 0) + durations[inv.name]
    return ModelRunResult(
        model=schedule.model,
        design=design,
        total_cycles=placed.total_cycles,
        layers=layers,
        power=power,
        counters=total_counters,
        ideal_mac_cycles=schedule.ideal_mac_cycles,
        heterogeneous=schedule.heterogeneous,
        phase_cycles=phase_cycles,
        phase_energy_fj=phase_energy,
        resource_busy=placed.resource_busy,
        kind_cycles=kind_cycles,
        timing_cache=cache_stats,
        metrics=_model_metrics(schedule, placed, kind_cycles, cache_stats),
    )


# --------------------------------------------------------------------------- #
# The reference compiler
# --------------------------------------------------------------------------- #


def oracle_compile_step_program(schedule: KernelSchedule) -> StepProgram:
    """``lowering.compile_step_program`` probing every kernel instance.

    Probes the timing cache once per kernel, in schedule order, and folds
    and prices every layer on its own.  It reaches ``run_gemm``,
    ``run_flash_attention`` and ``_simt_cost`` through the lowering module,
    so a test's stand-ins serve both compilers.
    """
    design = schedule.design
    invocations = schedule.invocations
    index_of: Dict[str, int] = {}
    layer_index: Dict[str, int] = {}
    resources, cycles, deps, stats, macs, utilization, layer_of = [], [], [], [], [], [], []
    members: List[List[int]] = []
    layer_counters: List[Counters] = []
    with phase("kernel_sim", model=schedule.model, kernels=len(invocations)):
        for position, inv in enumerate(invocations):
            kernel, kernel_macs = None, 0
            if inv.kind == "gemm":
                target = (
                    schedule.small_design
                    if inv.resource == SMALL_MATRIX_RESOURCE and schedule.small_design
                    else design
                )
                kernel = lowering.run_gemm(target, inv.workload, inv.workload.dtype).kernel
                kernel_macs = (
                    inv.reported_macs if inv.reported_macs is not None else inv.workload.macs
                )
            elif inv.kind == "flash":
                kernel = lowering.run_flash_attention(design, inv.workload).kernel
                kernel_macs = inv.workload.gemm_macs
            if kernel is None:
                kernel_cycles, counters = lowering._simt_cost(
                    design, inv.elements, inv.flops_per_element
                )
            else:
                kernel_cycles, counters = kernel.total_cycles, kernel.counters
            index_of[inv.name] = position
            resources.append(_RESOURCE_INDEX[inv.resource])
            cycles.append(kernel_cycles)
            deps.append(tuple(index_of[dep] for dep in inv.deps if dep))
            stats.append(None if kernel is None else kernel.schedule_stats)
            macs.append(kernel_macs)
            utilization.append(0.0 if kernel is None else kernel.mac_utilization)
            layer = layer_index.setdefault(inv.layer, len(members))
            if layer == len(members):
                members.append([])
                layer_counters.append(Counters())
            layer_of.append(layer)
            members[layer].append(position)
            layer_counters[layer].merge(counters)

    table = EnergyTable.for_design(design.style)
    layers = []
    for name, indices, counters in zip(layer_index, members, layer_counters):
        layer_macs = sum(macs[k] for k in indices)
        weighted = sum(utilization[k] * macs[k] for k in indices)
        layers.append(
            ProgramLayer(
                name=name,
                phase=invocations[indices[0]].phase,
                kinds=tuple(dict.fromkeys(invocations[k].kind for k in indices)),
                members=tuple(indices),
                energy_fj=table.energy_femtojoules(counters),
                macs=layer_macs,
                mac_utilization_percent=100.0 * weighted / layer_macs if layer_macs else 0.0,
            )
        )
    totals = Counters()
    for counters in layer_counters:
        totals.merge(counters)
    return StepProgram(
        model=schedule.model,
        heterogeneous=schedule.heterogeneous,
        ideal_mac_cycles=schedule.ideal_mac_cycles,
        names=tuple(inv.name for inv in invocations),
        kinds=tuple(inv.kind for inv in invocations),
        phases=tuple(inv.phase for inv in invocations),
        layer_of=tuple(layer_of),
        resources=tuple(resources),
        cycles=tuple(cycles),
        durations=tuple(_scaled_cycles(value, 1.0) for value in cycles),
        deps=tuple(deps),
        stats=tuple(stats),
        layers=tuple(layers),
        counters=totals.as_dict(),
        energy_fj=table.energy_femtojoules(totals),
    )
