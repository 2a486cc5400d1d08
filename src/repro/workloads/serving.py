"""Continuous-batching serving: time-multiplexed decode over merged schedules.

This module adds the first *time-multiplexed* scheduling dimension to the
workloads stack: requests enter and leave the kernel schedule mid-simulation.
A :class:`~repro.workloads.graph.ServingTrace` supplies a stream of
decode-phase requests (GPT / GQA / MoE mixes, arrival cycles, prompt lengths,
decode budgets); the :class:`ServingScheduler` runs iteration-level
continuous batching over it:

1. at every iteration boundary, requests whose arrival cycle has passed join
   the in-flight batch (queueing delay is the wait for that boundary);
2. each in-flight request contributes its *next* decode step -- a one-token
   model graph whose KV context is the prompt length plus the steps completed
   so far, rounded up to the trace's ``context_bucket`` (a paged-KV model
   that keeps the kernel-shape working set finite);
3. the per-request step schedules are interleaved by position and
   list-scheduled as one kernel schedule -- each step compiled once into a
   :class:`~repro.workloads.lowering.StepProgram` and run by
   :func:`~repro.workloads.lowering.execute_step_programs`, exactly as
   :func:`~repro.workloads.lowering.merge_schedules` plus ``execute_schedule``
   would -- so independent requests overlap across the matrix units and
   SIMT cores exactly the way MoE expert chains already do within a layer;
4. requests that completed their decode budget retire; the clock advances by
   the iteration makespan and the loop repeats until the trace drains.

Every per-kernel simulation flows through the process-wide timing cache and
the steady-state-compressed kernel schedulers, lowered per-step schedules
and their compiled programs are memoized per (model, bucketed context,
unit), and whole *iterations* are memoized process-wide by their batch
composition -- the ordered (model, bucketed context, unit) sequence plus
the design fingerprint (:meth:`ServingScheduler._memo_key`).  KV bucketing
makes compositions repeat, so after the first few iterations a serving run
replays recorded outcomes: no merging, no list scheduling, no kernel
simulation.  ``ServingRunResult.iteration_memo`` reports the per-run
hit/miss split; the memo is invalidated whenever the timing cache is
cleared and bypassed while it is disabled.

Above the batcher sits a pluggable *control plane*
(:mod:`repro.workloads.control`): a :class:`SchedulingPolicy` decides at
every iteration boundary which queued requests to shed, which in-flight
requests to preempt, and which to admit under a KV-budget.  The default
``fcfs`` policy admits everything unconditionally -- byte-identical to the
scheduler before the control plane existed -- while ``kv-budget`` and
``preemptive-slo`` trade per-request SLO classes
(:class:`~repro.workloads.control.SloClass`) against an HBM budget.  Every
request then lands in exactly one disposition -- ``met`` / ``violated`` /
``shed`` / ``timed_out`` -- and the fraction of arrivals meeting their SLO
is the run's goodput.  A seeded :class:`~repro.faults.FaultPlan` can
additionally inject kernel latency spikes, iteration stalls and arrival
bursts, deterministically, to measure how gracefully each policy degrades.

The result (:class:`ServingRunResult`) carries per-request records --
arrival, admission, time to first token, finish -- from which the analysis
layer (:mod:`repro.analysis.serving`) derives latency percentiles, TTFT,
queueing delay, goodput and per-unit occupancy under load.

>>> from repro.workloads import run_serving
>>> result = run_serving("poisson-mixed", "virgo")
>>> len(result.requests), result.iterations  # doctest: +SKIP
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.config.presets import DesignKind, make_design
from repro.config.soc import DataType, DesignConfig
from repro.energy.model import EnergyTable
from repro.faults import FaultInjector, FaultPlan
from repro.kernels.heterogeneous import small_unit_config
from repro.workloads.control import (
    PolicyContext,
    SchedulingPolicy,
    evaluate_disposition,
    request_kv_bytes,
    resolve_policy,
)
from repro.obs import CapturedSpans, MetricsRegistry, occupancy_percent, phase, trace_recorder
from repro.obs.trace import REQUESTS_PROCESS, SCHEDULER_PROCESS, UNITS_PROCESS
from repro.perf import design_fingerprint, timing_cache
from repro.workloads.epochs import (
    EpisodeRun,
    EpisodeSegment,
    EpisodeTemplate,
    EpochRecord,
    IterationRecord,
    IterationTimeline,
    accumulate_energy,
    accumulate_energy_scalar,
    build_episode_template,
    clean_fault_run,
    epoch_horizon,
    fresh_epoch_stats,
)
from repro.workloads.graph import RequestSpec, ServingTrace, bucket_context
from repro.workloads.lowering import (
    MATRIX_RESOURCE,
    SMALL_MATRIX_RESOURCE,
    KernelSchedule,
    StepProgram,
    compile_step_program,
    execute_schedule,
    execute_step_programs,
    lower_graph,
)
from repro.workloads.models import ModelSpec, build_model, resolve_trace, scaled_spec


#: Terminal states a request can land in.  Finished requests are judged
#: against their SLO targets (``met`` / ``violated``); ``shed`` requests were
#: dropped from the admission queue without ever receiving service, and
#: ``timed_out`` requests received some service, were preempted, and then hit
#: their queue deadline before re-admission.
DISPOSITIONS = ("met", "violated", "shed", "timed_out")


@dataclass
class RequestResult:
    """Lifecycle record of one request through a serving run.

    All cycle stamps are absolute simulation cycles; derived metrics
    (latency, TTFT, queueing delay) are properties so they can never drift
    from the stamps they are defined by.  Under a non-default policy stamps
    can be ``None`` -- a shed request was never admitted and has no finish --
    and ``disposition`` records the terminal state; under the default FCFS
    policy with no SLOs every stamp is set and ``disposition`` stays
    ``None``, keeping the encoding byte-identical to the pre-control-plane
    scheduler.
    """

    request_id: str
    arrival_cycle: int
    admitted_cycle: Optional[int]
    first_token_cycle: Optional[int]
    finish_cycle: Optional[int]
    prompt_len: int
    decode_steps: int
    model_family: str
    disposition: Optional[str] = None
    slo_class: Optional[str] = None
    preemptions: int = 0
    #: Cycle at which a shed/timed-out request left the system.
    terminal_cycle: Optional[int] = None

    @property
    def latency_cycles(self) -> Optional[int]:
        """Arrival to last decode step retired: the end-to-end latency."""
        if self.finish_cycle is None:
            return None
        return self.finish_cycle - self.arrival_cycle

    @property
    def ttft_cycles(self) -> Optional[int]:
        """Arrival to first decode step retired: time to first token."""
        if self.first_token_cycle is None:
            return None
        return self.first_token_cycle - self.arrival_cycle

    @property
    def queueing_cycles(self) -> Optional[int]:
        """Arrival to first admission: the wait for an iteration boundary."""
        if self.admitted_cycle is None:
            return None
        return self.admitted_cycle - self.arrival_cycle

    @property
    def finished(self) -> bool:
        return self.finish_cycle is not None

    def to_dict(self) -> Dict[str, object]:
        encoded: Dict[str, object] = {
            "request_id": self.request_id,
            "model_family": self.model_family,
            "arrival_cycle": self.arrival_cycle,
            "admitted_cycle": self.admitted_cycle,
            "first_token_cycle": self.first_token_cycle,
            "finish_cycle": self.finish_cycle,
            "prompt_len": self.prompt_len,
            "decode_steps": self.decode_steps,
            "latency_cycles": self.latency_cycles,
            "ttft_cycles": self.ttft_cycles,
            "queueing_cycles": self.queueing_cycles,
        }
        # Control-plane keys appear only when a disposition was assigned
        # (non-default policy, SLO-classed trace, or fault injection), so the
        # default path keeps the exact historical encoding -- the serving
        # goldens pin this.
        if self.disposition is not None:
            encoded["disposition"] = self.disposition
            encoded["slo_class"] = self.slo_class
            encoded["preemptions"] = self.preemptions
            encoded["terminal_cycle"] = self.terminal_cycle
        return encoded


@dataclass
class ServingRunResult:
    """Outcome of one trace on one design under continuous batching.

    ``total_cycles`` is the absolute end of the last iteration (the trace
    makespan, including idle gaps while the system waits for arrivals);
    ``serving_cycles`` sums only the iteration spans, i.e. cycles during
    which at least one request was being decoded.
    """

    trace: str
    design: DesignConfig
    heterogeneous: bool
    context_bucket: int
    total_cycles: int
    serving_cycles: int
    requests: List[RequestResult]
    #: Per-iteration records.  Under epoch compression this is an
    #: :class:`~repro.workloads.epochs.IterationTimeline` holding
    #: extrapolated runs compressed; it behaves exactly like the list it
    #: replaces (``len``, iteration, indexing), expanding records lazily.
    iterations: Sequence[IterationRecord]
    kernel_count: int
    energy_uj: float
    resource_busy: Dict[str, int] = field(default_factory=dict)
    #: Timing-cache activity attributable to this run; diagnostic only and
    #: excluded from :meth:`to_dict` so the canonical encoding stays
    #: byte-stable across cache states (same contract as ModelRunResult).
    timing_cache: Dict[str, int] = field(default_factory=dict)
    #: Iteration-memo activity ("hits"/"misses"): how many iterations reused
    #: a previously executed batch composition instead of merging and
    #: scheduling afresh.  Diagnostic only, excluded from :meth:`to_dict`
    #: for the same byte-stability reason.
    iteration_memo: Dict[str, int] = field(default_factory=dict)
    #: Epoch-compression activity (:func:`~repro.workloads.epochs.
    #: fresh_epoch_stats`): how many iterations/requests were covered by
    #: closed-form epoch and episode extrapolation instead of the exact
    #: loop.  Diagnostic only -- like ``timing_cache``/``iteration_memo``
    #: it is excluded from :meth:`to_dict`, which stays byte-identical
    #: with compression on, off, or absent.
    epochs: Dict[str, object] = field(default_factory=dict)
    #: Unified metrics collected during the run (:mod:`repro.obs.metrics`).
    #: ``to_dict`` embeds the non-diagnostic snapshot; cache/memo hit rates
    #: are diagnostic and reported via ``snapshot(include_diagnostic=True)``.
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry, compare=False)
    #: Scheduling policy the run used ("fcfs" unless overridden).
    policy: str = "fcfs"
    #: True when the control plane could alter behaviour (non-default policy,
    #: SLO-classed trace, or fault injection).  Gates every new ``to_dict``
    #: key so default runs stay byte-identical to the pre-control-plane
    #: encoding.
    control_active: bool = False
    #: Fraction of arrivals whose SLO was met (``None`` on default runs).
    goodput: Optional[float] = None
    #: Disposition histogram: every arrival lands in exactly one bucket.
    dispositions: Dict[str, int] = field(default_factory=dict)
    #: Total evictions performed by the policy across the run.
    preemption_count: int = 0
    #: The fault plan injected into the run, if any.
    fault_plan: Optional[FaultPlan] = None

    @property
    def design_name(self) -> str:
        return self.design.name

    @property
    def iteration_count(self) -> int:
        return len(self.iterations)

    @property
    def decode_steps_executed(self) -> int:
        if isinstance(self.iterations, IterationTimeline):
            return self.iterations.decode_steps
        return sum(record.batch for record in self.iterations)

    @property
    def mean_batch(self) -> float:
        if not self.iterations:
            return 0.0
        return self.decode_steps_executed / len(self.iterations)

    @property
    def tokens_per_kilocycle(self) -> float:
        """Decode throughput over the busy (serving) span."""
        if self.serving_cycles <= 0:
            return 0.0
        return 1000.0 * self.decode_steps_executed / self.serving_cycles

    def to_dict(self) -> Dict[str, object]:
        encoded: Dict[str, object] = {
            "kind": "serving",
            "trace": self.trace,
            "design": self.design_name,
            "heterogeneous": self.heterogeneous,
            "context_bucket": self.context_bucket,
            "total_cycles": self.total_cycles,
            "serving_cycles": self.serving_cycles,
            "iteration_count": self.iteration_count,
            "decode_steps_executed": self.decode_steps_executed,
            "mean_batch": self.mean_batch,
            "tokens_per_kilocycle": self.tokens_per_kilocycle,
            "kernel_count": self.kernel_count,
            "energy_uj": self.energy_uj,
            "resource_busy_cycles": dict(self.resource_busy),
            "requests": [request.to_dict() for request in self.requests],
            "iterations": [record.to_dict() for record in self.iterations],
            "metrics": self.metrics.snapshot(),
        }
        if self.control_active:
            encoded["policy"] = self.policy
            encoded["goodput"] = self.goodput
            encoded["dispositions"] = dict(self.dispositions)
            encoded["preemption_count"] = self.preemption_count
            encoded["faults"] = self.fault_plan.to_dict() if self.fault_plan else None
        return encoded


@dataclass
class _InFlight:
    """Mutable per-request state while the request is in the batch.

    ``admitted_cycle`` is the *first* admission (queueing delay measures the
    initial wait, not re-admissions); ``resident_since`` is the latest
    (re-)admission, the preemption policies' eviction-ordering key.
    ``pending_penalty`` is the KV re-read cost a just-re-admitted request
    pays before its next step completes -- consumed by the first iteration
    after re-admission.
    """

    request: RequestSpec
    admitted_cycle: int
    steps_done: int = 0
    first_token_cycle: Optional[int] = None
    finish_cycle: Optional[int] = None
    resident_since: int = 0
    pending_penalty: int = 0
    preemptions: int = 0

    @property
    def prefix(self) -> str:
        return f"{self.request.request_id}/"


@dataclass
class _Queued:
    """A request waiting for admission (fresh arrival or preempted)."""

    request: RequestSpec
    enqueued_cycle: int
    steps_done: int = 0
    preempted: bool = False
    admitted_cycle: Optional[int] = None
    first_token_cycle: Optional[int] = None
    preemptions: int = 0
    evicted_cycle: Optional[int] = None


@dataclass
class _Step:
    """A lowered decode step and, once executed, its compiled program."""

    schedule: KernelSchedule
    program: Optional[StepProgram] = None


@dataclass(frozen=True)
class _IterationOutcome:
    """Everything a continuous-batching iteration contributes to the run.

    ``entry_end_cycles`` holds, per batch position, the iteration-relative
    cycle at which that request's decode step retires (the latest end of any
    of its kernels in the merged placement).  ``cache_hits``/``cache_misses``
    record the timing-cache activity of the executing pass; a memo replay
    skips those probes, so it credits ``cache_lookups`` back as hits (a
    re-execution against the now-warm cache would hit on every probe).
    """

    span_cycles: int
    entry_end_cycles: Tuple[int, ...]
    kernel_count: int
    energy_uj: float
    resource_busy: Tuple[Tuple[str, int], ...]
    cache_hits: int
    cache_misses: int

    @property
    def cache_lookups(self) -> int:
        return self.cache_hits + self.cache_misses


#: Namespace of the process-wide iteration memo inside the timing cache.
#: Keys are fully content-addressed -- design fingerprint, unit layout,
#: dtype and the *ordered* batch composition (the list scheduler packs
#: kernels in insertion order, so order is part of the content).  Living in
#: a :meth:`~repro.perf.TimingCache.namespace` ties the memo's lifecycle to
#: the kernel entries its outcomes were computed from: clearing the timing
#: cache (tests, cold-path measurement) drops the memo too, and persistent
#: snapshots carry it across processes so repeat ``serve`` invocations
#: replay iterations instead of re-merging and re-scheduling them.
_MEMO_NAMESPACE = "serving.iteration_memo"


def _iteration_memo() -> Dict[tuple, _IterationOutcome]:
    return timing_cache().namespace(_MEMO_NAMESPACE)


#: Namespace of the learned episode templates (epoch compression's
#: request-granular tier).  A template is the solo-service segment list of
#: one request shape -- (design fingerprint, unit layout, dtype, context
#: bucket, model spec, prompt length, decode budget) -- recorded by
#: instrumenting the exact loop the first time that shape serves alone from
#: an idle system to a clean finish.  Living in the same
#: :meth:`~repro.perf.TimingCache.namespace` mechanism as the iteration
#: memo ties both to one lifecycle: templates are only ever finalized after
#: every composition they cover landed in the memo, so a surviving template
#: implies surviving memo entries and episode replays can credit exact
#: hit/lookup totals.
_EPISODE_NAMESPACE = "serving.episodes"


def _episode_templates() -> Dict[tuple, EpisodeTemplate]:
    return timing_cache().namespace(_EPISODE_NAMESPACE)


def _pending_arrays(
    pending: List[RequestSpec],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vector views over the pending stream for the episode run walk.

    ``shape_ids`` groups requests by ``(model object, prompt_len,
    decode_steps)``; keying the model by object identity is deliberately
    conservative -- equal-but-distinct spec objects split a run at the
    boundary, which only shortens the extrapolated stretch, never changes a
    result (the zoo and stream builders reuse one spec object anyway).
    """
    arrivals = np.fromiter(
        (request.arrival_cycle for request in pending),
        dtype=np.int64,
        count=len(pending),
    )
    ids: Dict[tuple, int] = {}
    shapes = np.fromiter(
        (
            ids.setdefault(
                (id(request.model), request.prompt_len, request.decode_steps),
                len(ids),
            )
            for request in pending
        ),
        dtype=np.int64,
        count=len(pending),
    )
    return arrivals, np.diff(arrivals), shapes


def _episode_run_length(
    start: int, total_span: int, gaps: np.ndarray, shape_ids: np.ndarray
) -> int:
    """Length of the maximal undisturbed same-shape run from ``start``.

    Request ``k`` belongs to the run iff it matches the head's shape and the
    following arrival (if any) lands at least ``total_span`` cycles later --
    by which point ``k``'s solo service has fully drained, so ``k`` can
    never share an iteration with its successor.  A closer successor
    excludes ``k`` itself (it would be disturbed mid-service).  Scans in
    geometrically growing numpy chunks so short runs cost a few dozen
    comparisons while million-long runs stay one vector pass.
    """
    n = len(shape_ids)
    sid = shape_ids[start]
    j = start
    chunk = 64
    while j < n:
        stop = min(n, j + chunk)
        bad = shape_ids[j:stop] != sid
        gap_stop = min(stop, n - 1)
        if gap_stop > j:
            np.logical_or(
                bad[: gap_stop - j],
                gaps[j:gap_stop] < total_span,
                out=bad[: gap_stop - j],
            )
        hits = np.flatnonzero(bad)
        if hits.size:
            return j + int(hits[0]) - start
        j = stop
        chunk = min(chunk * 8, 65536)
    return n - start


def _serving_metrics(
    requests: List[RequestResult],
    iterations: Sequence[IterationRecord],
    total_cycles: int,
    serving_cycles: int,
    kernel_count: int,
    resource_busy: Dict[str, int],
    cache_stats: Dict[str, int],
    memo_stats: Dict[str, int],
    control_active: bool = False,
    goodput: Optional[float] = None,
    dispositions: Optional[Dict[str, int]] = None,
    preemption_count: int = 0,
    epoch_stats: Optional[Dict[str, object]] = None,
    queue_waits: Optional[Tuple[int, List[int]]] = None,
) -> MetricsRegistry:
    """The unified metrics registry for one serving run.

    Everything non-diagnostic is a pure function of the run's outcome
    (requests, iterations, busy cycles) and therefore identical whether
    iterations executed or replayed from the memo -- the property that keeps
    ``to_dict`` byte-stable across cache states.  Cache and memo activity is
    process-dependent and registered diagnostic.
    """
    metrics = MetricsRegistry()
    metrics.counter("serving.requests").inc(len(requests))
    metrics.counter("serving.iterations").inc(len(iterations))
    timeline = iterations if isinstance(iterations, IterationTimeline) else None
    metrics.counter("serving.decode_steps").inc(
        timeline.decode_steps
        if timeline is not None
        else sum(record.batch for record in iterations)
    )
    metrics.counter("serving.kernels").inc(kernel_count)
    metrics.gauge("serving.makespan_cycles").set(total_cycles)
    metrics.gauge("serving.serving_cycles").set(serving_cycles)
    # Histogram snapshots are order-insensitive (count/total/min/max), so
    # bulk observation over compressed segments reproduces the per-record
    # loop's snapshot exactly without expanding extrapolated runs.
    batch = metrics.histogram("serving.batch")
    if timeline is not None:
        for value, count in timeline.batch_observations():
            batch.observe_many(value, count)
    else:
        for record in iterations:
            batch.observe(record.batch)
    queueing = metrics.histogram("serving.queue_wait_cycles")
    if queue_waits is not None:
        # Precomputed during the scheduler's result merge: a bulk count of
        # known-zero waits (episode-replayed requests are admitted on
        # arrival) plus the individually tracked waits.  Snapshot-identical
        # to the per-request loop because histograms are order-insensitive.
        zero_count, waits = queue_waits
        queueing.observe_many(0, zero_count)
        for wait in waits:
            queueing.observe(wait)
    else:
        for request in requests:
            admitted = request.admitted_cycle
            if admitted is not None:
                queueing.observe(admitted - request.arrival_cycle)
    if control_active:
        metrics.gauge("serving.goodput").set(goodput if goodput is not None else 0.0)
        for disposition in DISPOSITIONS:
            metrics.counter(f"serving.dispositions.{disposition}").inc(
                (dispositions or {}).get(disposition, 0)
            )
        metrics.counter("serving.preemptions").inc(preemption_count)
    for resource, busy in sorted(resource_busy.items()):
        metrics.counter(f"unit.busy_cycles.{resource}").inc(busy)
    occupancy = occupancy_percent(resource_busy, serving_cycles)
    for resource, percent in occupancy.items():
        metrics.gauge(f"unit.occupancy_percent.{resource}").set(percent)
    metrics.counter("iteration_memo.hits", diagnostic=True).inc(memo_stats["hits"])
    metrics.counter("iteration_memo.misses", diagnostic=True).inc(memo_stats["misses"])
    metrics.counter("timing_cache.hits", diagnostic=True).inc(cache_stats["hits"])
    metrics.counter("timing_cache.misses", diagnostic=True).inc(cache_stats["misses"])
    if epoch_stats is not None:
        metrics.counter("epoch.runs", diagnostic=True).inc(
            int(epoch_stats["epochs"]) + int(epoch_stats["episode_runs"])
        )
        metrics.counter("epoch.extrapolated_iterations", diagnostic=True).inc(
            int(epoch_stats["extrapolated_iterations"])
        )
    return metrics


class ServingScheduler:
    """Iteration-level continuous batching on one design configuration.

    The scheduler is reusable across traces; it memoizes lowered per-step
    schedules per (request model, bucketed context, unit), each with the
    step program compiled from it on first execution, so a repeated step --
    and a repeated *request* with the same network -- costs neither
    lowering nor kernel lookups.
    """

    def __init__(
        self,
        design: Union[str, DesignKind, DesignConfig] = DesignKind.VIRGO,
        heterogeneous: bool = False,
        dtype: DataType = DataType.FP16,
        iteration_memo: bool = True,
        policy: Union[str, SchedulingPolicy, None] = None,
        kv_budget: Optional[int] = None,
        epoch_compression: bool = True,
    ) -> None:
        if isinstance(design, str):
            design = DesignKind(design.lower())
        self.design = make_design(design, dtype) if isinstance(design, DesignKind) else design
        self.heterogeneous = heterogeneous
        self.dtype = dtype
        self.iteration_memo = iteration_memo
        self.epoch_compression = epoch_compression
        self.policy = resolve_policy(policy, kv_budget)
        self._design_fp: Optional[str] = None
        # Built on the first executed iteration: memo replays never need it.
        self._energy_table: Optional[EnergyTable] = None
        self._step_schedules: Dict[Tuple[ModelSpec, int, str], _Step] = {}
        # Timing-cache generation the stored step programs were compiled
        # under; None while none may be kept (see _step_programs).
        self._programs_generation: Optional[int] = None
        # The previous iteration's first-fit-decreasing unit packing, reused
        # verbatim while the in-flight composition is unchanged (the common
        # steady-state case between arrivals/retirements/bucket crossings).
        self._units_signature: Optional[tuple] = None
        self._units: Tuple[str, ...] = ()
        # Request-granular unit spreading, mirroring the MoE expert spread
        # (see lowering._moe_expert_resource): with the default 4x throughput
        # ratio, one request in five rides the half-size unit, so both matrix
        # units draw down the decode batch concurrently.  The single-kernel
        # heuristic (every small GEMM onto the small unit) would funnel the
        # *entire* batch there -- in decode all GEMMs are small -- and leave
        # the big unit idle.
        self._unit_stride = 0
        if heterogeneous:
            large_mpc = self.design.matrix_unit.macs_per_cycle
            small_mpc = max(1, small_unit_config(self.design.matrix_unit).macs_per_cycle)
            self._unit_stride = max(2, round(large_mpc / small_mpc) + 1)

    def iteration_units(
        self,
        trace: ServingTrace,
        active: List[_InFlight],
        contexts: Optional[List[int]] = None,
    ) -> List[str]:
        """Per-iteration matrix-unit assignment for the active batch.

        The small unit receives requests first-fit-decreasing under a work
        budget of ``1/stride`` of the batch's total matrix work -- the
        balance point at which both units finish together, given the small
        unit is ``stride - 1`` times slower.  Re-deciding every iteration
        (and budgeting by work, not request count) keeps two guarantees a
        pin-for-life policy breaks: a request decoding in a small or
        draining batch is never stranded on the slow unit while the big
        unit idles (a lone request always exceeds the fractional budget),
        and the small unit's busy time -- at most ``(stride-1)/stride`` of
        the batch's total work -- stays below the sum of the isolated
        makespans for every trace shape, with ``1/stride`` to spare.

        The packing is a pure function of the batch's (model, bucketed
        context) composition, so when that composition matches the previous
        iteration's exactly -- no arrival, retirement or bucket crossing --
        the previous assignment is reused instead of re-running the repack.
        ``contexts`` optionally supplies the per-request bucketed contexts
        the caller already computed.
        """
        if contexts is None:
            contexts = [
                trace.bucketed_context(state.request.context_at(state.steps_done))
                for state in active
            ]
        units = [MATRIX_RESOURCE] * len(active)
        if not self._unit_stride or len(active) < 2:
            return units
        signature = tuple(
            (state.request.request_id, state.request.model, context)
            for state, context in zip(active, contexts)
        )
        if signature == self._units_signature:
            return list(self._units)
        work = [
            (
                self.step_schedule(
                    state.request, context, MATRIX_RESOURCE
                ).ideal_mac_cycles,
                state.request.request_id,
                index,
            )
            for index, (state, context) in enumerate(zip(active, contexts))
        ]
        budget = sum(estimate for estimate, _, _ in work) / self._unit_stride
        filled = 0.0
        for estimate, _, index in sorted(work, key=lambda item: (-item[0], item[1])):
            if filled + estimate <= budget:
                units[index] = SMALL_MATRIX_RESOURCE
                filled += estimate
        self._units_signature = signature
        self._units = tuple(units)
        return units

    def step_schedule(
        self, request: RequestSpec, context: int, unit: str = MATRIX_RESOURCE
    ) -> KernelSchedule:
        """The (memoized) one-decode-step schedule at a bucketed context.

        ``unit`` pins every matrix-unit kernel of the step onto one matrix
        unit (requests, not kernels, are the parallelism grain in serving);
        flash/SIMT kernels are unaffected.
        """
        return self._step(request, context, unit).schedule

    def _step(self, request: RequestSpec, context: int, unit: str) -> _Step:
        # Keyed by the request's own model object: its hash is pinned, so a
        # hit never rebuilds the decode spec.
        key = (request.model, context, unit)
        step = self._step_schedules.get(key)
        if step is None:
            spec = scaled_spec(request.model, phase="decode", context_len=context)
            with phase("lower", model=request.model.family, context=context):
                schedule = lower_graph(
                    build_model(spec),
                    self.design,
                    heterogeneous=self.heterogeneous,
                    dtype=self.dtype,
                )
            if self.heterogeneous:
                schedule = replace(
                    schedule,
                    invocations=[
                        replace(inv, resource=unit)
                        if inv.kind == "gemm"
                        and inv.resource in (MATRIX_RESOURCE, SMALL_MATRIX_RESOURCE)
                        else inv
                        for inv in schedule.invocations
                    ],
                )
            step = self._step_schedules[key] = _Step(schedule)
        return step

    def _step_programs(
        self, active: List[_InFlight], contexts: List[int], units: List[str]
    ) -> List[StepProgram]:
        """The batch's compiled step programs, one per row.

        A step compiles on its first execution, probing the timing cache
        exactly as one execution of that step does; every later use credits
        its kernel count back as hits, so the run reports the lookups a
        per-kernel execution would.  Programs derive from cache contents:
        all are dropped when the cache generation changes, and none is kept
        while the cache is disabled (every row then compiles afresh).
        """
        cache = timing_cache()
        generation = cache.generation if cache.enabled else None
        if generation != self._programs_generation:
            for step in self._step_schedules.values():
                step.program = None
            self._programs_generation = generation
        programs: List[StepProgram] = []
        credited = 0
        for state, context, unit in zip(active, contexts, units):
            step = self._step(state.request, context, unit)
            program = step.program
            if program is None:
                program = compile_step_program(step.schedule)
                if generation is not None:
                    step.program = program
            else:
                credited += len(program)
            programs.append(program)
        cache.credit_hits(credited)
        return programs

    def _memo_key(
        self,
        contexts: List[int],
        active: List[_InFlight],
        units: List[str],
        penalties: Optional[List[int]] = None,
    ) -> tuple:
        """Content key of one iteration's merged schedule.

        Covers everything that can influence the merged placement *and* the
        iteration's effective span: the design (by fingerprint), the unit
        layout, the dtype and the *ordered* sequence of (request model,
        bucketed context, unit, pending KV re-read penalty) tuples --
        ordered, not a plain multiset, because the list scheduler reserves
        resources in insertion order, so the batch order is part of the
        schedule content.  The penalty element folds preemption state into
        the key (``docs/perf-contract.md`` contract 4): an iteration whose
        batch includes a just-re-admitted request never aliases a
        penalty-free composition, so memo on/off runs stay byte-identical
        under preemption.  Request identities are deliberately absent:
        prefixes rename kernels but never move them.
        """
        if penalties is None:
            penalties = [0] * len(active)
        return (
            self._design_fingerprint(),
            self.heterogeneous,
            self.dtype,
            tuple(
                (state.request.model, context, unit, penalty)
                for state, context, unit, penalty in zip(active, contexts, units, penalties)
            ),
        )

    def _design_fingerprint(self) -> str:
        """The design's content fingerprint, computed once per scheduler."""
        if self._design_fp is None:
            self._design_fp = design_fingerprint(self.design)
        return self._design_fp

    def _episode_key(self, trace: ServingTrace, request: RequestSpec) -> tuple:
        """Content key of a request shape's solo-service episode template.

        Everything that can influence a solo run's outcome: the design (by
        fingerprint), unit layout, dtype, the trace's KV bucket, and the
        request's (model spec, prompt length, decode budget).  The SLO class
        is deliberately absent: a solo arrival at an idle-system boundary is
        admitted immediately with zero queueing under every shipped policy
        (nothing to shed at age zero, nothing to evict, budget trivially
        satisfied -- and the progress safety valve force-admits regardless),
        and dispositions are evaluated post-loop from the stamps, so the
        service outcome is SLO-independent.
        """
        return (
            self._design_fingerprint(),
            self.heterogeneous,
            self.dtype,
            trace.context_bucket,
            request.model,
            request.prompt_len,
            request.decode_steps,
        )

    def _execute_iteration(
        self,
        trace: ServingTrace,
        active: List[_InFlight],
        contexts: List[int],
        units: List[str],
        label: str,
        duration_scale: float = 1.0,
    ) -> _IterationOutcome:
        """Execute one iteration's batch for real: its step programs,
        interleaved and list-scheduled as the merged schedule would be."""
        if self._energy_table is None:
            self._energy_table = EnergyTable.for_design(self.design.style)
        cache = timing_cache()
        hits, misses = cache.hits, cache.misses
        with phase("merge", batch=len(active)):
            programs = self._step_programs(active, contexts, units)
        with phase("list_schedule", model=label):
            placed = execute_step_programs(
                programs,
                [state.prefix for state in active],
                self._energy_table,
                duration_scale=duration_scale,
            )
        return _IterationOutcome(
            span_cycles=placed.total_cycles,
            entry_end_cycles=placed.row_ends,
            kernel_count=placed.kernel_count,
            energy_uj=placed.energy_uj,
            resource_busy=tuple(sorted(placed.resource_busy.items())),
            cache_hits=cache.hits - hits,
            cache_misses=cache.misses - misses,
        )

    def _readmission_penalty(self, entry: _Queued, ctx: PolicyContext) -> int:
        """KV re-read cost of re-admitting a preempted request, in cycles.

        Eviction drops the request's KV state from HBM residency; coming
        back, the state streams in again over the DRAM channel -- capacity
        bytes over channel bandwidth, plus the channel latency.
        """
        return self.kv_reload_penalty(entry.request, entry.steps_done, ctx.trace)

    # -- External-driver hooks -------------------------------------------
    #
    # The fleet router (repro.workloads.fleet) steps replicas incrementally
    # between fleet events instead of calling :meth:`run` once per trace.
    # These hooks expose the scheduler's building blocks -- one iteration's
    # outcome with memo replay, the KV reload cost a requeued request pays,
    # and the batch's resident KV footprint -- without touching the main
    # loop, so single-SoC serve runs stay byte-identical to their goldens.

    def kv_reload_penalty(self, request: RequestSpec, steps_done: int, trace: ServingTrace) -> int:
        """Cycles to stream the request's KV state back into HBM residency.

        The cost a preempted request pays on re-admission, and the explicit
        re-prefill cost a failed-over request pays on its new replica (the
        crashed replica's KV is gone; the prompt-plus-progress state streams
        in over the DRAM channel at its current bucketed context).
        """
        dram = self.design.soc.dram
        context = trace.bucketed_context(request.context_at(steps_done))
        kv_bytes = request_kv_bytes(request.model, context, self.dtype)
        return int(math.ceil(kv_bytes / dram.bandwidth_bytes_per_cycle)) + dram.latency_cycles

    def resident_kv_bytes(self, trace: ServingTrace, active: Sequence[_InFlight]) -> int:
        """Total KV bytes resident for the active batch (router introspection)."""
        return sum(
            request_kv_bytes(
                state.request.model,
                trace.bucketed_context(state.request.context_at(state.steps_done)),
                self.dtype,
            )
            for state in active
        )

    def iteration_outcome(
        self,
        trace: ServingTrace,
        active: List[_InFlight],
        duration_scale: float = 1.0,
    ) -> Tuple[_IterationOutcome, bool]:
        """One continuous-batching iteration for an external driver.

        Computes the batch's contexts, unit packing and pending penalties,
        consults the process-wide iteration memo, and returns ``(outcome,
        replayed)``.  A scaled iteration (``duration_scale != 1`` -- the
        slowdown-fault path) bypasses the memo in *both* directions, the
        same no-cache-poisoning rule spiked iterations follow in
        :meth:`run`.  The caller owns stat bookkeeping: on replay it should
        credit ``outcome.cache_lookups`` back to the timing cache (times the
        number of extrapolated repeats) so memoized and executing runs
        report the same lookup totals.
        """
        contexts = [
            trace.bucketed_context(state.request.context_at(state.steps_done))
            for state in active
        ]
        units = self.iteration_units(trace, active, contexts)
        penalties = [state.pending_penalty for state in active]
        memo = (
            _iteration_memo()
            if self.iteration_memo and timing_cache().enabled and duration_scale == 1.0
            else None
        )
        key = self._memo_key(contexts, active, units, penalties) if memo is not None else None
        outcome = memo.get(key) if memo is not None else None
        if outcome is not None:
            return outcome, True
        label = f"fleet:{trace.name}"
        with phase("serving.iteration", batch=len(active)):
            outcome = self._execute_iteration(
                trace, active, contexts, units, label=label, duration_scale=duration_scale
            )
        if memo is not None:
            memo[key] = outcome
        return outcome, False

    def run(
        self,
        trace: Union[str, ServingTrace],
        faults: Optional[FaultPlan] = None,
    ) -> ServingRunResult:
        """Continuous-batch ``trace`` to completion and report per-request metrics."""
        trace = resolve_trace(trace) if isinstance(trace, str) else trace
        injector = FaultInjector(faults) if faults is not None and faults.active else None
        if injector is not None:
            trace = injector.perturb_trace(trace)
        # The control plane is "active" -- and its extra result fields are
        # populated -- only when something can deviate from historical
        # behaviour.  Default FCFS runs over SLO-free traces without faults
        # take the exact pre-control-plane path, which pins the goldens.
        control_active = (
            self.policy.name != "fcfs"
            or injector is not None
            or any(request.slo is not None for request in trace.requests)
        )
        ctx = PolicyContext(
            design=self.design,
            dtype=self.dtype,
            trace=trace,
            kv_budget_bytes=self.design.soc.dram.hbm_capacity_bytes,
        )
        pending: List[RequestSpec] = list(trace.sorted_requests())
        pend_i = 0
        n_pending = len(pending)
        queued: List[_Queued] = []
        active: List[_InFlight] = []
        finished: Dict[str, _InFlight] = {}
        terminated: Dict[str, Tuple[_Queued, str, int]] = {}
        preemption_count = 0

        now = 0
        serving_cycles = 0
        kernel_count = 0
        energy_uj = 0.0
        resource_busy: Dict[str, int] = {}
        cache = timing_cache()
        cache_stats = {"hits": 0, "misses": 0}
        memo_stats = {"hits": 0, "misses": 0}
        memo_table = _iteration_memo() if self.iteration_memo else None
        iterations = IterationTimeline()
        recorder = trace_recorder()

        # Epoch compression rides on top of the iteration memo (an epoch is
        # a proven run of memo hits), so it degrades to exact simulation
        # whenever the memo is off or the cache disabled.  Episode replay
        # additionally requires no fault injector: faults are drawn per
        # iteration *index*, so epochs can probe ahead for a clean run
        # (clean_fault_run) but whole-request replay cannot skip the draw.
        compress = self.epoch_compression and memo_table is not None
        epoch_stats = fresh_epoch_stats(compress)
        episodes = _episode_templates() if compress and injector is None else None
        # Episode-template learning state: while exactly one request serves
        # alone from its arrival boundary, record its (outcome, run length)
        # segment stream; any deviation -- a second request, a fault, a
        # pending penalty, a memo bypass -- aborts the recording.
        learn_key: Optional[tuple] = None
        learn_rid: Optional[str] = None
        learn_segments: List[list] = []
        # Episode replay bookkeeping: (first pending index, request count,
        # template) per run, merged positionally with the exact results
        # after the loop (``pending`` preserves trace order).
        episode_meta: List[Tuple[int, int, EpisodeTemplate]] = []
        # Numpy views over the pending stream for the episode run-length
        # walk, built lazily on the first template match.
        arrivals_np: Optional[np.ndarray] = None
        gaps_np: Optional[np.ndarray] = None
        shape_ids: Optional[np.ndarray] = None

        def learn_record(outcome: _IterationOutcome, count: int) -> None:
            # Consecutive iterations of one composition replay the *same*
            # memo object, so identity merging recovers the segment runs.
            if learn_segments and learn_segments[-1][0] is outcome:
                learn_segments[-1][1] += count
            else:
                learn_segments.append([outcome, count])

        def learn_abort() -> None:
            nonlocal learn_key
            learn_key = None
            learn_segments.clear()

        def learn_finalize(state: _InFlight) -> None:
            nonlocal learn_key
            # The sum check is a safety net: a recording that survived to
            # the finish covered every decode step by construction.
            if sum(count for _, count in learn_segments) == state.request.decode_steps:
                episodes[learn_key] = build_episode_template(
                    [
                        EpisodeSegment(
                            count=count,
                            span_cycles=recorded.span_cycles,
                            end_cycle=recorded.entry_end_cycles[0],
                            kernel_count=recorded.kernel_count,
                            energy_uj=recorded.energy_uj,
                            resource_busy=recorded.resource_busy,
                            cache_lookups=recorded.cache_lookups,
                        )
                        for recorded, count in learn_segments
                    ]
                )
            learn_key = None
            learn_segments.clear()
        # Iteration-relative kernel span shapes captured at memo-miss time,
        # keyed like the memo itself.  The merged placement is a pure
        # function of the composition, so a memo hit replays the captured
        # shape shifted to the new iteration start -- the placement the memo
        # skipped rebuilding.  Compositions warmed before tracing started
        # have no shape to replay and fall back to synthesized per-unit
        # epoch spans.
        span_shapes: Dict[tuple, CapturedSpans] = {}

        while pend_i < n_pending or queued or active:
            # Episode fast path: the system is idle with no backlog and the
            # next arrival's whole solo service is already templated --
            # replay entire requests in closed form, vectorized over the
            # maximal run of same-shape arrivals spaced at least one
            # solo-service span apart (so no request in the run can be
            # disturbed by the next).
            if (
                episodes is not None
                and cache.enabled
                and not active
                and not queued
                and pend_i < n_pending
                and pending[pend_i].arrival_cycle >= now
            ):
                template = episodes.get(self._episode_key(trace, pending[pend_i]))
                if template is not None:
                    if shape_ids is None:
                        # Stream builders stash their arrival/gap/shape
                        # arrays on the trace; fall back to deriving them.
                        cached = trace.__dict__.get("_stream_arrays")
                        if cached is not None and len(cached[0]) == n_pending:
                            arrivals_np, gaps_np, shape_ids = cached
                        else:
                            arrivals_np, gaps_np, shape_ids = _pending_arrays(
                                pending
                            )
                    # Scalar pre-check: the head itself is disturbed when its
                    # successor lands inside its solo span -- the common
                    # rejection after an overlap cluster, not worth a walk.
                    if (
                        pend_i + 1 < n_pending
                        and gaps_np[pend_i] < template.total_span
                    ):
                        count = 0
                    else:
                        count = _episode_run_length(
                            pend_i, template.total_span, gaps_np, shape_ids
                        )
                    if count:
                        run_arrivals = arrivals_np[pend_i : pend_i + count]
                        iterations.append(
                            EpisodeRun(
                                index=len(iterations),
                                template=template,
                                arrivals=run_arrivals,
                                requests=pending[pend_i : pend_i + count],
                            )
                        )
                        episode_meta.append((pend_i, count, template))
                        replay_iters = count * template.total_iterations
                        memo_stats["hits"] += replay_iters
                        lookups = count * template.total_lookups
                        cache.credit_hits(lookups)
                        cache_stats["hits"] += lookups
                        kernel_count += count * template.total_kernels
                        serving_cycles += count * template.total_span
                        for resource, busy in template.busy_totals:
                            resource_busy[resource] = (
                                resource_busy.get(resource, 0) + count * busy
                            )
                        energy_uj = accumulate_energy(
                            energy_uj, template.energy_pattern, count
                        )
                        now = int(run_arrivals[-1]) + template.total_span
                        epoch_stats["episode_runs"] += 1
                        epoch_stats["extrapolated_iterations"] += replay_iters
                        epoch_stats["extrapolated_requests"] += count
                        pend_i += count
                        if recorder is not None:
                            start = int(run_arrivals[0])
                            recorder.add_span(
                                f"episode x{count}",
                                process=SCHEDULER_PROCESS,
                                track="iterations",
                                start=start,
                                duration=now - start,
                                category="epoch",
                                args={
                                    "requests": count,
                                    "iterations": replay_iters,
                                    "memo": "extrapolated",
                                    "kernels": count * template.total_kernels,
                                },
                            )
                            for resource, busy in template.busy_totals:
                                recorder.add_span(
                                    "epoch (extrapolated)",
                                    process=UNITS_PROCESS,
                                    track=resource,
                                    start=start,
                                    duration=now - start,
                                    category="epoch",
                                    args={
                                        "busy_cycles": count * busy,
                                        "kernels": count * template.total_kernels,
                                    },
                                )
                        continue
            # Arrivals: iteration-level continuous batching enqueues every
            # request whose arrival has passed at the iteration boundary.
            while pend_i < n_pending and pending[pend_i].arrival_cycle <= now:
                request = pending[pend_i]
                pend_i += 1
                queued.append(_Queued(request=request, enqueued_cycle=request.arrival_cycle))

            # Control plane: shed hopeless waiters, preempt for higher
            # priorities, admit under the iteration budget.  The default
            # FCFS policy sheds nothing, evicts nothing and admits the whole
            # queue, reproducing the historical loop exactly.
            for entry in self.policy.shed(queued, now, ctx):
                queued.remove(entry)
                disposition = "timed_out" if entry.preempted else "shed"
                terminated[entry.request.request_id] = (entry, disposition, now)
            if queued and active:
                for state in self.policy.evict(active, queued, now, ctx):
                    active.remove(state)
                    preemption_count += 1
                    queued.append(
                        _Queued(
                            request=state.request,
                            enqueued_cycle=now,
                            steps_done=state.steps_done,
                            preempted=True,
                            admitted_cycle=state.admitted_cycle,
                            first_token_cycle=state.first_token_cycle,
                            preemptions=state.preemptions + 1,
                            evicted_cycle=now,
                        )
                    )
            if queued:
                admitted = self.policy.admit(queued, active, now, ctx)
                if not admitted and not active:
                    # Progress safety valve: with nothing decoding and
                    # nothing admissible, force the oldest waiter in even
                    # over budget -- the scheduler must never deadlock on a
                    # request too large for the configured budget.
                    admitted = [
                        min(queued, key=lambda e: (e.enqueued_cycle, e.request.request_id))
                    ]
                for entry in admitted:
                    queued.remove(entry)
                    penalty = (
                        self._readmission_penalty(entry, ctx) if entry.preempted else 0
                    )
                    if recorder is not None and entry.evicted_cycle is not None:
                        recorder.add_span(
                            "preempted",
                            process=REQUESTS_PROCESS,
                            track=entry.request.request_id,
                            start=entry.evicted_cycle,
                            duration=now - entry.evicted_cycle,
                            category="preempted",
                            args={"readmission_penalty_cycles": penalty},
                        )
                    active.append(
                        _InFlight(
                            request=entry.request,
                            admitted_cycle=(
                                entry.admitted_cycle
                                if entry.admitted_cycle is not None
                                else now
                            ),
                            steps_done=entry.steps_done,
                            first_token_cycle=entry.first_token_cycle,
                            resident_since=now,
                            pending_penalty=penalty,
                            preemptions=entry.preemptions,
                        )
                    )
            if not active:
                if pend_i < n_pending:
                    now = pending[pend_i].arrival_cycle
                continue

            contexts = [
                trace.bucketed_context(state.request.context_at(state.steps_done))
                for state in active
            ]
            units = self.iteration_units(trace, active, contexts)
            penalties = [state.pending_penalty for state in active]

            # Fault injection: a spiked iteration executes with scaled kernel
            # durations and bypasses the memo in both directions -- no read
            # (a clean replay would dodge the spike) and no write (the
            # poisoned outcome must not leak into clean iterations) -- so
            # memo on/off runs stay byte-identical under faults.
            index = len(iterations)
            spike = injector.iteration_spike(index) if injector is not None else None
            stall = injector.iteration_stall(index) if injector is not None else 0

            # Iteration memoization: KV bucketing makes batch compositions
            # repeat within (and across) runs, and the merged schedule is a
            # pure function of the composition -- so a repeated composition
            # replays the recorded outcome instead of re-merging and
            # re-scheduling.  Disabled alongside the timing cache: the cold
            # path must measure real work.
            memo = memo_table if cache.enabled and spike is None else None
            key = (
                self._memo_key(contexts, active, units, penalties)
                if memo is not None
                else None
            )
            outcome = memo.get(key) if memo is not None else None
            replayed = outcome is not None
            if outcome is None:
                label = f"serve:{trace.name}#{index}"
                with phase("serving.iteration", index=index, batch=len(active)):
                    if recorder is not None:
                        marker = recorder.mark()
                        with recorder.time_offset(now):
                            outcome = self._execute_iteration(
                                trace, active, contexts, units, label=label,
                                duration_scale=spike if spike is not None else 1.0,
                            )
                        if key is not None:
                            span_shapes[key] = recorder.capture(marker, base=now)
                    else:
                        outcome = self._execute_iteration(
                            trace, active, contexts, units, label=label,
                            duration_scale=spike if spike is not None else 1.0,
                        )
                if memo is not None:
                    memo[key] = outcome
                memo_stats["misses"] += 1
                cache_stats["hits"] += outcome.cache_hits
                cache_stats["misses"] += outcome.cache_misses
                horizon = 1
            else:
                # Epoch extrapolation: on a memo hit with an empty queue, no
                # pending penalties and no stall, the composition provably
                # recurs -- the control plane is a no-op at every boundary
                # until the first transient (soonest finish, KV-bucket
                # crossing, next arrival, or injected fault), and every
                # per-iteration quantity is constant.  The horizon is the
                # exact count of such iterations; covering them in one
                # arithmetic step is what turns steady traffic into O(1)
                # epochs, mirroring execute_flash_loop's KV-tile
                # extrapolation one level down.
                horizon = 1
                span = outcome.span_cycles
                if (
                    compress
                    and stall == 0
                    and not queued
                    and span > 0
                    and not any(penalties)
                ):
                    horizon = epoch_horizon(
                        [s.request.decode_steps - s.steps_done for s in active],
                        [
                            context - s.request.context_at(s.steps_done) + 1
                            for s, context in zip(active, contexts)
                        ],
                        span,
                        now,
                        pending[pend_i].arrival_cycle if pend_i < n_pending else None,
                    )
                    if injector is not None and horizon > 1:
                        horizon = 1 + clean_fault_run(injector, index + 1, horizon - 1)
                memo_stats["hits"] += horizon
                # Replaying the outcome skips the per-kernel cache probes the
                # execution would have performed (all hits on a warm cache);
                # credit them so memoized and non-memoized runs report the
                # same lookup totals.
                lookups = horizon * outcome.cache_lookups
                cache.credit_hits(lookups)
                cache_stats["hits"] += lookups
                if horizon == 1 and recorder is not None:
                    shape = span_shapes.get(key)
                    if shape is not None:
                        recorder.replay(shape, base=now)
                    else:
                        for resource, busy in outcome.resource_busy:
                            recorder.add_span(
                                "epoch (memoized)",
                                process=UNITS_PROCESS,
                                track=resource,
                                start=now,
                                duration=outcome.span_cycles,
                                category="epoch",
                                args={
                                    "busy_cycles": busy,
                                    "kernels": outcome.kernel_count,
                                },
                            )

            # Episode-template learning: start on the first iteration of a
            # request serving alone from its arrival boundary, keep
            # recording while the solo run stays undisturbed, abort on any
            # deviation.  Epoch hits record their whole run in one segment.
            if learn_key is not None:
                if (
                    len(active) == 1
                    and active[0].request.request_id == learn_rid
                    and key is not None
                    and stall == 0
                    and not queued
                    and penalties[0] == 0
                ):
                    learn_record(outcome, horizon)
                else:
                    learn_abort()
            elif (
                episodes is not None
                and len(active) == 1
                and not queued
                and key is not None
                and stall == 0
                and penalties[0] == 0
                and active[0].steps_done == 0
                and active[0].admitted_cycle == active[0].request.arrival_cycle
                and now == active[0].request.arrival_cycle
            ):
                candidate = self._episode_key(trace, active[0].request)
                if candidate not in episodes:
                    learn_key = candidate
                    learn_rid = active[0].request.request_id
                    learn_record(outcome, horizon)

            if horizon >= 2:
                # Whole-epoch bookkeeping, byte-identical to running the
                # horizon's iterations one by one: integer quantities
                # advance by exact multiples, energy replays the identical
                # sequential float sum (accumulate_energy), and the record
                # stays compressed in the timeline.
                for state, end in zip(active, outcome.entry_end_cycles):
                    if state.first_token_cycle is None:
                        state.first_token_cycle = now + end
                    state.steps_done += horizon
                    if state.steps_done == state.request.decode_steps:
                        state.finish_cycle = now + (horizon - 1) * span + end
                        finished[state.request.request_id] = state
                if learn_key is not None and active[0].finish_cycle is not None:
                    learn_finalize(active[0])
                if recorder is not None:
                    recorder.add_span(
                        f"epoch x{horizon}",
                        process=SCHEDULER_PROCESS,
                        track="iterations",
                        start=now,
                        duration=horizon * span,
                        category="epoch",
                        args={
                            "batch": len(active),
                            "requests": [s.request.request_id for s in active],
                            "iterations": horizon,
                            "span_cycles": span,
                            "memo": "extrapolated",
                            "kernels": horizon * outcome.kernel_count,
                        },
                    )
                    for resource, busy in outcome.resource_busy:
                        recorder.add_span(
                            "epoch (extrapolated)",
                            process=UNITS_PROCESS,
                            track=resource,
                            start=now,
                            duration=horizon * span,
                            category="epoch",
                            args={
                                "busy_cycles": horizon * busy,
                                "kernels": horizon * outcome.kernel_count,
                            },
                        )
                iterations.append(
                    EpochRecord(
                        index=index,
                        start_cycle=now,
                        span_cycles=span,
                        count=horizon,
                        request_ids=[s.request.request_id for s in active],
                    )
                )
                serving_cycles += horizon * span
                kernel_count += horizon * outcome.kernel_count
                energy_uj = accumulate_energy_scalar(
                    energy_uj, outcome.energy_uj, horizon
                )
                for resource, busy in outcome.resource_busy:
                    resource_busy[resource] = (
                        resource_busy.get(resource, 0) + horizon * busy
                    )
                epoch_stats["epochs"] += 1
                epoch_stats["extrapolated_iterations"] += horizon
                now += horizon * span
                active = [state for state in active if state.finish_cycle is None]
                continue

            # The iteration's effective span: the merged schedule's makespan,
            # stretched by any re-admission penalty serialized in front of a
            # request's step, plus an injected stall.  All zero on the
            # default path, where effective == outcome.span_cycles exactly.
            effective_span = outcome.span_cycles
            for state, end in zip(active, outcome.entry_end_cycles):
                if state.pending_penalty:
                    effective_span = max(effective_span, end + state.pending_penalty)
            effective_span += stall

            for state, end in zip(active, outcome.entry_end_cycles):
                done_at = now + state.pending_penalty + end
                if recorder is not None:
                    recorder.add_span(
                        f"step {state.steps_done}",
                        process=REQUESTS_PROCESS,
                        track=state.request.request_id,
                        start=now,
                        duration=state.pending_penalty + end,
                        category="decode_step",
                        args={"iteration": index},
                    )
                state.steps_done += 1
                state.pending_penalty = 0
                if state.first_token_cycle is None:
                    state.first_token_cycle = done_at
                if state.steps_done == state.request.decode_steps:
                    state.finish_cycle = done_at
                    finished[state.request.request_id] = state
            # A surviving recording implies the learner is active[0] (any
            # batch growth or identity change aborted it above).
            if learn_key is not None and active[0].finish_cycle is not None:
                learn_finalize(active[0])

            if recorder is not None:
                recorder.add_span(
                    f"iteration {index}",
                    process=SCHEDULER_PROCESS,
                    track="iterations",
                    start=now,
                    duration=effective_span,
                    category="iteration",
                    args={
                        "batch": len(active),
                        "requests": [state.request.request_id for state in active],
                        "memo": "replay" if replayed else ("miss" if memo is not None else "off"),
                        "kernels": outcome.kernel_count,
                    },
                )
                if stall:
                    recorder.add_span(
                        "stall (fault)",
                        process=SCHEDULER_PROCESS,
                        track="iterations",
                        start=now + effective_span - stall,
                        duration=stall,
                        category="fault",
                        args={"iteration": index},
                    )
            iterations.append(
                IterationRecord(
                    index=index,
                    start_cycle=now,
                    span_cycles=effective_span,
                    batch=len(active),
                    request_ids=[state.request.request_id for state in active],
                )
            )
            epoch_stats["executed_iterations"] += 1
            serving_cycles += effective_span
            kernel_count += outcome.kernel_count
            energy_uj += outcome.energy_uj
            for resource, busy in outcome.resource_busy:
                resource_busy[resource] = resource_busy.get(resource, 0) + busy

            now += effective_span
            active = [state for state in active if state.finish_cycle is None]

        specs = trace.sorted_requests()
        requests: List[RequestResult] = []
        zero_wait = 0
        queue_waits: List[int] = []
        meta_pos = 0
        position = 0
        total_requests = len(specs)
        while position < total_requests:
            if meta_pos < len(episode_meta) and episode_meta[meta_pos][0] == position:
                # Episode-replayed requests: ``pending`` preserved trace
                # order, so each run covers a contiguous span of the sorted
                # stream and its stamps are pure offsets from the arrival.
                start, count, template = episode_meta[meta_pos]
                meta_pos += 1
                ttft = template.first_token_end
                latency = template.finish_offset
                zero_wait += count
                run_specs = specs[start : start + count]
                head = run_specs[0]
                # Prototype with every run-constant field resolved; the
                # per-request loop below only patches the five that vary.
                # This is the per-request hot path of a compressed
                # million-request run, hence the dataclass-__init__ bypass.
                proto = {
                    "request_id": "",
                    "arrival_cycle": 0,
                    "admitted_cycle": 0,
                    "first_token_cycle": 0,
                    "finish_cycle": 0,
                    "prompt_len": head.prompt_len,
                    "decode_steps": head.decode_steps,
                    "model_family": head.model.family,
                    "disposition": None,
                    "slo_class": None,
                    "preemptions": 0,
                    "terminal_cycle": None,
                }
                disposition_for: Dict[object, Optional[str]] = {}
                new_result = RequestResult.__new__
                append = requests.append
                for request in run_specs:
                    arrival = request.arrival_cycle
                    finish = arrival + latency
                    fields = dict(proto)
                    fields["request_id"] = request.request_id
                    fields["arrival_cycle"] = arrival
                    fields["admitted_cycle"] = arrival
                    fields["first_token_cycle"] = arrival + ttft
                    fields["finish_cycle"] = finish
                    if control_active:
                        # ttft/latency (and decode budget) are constant
                        # across the run, so the verdict only varies with
                        # the SLO class.
                        if request.slo in disposition_for:
                            disposition = disposition_for[request.slo]
                        else:
                            disposition = evaluate_disposition(request, ttft, latency)
                            disposition_for[request.slo] = disposition
                        fields["disposition"] = disposition
                        fields["slo_class"] = (
                            request.slo.name if request.slo is not None else None
                        )
                        fields["terminal_cycle"] = finish
                    result = new_result(RequestResult)
                    result.__dict__ = fields
                    append(result)
                position += count
                continue
            request = specs[position]
            position += 1
            rid = request.request_id
            slo_name = request.slo.name if request.slo is not None else None
            if rid in finished:
                state = finished[rid]
                if state.admitted_cycle is not None:
                    queue_waits.append(state.admitted_cycle - request.arrival_cycle)
                disposition = (
                    evaluate_disposition(
                        request,
                        state.first_token_cycle - request.arrival_cycle,
                        state.finish_cycle - request.arrival_cycle,
                    )
                    if control_active
                    else None
                )
                requests.append(
                    RequestResult(
                        request_id=rid,
                        arrival_cycle=request.arrival_cycle,
                        admitted_cycle=state.admitted_cycle,
                        first_token_cycle=state.first_token_cycle,
                        finish_cycle=state.finish_cycle,
                        prompt_len=request.prompt_len,
                        decode_steps=request.decode_steps,
                        model_family=request.model.family,
                        disposition=disposition,
                        slo_class=slo_name if control_active else None,
                        preemptions=state.preemptions,
                        terminal_cycle=state.finish_cycle if control_active else None,
                    )
                )
            else:
                entry, disposition, cycle = terminated[rid]
                if entry.admitted_cycle is not None:
                    queue_waits.append(entry.admitted_cycle - request.arrival_cycle)
                requests.append(
                    RequestResult(
                        request_id=rid,
                        arrival_cycle=request.arrival_cycle,
                        admitted_cycle=entry.admitted_cycle,
                        first_token_cycle=entry.first_token_cycle,
                        finish_cycle=None,
                        prompt_len=request.prompt_len,
                        decode_steps=request.decode_steps,
                        model_family=request.model.family,
                        disposition=disposition,
                        slo_class=slo_name,
                        preemptions=entry.preemptions,
                        terminal_cycle=cycle,
                    )
                )
        goodput: Optional[float] = None
        dispositions: Dict[str, int] = {}
        if control_active:
            dispositions = {name: 0 for name in DISPOSITIONS}
            for result in requests:
                dispositions[result.disposition] += 1
            goodput = dispositions["met"] / len(requests) if requests else 0.0
        if recorder is not None:
            # Request lifecycle timeline: a queue span (arrival to admission)
            # followed by a decode span (admission to finish) that nests the
            # per-step spans recorded during the loop, one track per request.
            # Shed/timed-out requests get a single terminal span instead.
            for request in requests:
                if not request.finished:
                    recorder.add_span(
                        request.disposition,
                        process=REQUESTS_PROCESS,
                        track=request.request_id,
                        start=request.arrival_cycle,
                        duration=request.terminal_cycle - request.arrival_cycle,
                        category=request.disposition,
                        args={"preemptions": request.preemptions},
                    )
                    continue
                recorder.add_span(
                    "queue",
                    process=REQUESTS_PROCESS,
                    track=request.request_id,
                    start=request.arrival_cycle,
                    duration=request.queueing_cycles,
                    category="queue",
                )
                recorder.add_span(
                    "decode",
                    process=REQUESTS_PROCESS,
                    track=request.request_id,
                    start=request.admitted_cycle,
                    duration=request.finish_cycle - request.admitted_cycle,
                    category="decode",
                    args={
                        "model": request.model_family,
                        "prompt_len": request.prompt_len,
                        "decode_steps": request.decode_steps,
                        "ttft_cycles": request.ttft_cycles,
                    },
                )
        return ServingRunResult(
            trace=trace.name,
            design=self.design,
            heterogeneous=self.heterogeneous,
            context_bucket=trace.context_bucket,
            total_cycles=now,
            serving_cycles=serving_cycles,
            requests=requests,
            iterations=iterations,
            kernel_count=kernel_count,
            energy_uj=energy_uj,
            resource_busy=resource_busy,
            timing_cache=cache_stats,
            iteration_memo=memo_stats,
            epochs=epoch_stats,
            metrics=_serving_metrics(
                requests, iterations, now, serving_cycles, kernel_count,
                resource_busy, cache_stats, memo_stats,
                control_active=control_active,
                goodput=goodput,
                dispositions=dispositions,
                preemption_count=preemption_count,
                epoch_stats=epoch_stats,
                queue_waits=(zero_wait, queue_waits),
            ),
            policy=self.policy.name,
            control_active=control_active,
            goodput=goodput,
            dispositions=dispositions,
            preemption_count=preemption_count,
            fault_plan=faults if injector is not None else None,
        )

    def isolated_step_spans(
        self, request: RequestSpec, context_bucket: int
    ) -> List[int]:
        """Each decode step's makespan when the request runs entirely alone.

        Uses the same per-step schedules (and KV bucketing) as the batched
        run, so the comparison isolates *contention and overlap* rather than
        differing kernel shapes.  The sum of the spans is the request's
        isolated latency; it lower-bounds the latency any batched run can
        give the request, and summing across requests upper-bounds the
        merged serving span (both enforced by the property suite).
        """
        spans = []
        for step in range(request.decode_steps):
            context = bucket_context(request.context_at(step), context_bucket)
            # Alone, a request always gets the full-size unit: the isolated
            # baseline is best-effort single-request serving, not a replay of
            # whatever unit the batched run happened to pin it to.
            schedule = self.step_schedule(request, context, MATRIX_RESOURCE)
            spans.append(execute_schedule(schedule).total_cycles)
        return spans

    def isolated_cycles(self, request: RequestSpec, context_bucket: int) -> int:
        """The request's isolated end-to-end decode latency (sum of step spans)."""
        return sum(self.isolated_step_spans(request, context_bucket))


def run_serving(
    trace: Union[str, ServingTrace],
    design: Union[str, DesignKind, DesignConfig] = DesignKind.VIRGO,
    heterogeneous: bool = False,
    dtype: DataType = DataType.FP16,
    iteration_memo: bool = True,
    policy: Union[str, SchedulingPolicy, None] = None,
    kv_budget: Optional[int] = None,
    faults: Union[str, FaultPlan, None] = None,
    fault_seed: int = 0,
    epoch_compression: bool = True,
) -> ServingRunResult:
    """Continuous-batch a serving trace on one design (zoo name or explicit).

    ``iteration_memo=False`` disables the process-wide iteration memo (every
    iteration merges and schedules afresh); results are identical either way
    -- the memo is a pure accelerator, enforced by the property suite.
    ``policy`` selects the admission policy (``fcfs`` / ``kv-budget`` /
    ``preemptive-slo``), ``kv_budget`` overrides the design's HBM capacity
    for the budgeted policies, and ``faults`` injects a seeded
    :class:`~repro.faults.FaultPlan` (or an ``--inject``-style spec string,
    parsed with ``fault_seed``).
    """
    if isinstance(faults, str):
        faults = FaultPlan.parse(faults, seed=fault_seed)
    scheduler = ServingScheduler(
        design,
        heterogeneous=heterogeneous,
        dtype=dtype,
        iteration_memo=iteration_memo,
        policy=policy,
        kv_budget=kv_budget,
        epoch_compression=epoch_compression,
    )
    with phase("serving.run", trace=trace if isinstance(trace, str) else trace.name):
        return scheduler.run(trace, faults=faults)
