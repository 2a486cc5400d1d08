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
3. the per-request steps are interleaved by position and list-scheduled
   as one kernel schedule -- each step compiled once into a
   :class:`~repro.workloads.lowering.StepProgram` and run by
   :func:`~repro.workloads.lowering.execute_step_programs`, the executor
   ``run_model`` runs whole models on -- so independent requests overlap
   across the matrix units and SIMT cores exactly the way MoE expert
   chains already do within a layer;
4. requests that completed their decode budget retire; the clock advances by
   the iteration makespan and the loop repeats until the trace drains.

Every per-kernel simulation flows through the process-wide timing cache and
the O(1) kernel tile-loop schedulers, lowered per-step schedules
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
``fcfs`` policy admits everything unconditionally, while ``kv-budget`` and
``preemptive-slo`` trade per-request SLO classes
(:class:`~repro.workloads.control.SloClass`) against an HBM budget.  Every
request lands in exactly one disposition -- ``met`` / ``violated`` /
``shed`` / ``timed_out``; a finished request without an SLO class is
``met`` -- and the fraction of arrivals meeting their SLO is the run's
goodput.  A seeded :class:`~repro.faults.FaultPlan` can
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
from bisect import insort
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.config.presets import DesignKind, make_design
from repro.config.soc import DataType, DesignConfig
from repro.faults import FaultInjector, FaultPlan
from repro.kernels.heterogeneous import small_unit_stride
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
    LoweredModel,
    StepProgram,
    compile_lowered,
    execute_step_programs,
    lower_graph,
    lowered_model,
    pin_matrix_unit,
)
from repro.workloads.models import ModelSpec, build_model, resolve_trace, scaled_spec


_INF = math.inf

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
    from the stamps they are defined by.  Stamps can be ``None`` -- a shed
    request was never admitted and has no finish -- and ``disposition``
    records the terminal state of every request.
    """

    request_id: str
    arrival_cycle: int
    admitted_cycle: Optional[int]
    first_token_cycle: Optional[int]
    finish_cycle: Optional[int]
    prompt_len: int
    decode_steps: int
    model_family: str
    #: One of :data:`DISPOSITIONS`.
    disposition: str
    slo_class: Optional[str]
    preemptions: int
    #: Cycle at which the request left the system: its finish, or when it
    #: was shed or timed out.
    terminal_cycle: int

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
        return {
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
            "disposition": self.disposition,
            "slo_class": self.slo_class,
            "preemptions": self.preemptions,
            "terminal_cycle": self.terminal_cycle,
        }


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
    #: Per-iteration records: an
    #: :class:`~repro.workloads.epochs.IterationTimeline` holding
    #: extrapolated runs compressed; it behaves exactly like a list of
    #: records (``len``, iteration, indexing), expanding them lazily.
    iterations: IterationTimeline
    kernel_count: int
    #: Active energy of every iteration, in whole femtojoules.
    energy_fj: int
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
    #: Fraction of arrivals whose SLO was met.
    goodput: float = 0.0
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
    def energy_uj(self) -> float:
        return self.energy_fj / 1e9

    @property
    def iteration_count(self) -> int:
        return len(self.iterations)

    @property
    def decode_steps_executed(self) -> int:
        return self.iterations.decode_steps

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
        return {
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
            "policy": self.policy,
            "goodput": self.goodput,
            "dispositions": dict(self.dispositions),
            "preemption_count": self.preemption_count,
            "faults": self.fault_plan.to_dict() if self.fault_plan else None,
        }


@dataclass
class _InFlight:
    """One request's serving state, from arrival to its terminal state.

    The same record waits in the admission queue, decodes, is evicted and
    re-admitted, and in a fleet travels between replicas as
    ``_FleetRequest.progress``.  ``enqueued_cycle`` is its latest entry into
    a queue and ``evicted_cycle`` its latest eviction, until re-admission.
    ``preempted`` marks KV state that is not resident (evicted, or lost with
    a crashed fleet replica): admission charges its reload cost.
    ``admitted_cycle`` is the *first* admission (queueing delay measures
    the initial wait, not re-admissions); ``resident_since`` is the latest
    (re-)admission, the preemption policies' eviction-ordering key.
    ``pending_penalty`` is the KV re-read cost a just-re-admitted request
    pays before its next step completes -- consumed by the first iteration
    after re-admission.  ``reload_cycles`` sums every such cost the request
    has paid so far (a fleet reports it as the re-prefill cost of failover).
    """

    request: RequestSpec
    admitted_cycle: Optional[int] = None
    enqueued_cycle: int = 0
    steps_done: int = 0
    first_token_cycle: Optional[int] = None
    finish_cycle: Optional[int] = None
    resident_since: int = 0
    pending_penalty: int = 0
    preempted: bool = False
    evicted_cycle: Optional[int] = None
    preemptions: int = 0
    reload_cycles: int = 0

    @property
    def prefix(self) -> str:
        return f"{self.request.request_id}/"


@dataclass
class _Step:
    """A decode step's design-free lowering and, once executed, its
    compiled program."""

    lowered: LoweredModel
    program: Optional[StepProgram] = None


@dataclass(frozen=True, eq=False)
class _IterationOutcome:
    """Everything a continuous-batching iteration contributes to the run.

    Compared and hashed by identity: a memo hit returns the object the miss
    stored, which keys captured trace shapes and merges episode segments.

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
    #: Active energy in whole femtojoules.
    energy_fj: int
    resource_busy: Tuple[Tuple[str, int], ...]
    cache_hits: int
    cache_misses: int
    #: One iteration; an :class:`EpisodeTemplate` spans ``iterations`` of
    #: them.  A class constant, not a field, so pickles do not change.
    iterations = 1

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
    stepper: "_Stepper",
    queue_waits: Tuple[int, List[int]],
    goodput: float,
    dispositions: Dict[str, int],
) -> MetricsRegistry:
    """The unified metrics registry for one serving run.

    Everything non-diagnostic is a pure function of the run's outcome
    (requests, iterations, busy cycles) and therefore identical whether
    iterations executed or replayed from the memo -- the property that keeps
    ``to_dict`` byte-stable across cache states.  Cache and memo activity is
    process-dependent and registered diagnostic.  ``queue_waits`` is the
    result merge's bulk count of known-zero waits (episode-replayed requests
    are admitted on arrival) plus the individually tracked waits.
    """
    timeline = stepper.timeline
    resource_busy = stepper.resource_busy
    metrics = MetricsRegistry()
    metrics.counter("serving.requests").inc(len(requests))
    metrics.counter("serving.iterations").inc(len(timeline))
    metrics.counter("serving.decode_steps").inc(timeline.decode_steps)
    metrics.counter("serving.kernels").inc(stepper.kernel_count)
    metrics.gauge("serving.makespan_cycles").set(stepper.now)
    metrics.gauge("serving.serving_cycles").set(stepper.serving_cycles)
    # Histogram snapshots are order-insensitive (count/total/min/max), so
    # bulk observation over compressed segments reproduces the per-record
    # loop's snapshot exactly without expanding extrapolated runs.
    batch = metrics.histogram("serving.batch")
    for value, count in timeline.batch_observations():
        batch.observe_many(value, count)
    queueing = metrics.histogram("serving.queue_wait_cycles")
    zero_count, waits = queue_waits
    queueing.observe_many(0, zero_count)
    for wait in waits:
        queueing.observe(wait)
    metrics.gauge("serving.goodput").set(goodput)
    for disposition in DISPOSITIONS:
        metrics.counter(f"serving.dispositions.{disposition}").inc(dispositions[disposition])
    metrics.counter("serving.preemptions").inc(stepper.preemption_count)
    for resource, busy in sorted(resource_busy.items()):
        metrics.counter(f"unit.busy_cycles.{resource}").inc(busy)
    occupancy = occupancy_percent(resource_busy, stepper.serving_cycles)
    for resource, percent in occupancy.items():
        metrics.gauge(f"unit.occupancy_percent.{resource}").set(percent)
    memo_stats, cache_stats, epoch_stats = (
        stepper.memo_stats, stepper.cache_stats, stepper.epoch_stats
    )
    metrics.counter("iteration_memo.hits", diagnostic=True).inc(memo_stats["hits"])
    metrics.counter("iteration_memo.misses", diagnostic=True).inc(memo_stats["misses"])
    metrics.counter("timing_cache.hits", diagnostic=True).inc(cache_stats["hits"])
    metrics.counter("timing_cache.misses", diagnostic=True).inc(cache_stats["misses"])
    metrics.counter("epoch.runs", diagnostic=True).inc(
        int(epoch_stats["epochs"]) + int(epoch_stats["episode_runs"])
    )
    metrics.counter("epoch.extrapolated_iterations", diagnostic=True).inc(
        int(epoch_stats["extrapolated_iterations"])
    )
    return metrics


class ServingScheduler:
    """Iteration-level continuous batching on one design configuration.

    The scheduler is reusable across traces; it keeps each step's
    lowering per (request model, bucketed context, unit), each with the
    step program compiled from it on first execution, so a repeated step --
    and a repeated *request* with the same network -- costs neither
    lowering nor kernel lookups.  Lowerings come from the process-wide
    lowering memo, so fleet replicas and later schedulers share them.
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
        self._unit_stride = small_unit_stride(self.design) if heterogeneous else 0

    def iteration_units(
        self,
        trace: ServingTrace,
        active: List[_InFlight],
        contexts: List[int],
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
        ``contexts`` holds the per-request bucketed contexts.
        """
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
                self._step(state.request, context, MATRIX_RESOURCE).lowered.ideal_mac_cycles(
                    self.design
                ),
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
        """The one-decode-step schedule at a bucketed context, lowered afresh
        (runs read the step's memoized lowering, :meth:`_step`).

        ``unit`` pins every matrix-unit kernel of the step onto one matrix
        unit (requests, not kernels, are the parallelism grain in serving);
        flash/SIMT kernels are unaffected.
        """
        spec = scaled_spec(request.model, phase="decode", context_len=context)
        schedule = lower_graph(
            build_model(spec), self.design, heterogeneous=self.heterogeneous, dtype=self.dtype
        )
        return pin_matrix_unit(schedule, unit) if self.heterogeneous else schedule

    def _step(self, request: RequestSpec, context: int, unit: str) -> _Step:
        # Keyed by the request's own model object: its hash is pinned, so a
        # hit never rebuilds the decode spec.
        key = (request.model, context, unit)
        step = self._step_schedules.get(key)
        if step is None:
            spec = scaled_spec(request.model, phase="decode", context_len=context)
            pin = unit if self.heterogeneous else None
            lowered = lowered_model(spec, self.design, self.heterogeneous, self.dtype, pin)
            step = self._step_schedules[key] = _Step(lowered)
        return step

    def _step_programs(
        self, requests: Sequence[RequestSpec], contexts: List[int], units: List[str]
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
        for request, context, unit in zip(requests, contexts, units):
            step = self._step(request, context, unit)
            program = step.program
            if program is None:
                ideal = step.lowered.ideal_mac_cycles(self.design)
                program = compile_lowered(step.lowered, self.design, ideal)
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
        cache = timing_cache()
        hits, misses = cache.hits, cache.misses
        with phase("merge", batch=len(active)):
            programs = self._step_programs(
                [state.request for state in active], contexts, units
            )
        with phase("list_schedule", model=label):
            placed = execute_step_programs(
                programs, [state.prefix for state in active], duration_scale=duration_scale
            )
        return _IterationOutcome(
            span_cycles=placed.total_cycles,
            entry_end_cycles=placed.row_ends,
            kernel_count=placed.kernel_count,
            energy_fj=placed.energy_fj,
            resource_busy=tuple(sorted(placed.resource_busy.items())),
            cache_hits=cache.hits - hits,
            cache_misses=cache.misses - misses,
        )

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

    def iteration_outcome(
        self,
        trace: ServingTrace,
        active: List[_InFlight],
        contexts: List[int],
        duration_scale: float = 1.0,
        start: int = 0,
        shapes: Optional[Dict[_IterationOutcome, CapturedSpans]] = None,
    ) -> Tuple[_IterationOutcome, bool]:
        """One continuous-batching iteration of ``active``: ``(outcome, replayed)``.

        The one probe of the process-wide iteration memo: replay the
        memoized outcome of the batch's composition (``contexts`` holds each
        request's bucketed KV context), or execute and memoize it.  The memo is bypassed while it is off or the timing cache is
        disabled (the cold path must measure real work), and in *both*
        directions for a scaled iteration (a latency spike or a slow
        replica): a clean replay would dodge the slowdown, and the slowed
        outcome must not leak into clean iterations.  Under a trace recorder
        executed kernel spans land at cycle ``start``, and a memoized miss
        captures them into ``shapes`` for replays of its outcome.
        """
        units = self.iteration_units(trace, active, contexts)
        cache = timing_cache()
        memo = (
            cache.namespace(_MEMO_NAMESPACE)
            if self.iteration_memo and duration_scale == 1.0 and cache.enabled
            else None
        )
        if memo is not None:
            key = self._memo_key(
                contexts, active, units, [state.pending_penalty for state in active]
            )
            outcome = memo.get(key)
            if outcome is not None:
                return outcome, True
        recorder = trace_recorder()
        with phase("serving.iteration", batch=len(active)):
            marker = recorder.mark() if recorder is not None else None
            with recorder.time_offset(start) if recorder is not None else nullcontext():
                outcome = self._execute_iteration(
                    trace, active, contexts, units, trace.name, duration_scale
                )
            if marker is not None and memo is not None and shapes is not None:
                shapes[outcome] = recorder.capture(marker, base=start)
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
        specs = trace.sorted_requests()
        stepper = _Stepper(
            self, trace, arrivals=specs, injector=injector, timeline=IterationTimeline()
        )
        stepper.advance(_INF)
        episode_meta = stepper.episode_meta
        recorder = stepper.recorder
        requests: List[RequestResult] = []
        dispositions = {name: 0 for name in DISPOSITIONS}
        zero_wait = 0
        queue_waits: List[int] = []
        meta_pos = 0
        position = 0
        total_requests = len(specs)
        while position < total_requests:
            if meta_pos < len(episode_meta) and episode_meta[meta_pos][0] == position:
                # Episode-replayed requests: each run covers a contiguous
                # span of the sorted stream, and its stamps are pure offsets
                # from the arrival.
                start, count, template = episode_meta[meta_pos]
                meta_pos += 1
                ttft = template.first_token_end
                latency = template.finish_offset
                zero_wait += count
                run_specs = specs[start : start + count]
                head = run_specs[0]
                # One prototype per SLO class with every run-constant field
                # resolved: ttft/latency (and decode budget) are constant
                # across the run, so the verdict only varies with the class.
                # The per-request loop below only patches the fields that
                # vary.  This is the per-request hot path of a compressed
                # million-request run, hence the dataclass-__init__ bypass.
                protos: Dict[object, Dict[str, object]] = {}
                new_result = RequestResult.__new__
                append = requests.append
                for request in run_specs:
                    arrival = request.arrival_cycle
                    finish = arrival + latency
                    proto = protos.get(request.slo)
                    if proto is None:
                        slo = request.slo
                        proto = protos[slo] = {
                            "request_id": "",
                            "arrival_cycle": 0,
                            "admitted_cycle": 0,
                            "first_token_cycle": 0,
                            "finish_cycle": 0,
                            "prompt_len": head.prompt_len,
                            "decode_steps": head.decode_steps,
                            "model_family": head.model.family,
                            "disposition": evaluate_disposition(request, ttft, latency),
                            "slo_class": slo.name if slo is not None else None,
                            "preemptions": 0,
                            "terminal_cycle": 0,
                        }
                    fields = dict(proto)
                    fields["request_id"] = request.request_id
                    fields["arrival_cycle"] = arrival
                    fields["admitted_cycle"] = arrival
                    fields["first_token_cycle"] = arrival + ttft
                    fields["finish_cycle"] = finish
                    fields["terminal_cycle"] = finish
                    result = new_result(RequestResult)
                    result.__dict__ = fields
                    append(result)
                if len(protos) == 1:
                    # One class: the whole run shares one verdict.
                    dispositions[proto["disposition"]] += count
                else:
                    for result in requests[-count:]:
                        dispositions[result.disposition] += 1
                position += count
                continue
            request = specs[position]
            position += 1
            rid = request.request_id
            state = stepper.finished.get(rid)
            if state is not None:
                finish = terminal = state.finish_cycle
                disposition = evaluate_disposition(
                    request,
                    state.first_token_cycle - request.arrival_cycle,
                    finish - request.arrival_cycle,
                )
            else:
                state, disposition, terminal = stepper.terminated[rid]
                finish = None
            if state.admitted_cycle is not None:
                queue_waits.append(state.admitted_cycle - request.arrival_cycle)
            dispositions[disposition] += 1
            requests.append(
                RequestResult(
                    request_id=rid,
                    arrival_cycle=request.arrival_cycle,
                    admitted_cycle=state.admitted_cycle,
                    first_token_cycle=state.first_token_cycle,
                    finish_cycle=finish,
                    prompt_len=request.prompt_len,
                    decode_steps=request.decode_steps,
                    model_family=request.model.family,
                    disposition=disposition,
                    slo_class=request.slo.name if request.slo is not None else None,
                    preemptions=state.preemptions,
                    terminal_cycle=terminal,
                )
            )
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
            total_cycles=stepper.now,
            serving_cycles=stepper.serving_cycles,
            requests=requests,
            iterations=stepper.timeline,
            kernel_count=stepper.kernel_count,
            energy_fj=stepper.energy_fj,
            resource_busy=stepper.resource_busy,
            timing_cache=stepper.cache_stats,
            iteration_memo=stepper.memo_stats,
            epochs=stepper.epoch_stats,
            metrics=_serving_metrics(
                requests, stepper, (zero_wait, queue_waits), goodput, dispositions
            ),
            policy=self.policy.name,
            goodput=goodput,
            dispositions=dispositions,
            preemption_count=stepper.preemption_count,
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
        merged serving span (both enforced by the property suite).  Each step
        runs as a one-row batch of its compiled program.
        """
        spans = []
        for step in range(request.decode_steps):
            context = bucket_context(request.context_at(step), context_bucket)
            # Alone, a request always gets the full-size unit: the isolated
            # baseline is best-effort single-request serving, not a replay of
            # whatever unit the batched run happened to pin it to.
            programs = self._step_programs([request], [context], [MATRIX_RESOURCE])
            spans.append(execute_step_programs(programs, ("",)).total_cycles)
        return spans

    def isolated_cycles(self, request: RequestSpec, context_bucket: int) -> int:
        """The request's isolated end-to-end decode latency (sum of step spans)."""
        return sum(self.isolated_step_spans(request, context_bucket))


@dataclass(slots=True)
class _Run:
    """One outcome applied ``count`` times back to back from ``start``.

    An iteration run repeats an :class:`_IterationOutcome`; ``effective`` is
    the span each iteration occupies: the outcome's span, stretched by
    admission penalties and an injected ``stall`` -- which only a count-1
    run can carry, so an epoch's iterations all span exactly the outcome's
    span.  An episode run repeats an :class:`EpisodeTemplate` once for each
    of ``count`` requests arriving at ``arrivals`` (``None`` for an
    iteration run); ``effective`` is the template's span.
    """

    start: int
    outcome: Union[_IterationOutcome, EpisodeTemplate]
    effective: int
    count: int
    replayed: bool
    stall: int
    arrivals: Optional[np.ndarray] = None


class _Stepper:
    """The one continuous-batching engine behind ``serve`` and each fleet replica.

    A stepper owns a clock (``now``), the admission queue its scheduler's
    :class:`SchedulingPolicy` hooks manage, the in-flight batch and the
    :class:`_Run` in flight.  Requests reach it as a known arrival stream
    (``serve``) or one :meth:`offer` at a time (a fleet replica) -- never
    both.  Each run comes from the first fast path that applies: episode
    replay (arrival streams only), an epoch on a memo hit, a memo replay,
    or exact execution.  :meth:`_apply` lands every run, an episode run
    included, and is the only code that adds to the run totals.
    :meth:`advance` retires the runs that end by a barrier and starts the
    next; :meth:`cut` splits the run in flight before a router event
    changes the stepper; :meth:`abort` discards it when the replica
    crashes.
    """

    def __init__(
        self,
        scheduler: ServingScheduler,
        trace: ServingTrace,
        *,
        arrivals: Sequence[RequestSpec] = (),
        injector: Optional[FaultInjector] = None,
        process: str = SCHEDULER_PROCESS,
        timeline: Optional[IterationTimeline] = None,
    ) -> None:
        self.scheduler = scheduler
        self.trace = trace
        self.ctx = PolicyContext(
            design=scheduler.design,
            dtype=scheduler.dtype,
            trace=trace,
            kv_budget_bytes=scheduler.design.soc.dram.hbm_capacity_bytes,
        )
        self.injector = injector
        #: Trace process of the iteration spans ("scheduler", or a replica's).
        self.process = process
        #: Per-iteration records, kept only when a result needs them.
        self.timeline = timeline
        self.recorder = trace_recorder()
        self.cache = timing_cache()
        self.arrivals = arrivals
        self.arrived = 0
        self.offered: List[_InFlight] = []
        self.queued: List[_InFlight] = []
        self.active: List[_InFlight] = []
        self.finished: Dict[str, _InFlight] = {}
        self.terminated: Dict[str, Tuple[_InFlight, str, int]] = {}
        self.run: Optional[_Run] = None
        #: Whether a request admitted at the current boundary pays a KV
        #: reload penalty (the next iteration is then never an epoch).
        self.penalized = False
        self.now = 0
        #: Duration multiplier of every iteration: a fleet replica's slow
        #: window.  A scaled iteration bypasses the memo, so never an epoch.
        self.scale = 1.0
        # The accounting sink.  ``iterations`` also indexes fault draws, so
        # it counts episode-replayed iterations too.
        self.iterations = 0
        self.aborted = 0
        self.serving_cycles = 0
        self.kernel_count = 0
        #: Active energy in whole femtojoules.
        self.energy_fj = 0
        self.resource_busy: Dict[str, int] = {}
        self.preemption_count = 0
        self.memo_stats = {"hits": 0, "misses": 0}
        self.cache_stats = {"hits": 0, "misses": 0}
        # Epoch compression rides on the iteration memo (an epoch is a proven
        # run of memo hits).  Episode replay also needs the whole arrival
        # stream ahead and no fault injector: faults are drawn per iteration
        # index, so an epoch can probe ahead for a clean run
        # (clean_fault_run) but whole-request replay cannot skip the draw.
        # With episodes on, every iteration probes the memo.
        self.compress = scheduler.epoch_compression and scheduler.iteration_memo
        self.epoch_stats = fresh_epoch_stats(self.compress)
        self.episodes = (
            _episode_templates()
            if self.compress and injector is None and arrivals and self.cache.enabled
            else None
        )
        # Episode replay bookkeeping: (first arrival index, request count,
        # template) per run, merged positionally with the exact results.
        self.episode_meta: List[Tuple[int, int, EpisodeTemplate]] = []
        # Numpy (arrivals, gaps, shape ids) over the stream, built lazily.
        self._stream: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None
        # Episode-template learning: while exactly one request serves alone
        # from its arrival boundary, record its (outcome, run length)
        # segments; any deviation aborts the recording.
        self._learn_key: Optional[tuple] = None
        self._learn_rid: Optional[str] = None
        self._learn_segments: List[list] = []
        # Iteration-relative kernel span shapes captured at memo-miss time,
        # keyed by the outcome.  The merged placement is a pure function of
        # the composition, so a memo hit replays the captured shape shifted
        # to its start.  Compositions warmed before tracing started have no
        # shape and fall back to synthesized per-unit spans.
        self.shapes: Dict[_IterationOutcome, CapturedSpans] = {}

    # -- Driving ---------------------------------------------------------

    def offer(self, entry: _InFlight) -> None:
        """Hand the stepper one request from outside (a fleet dispatch).

        It joins at the first iteration boundary at or after its
        ``enqueued_cycle``; same-cycle offers join in request-id order.
        """
        insort(self.offered, entry, key=lambda e: (e.enqueued_cycle, e.request.request_id))

    def advance(self, limit: Union[int, float]) -> None:
        """Retire every run that ends by ``limit`` and start those before it.

        Runs start only at boundaries before ``limit``: an iteration that
        starts at cycle ``t`` is computed after every router event at ``t``.
        The run crossing ``limit`` stays in flight, untouched, until a later
        call or a :meth:`cut`.
        """
        while True:
            run = self.run
            if run is not None:
                if run.start + run.count * run.effective > limit:
                    return
                self.run = None
                self._apply(run, run.count)
                continue
            if self.now >= limit:
                return
            if not self.active and not self.queued:
                arrival = self._next_arrival()
                if arrival is None or arrival >= limit:
                    return
                if self.episodes is not None and arrival >= self.now:
                    run = self._episode_run()
                    if run is not None:
                        self._apply(run, run.count)
                        continue
                if arrival > self.now:
                    self.now = arrival
            self._admit()
            if self.active:
                self._start_run()

    def cut(self, at: int) -> None:
        """Split the run in flight before a router event at ``at`` changes this stepper.

        The ``(at - start) // effective`` iterations that have ended by
        ``at`` retire now.  The one crossing ``at`` stays in flight alone
        (iterations are atomic); one that would start exactly at ``at`` is
        dropped, to be computed after the event.
        """
        run = self.run
        if run is None or run.count == 1:
            return
        done = (at - run.start) // run.effective
        if done:
            self._apply(run, done)
            run.start += done * run.effective
        run.count = 1
        if run.start == at:
            self.run = None

    def abort(self, at: int) -> Tuple[List[_InFlight], List[_InFlight]]:
        """A crash at ``at``: discard the run in flight and hand back every request.

        After a :meth:`cut`, at most the crossing iteration is lost: only its
        memo probe is accounted.  Returns the in-flight states and the
        requests still waiting to join, each the request's one live record.
        """
        run = self.run
        if run is not None:
            self.run = None
            self._credit(run.outcome, run.replayed, 1)
            self.aborted += 1
        states = self.active
        waiting = self.queued + self.offered
        self.active, self.queued, self.offered = [], [], []
        self.now = max(self.now, at)
        return states, waiting

    # -- One boundary ----------------------------------------------------

    def _next_arrival(self) -> Optional[int]:
        """Cycle of the next request known to reach this stepper, if any."""
        if self.arrived < len(self.arrivals):
            return self.arrivals[self.arrived].arrival_cycle
        if self.offered:
            return self.offered[0].enqueued_cycle
        return None

    def _admit(self) -> None:
        """Enqueue every request that has arrived, then shed, evict and admit.

        The default FCFS policy sheds nothing, evicts nothing and admits the
        whole queue in order.
        """
        now = self.now
        queued = self.queued
        self.penalized = False
        arrivals = self.arrivals
        arrived = self.arrived
        total = len(arrivals)
        while arrived < total and arrivals[arrived].arrival_cycle <= now:
            request = arrivals[arrived]
            arrived += 1
            queued.append(_InFlight(request=request, enqueued_cycle=request.arrival_cycle))
        self.arrived = arrived
        offered = self.offered
        while offered and offered[0].enqueued_cycle <= now:
            queued.append(offered.pop(0))
        if not queued:
            return
        policy = self.scheduler.policy
        ctx = self.ctx
        active = self.active
        for entry in policy.shed(queued, now, ctx):
            queued.remove(entry)
            disposition = "timed_out" if entry.preempted else "shed"
            self.terminated[entry.request.request_id] = (entry, disposition, now)
        if queued and active:
            for state in policy.evict(active, queued, now, ctx):
                active.remove(state)
                self.preemption_count += 1
                state.preemptions += 1
                state.preempted = True
                state.enqueued_cycle = state.evicted_cycle = now
                queued.append(state)
        if not queued:
            return
        admitted = policy.admit(queued, active, now, ctx)
        if not admitted and not active:
            # Progress safety valve: with nothing decoding and nothing
            # admissible, force the oldest waiter in even over budget -- the
            # scheduler must never deadlock on a request too large for the
            # configured budget.
            admitted = [min(queued, key=lambda e: (e.enqueued_cycle, e.request.request_id))]
        recorder = self.recorder
        for state in admitted:
            queued.remove(state)
            # A request whose KV state is not resident streams it back in
            # before its next step completes.
            penalty = 0
            if state.preempted:
                penalty = self.scheduler.kv_reload_penalty(
                    state.request, state.steps_done, self.trace
                )
                self.penalized = True
            if recorder is not None and state.evicted_cycle is not None:
                recorder.add_span(
                    "preempted",
                    process=REQUESTS_PROCESS,
                    track=state.request.request_id,
                    start=state.evicted_cycle,
                    duration=now - state.evicted_cycle,
                    category="preempted",
                    args={"readmission_penalty_cycles": penalty},
                )
            if state.admitted_cycle is None:
                state.admitted_cycle = now
            state.resident_since = now
            state.pending_penalty = penalty
            state.reload_cycles += penalty
            state.preempted = False
            state.evicted_cycle = None
            active.append(state)

    def _start_run(self) -> None:
        """Probe the iteration at ``now`` and put it in flight as a run.

        A memo hit that nothing can disturb -- no waiting request, admission
        penalty or stall -- becomes an epoch: the composition recurs, every
        per-iteration quantity constant, until the first transient (soonest
        finish, KV-bucket crossing, next arrival, or injected fault).
        """
        active = self.active
        now = self.now
        injector = self.injector
        index = self.iterations
        scale = self.scale
        stall = 0
        if injector is not None:
            spike = injector.iteration_spike(index)
            if spike is not None:
                scale = spike
            stall = injector.iteration_stall(index)
        trace = self.trace
        contexts = [
            trace.bucketed_context(state.request.context_at(state.steps_done))
            for state in active
        ]
        shapes = self.shapes if self.recorder is not None else None
        outcome, replayed = self.scheduler.iteration_outcome(
            trace, active, contexts, scale, now, shapes
        )
        span = outcome.span_cycles
        effective = span
        if self.penalized:
            for state, end in zip(active, outcome.entry_end_cycles):
                if state.pending_penalty:
                    effective = max(effective, end + state.pending_penalty)
        count = 1
        if stall:
            effective += stall
        elif replayed and self.compress and not self.penalized and not self.queued and span > 0:
            count = epoch_horizon(
                [state.request.decode_steps - state.steps_done for state in active],
                [
                    context - state.request.context_at(state.steps_done) + 1
                    for state, context in zip(active, contexts)
                ],
                span,
                now,
                self._next_arrival(),
            )
            if injector is not None and count > 1:
                count = 1 + clean_fault_run(injector, index + 1, count - 1)
        self.run = _Run(now, outcome, effective, count, replayed, stall)

    # -- The accounting sink ---------------------------------------------

    def _credit(
        self, outcome: Union[_IterationOutcome, EpisodeTemplate], replayed: bool, count: int
    ) -> None:
        """Memo and timing-cache stats for ``count`` repeats of one outcome.

        A replay credits the memo probes and kernel lookups (all hits on a
        warm cache) it skipped, one probe per iteration, so every path
        reports equal totals.
        """
        if replayed:
            lookups = count * outcome.cache_lookups
            self.cache.credit_hits(lookups)
            self.memo_stats["hits"] += count * outcome.iterations
            self.cache_stats["hits"] += lookups
        else:
            self.memo_stats["misses"] += 1
            self.cache_stats["hits"] += outcome.cache_hits
            self.cache_stats["misses"] += outcome.cache_misses

    def _apply(self, run: _Run, count: int) -> None:
        """Land the first ``count`` repeats of ``run`` on stamps and totals.

        The one code that adds to the run totals, for iteration and episode
        runs alike.  Byte-identical to applying the iterations one by one:
        every total, energy in whole femtojoules included, is an integer
        advanced by an exact multiple.
        """
        outcome = run.outcome
        start = run.start
        effective = run.effective
        index = self.iterations
        self._credit(outcome, run.replayed, count)
        self.iterations += count * outcome.iterations
        self.serving_cycles += count * effective
        self.kernel_count += count * outcome.kernel_count
        self.energy_fj += count * outcome.energy_fj
        busy_totals = self.resource_busy
        for resource, busy in outcome.resource_busy:
            busy_totals[resource] = busy_totals.get(resource, 0) + count * busy
        if run.arrivals is not None:
            self._land_episode(run, index)
            return
        active = self.active
        recorder = self.recorder
        if self.episodes is not None:
            self._learn(run, count)
        if recorder is not None and count == 1 and run.replayed:
            self._replay_shape(outcome, start)
        finished = False
        for state, end in zip(active, outcome.entry_end_cycles):
            # A reload penalty is serialized in front of the request's step.
            if state.pending_penalty:
                end += state.pending_penalty
                state.pending_penalty = 0
            if recorder is not None and count == 1:
                recorder.add_span(
                    f"step {state.steps_done}",
                    process=REQUESTS_PROCESS,
                    track=state.request.request_id,
                    start=start,
                    duration=end,
                    category="decode_step",
                    args={"iteration": index},
                )
            state.steps_done += count
            if state.first_token_cycle is None:
                state.first_token_cycle = start + end
            if state.steps_done == state.request.decode_steps:
                state.finish_cycle = start + end + (count - 1) * effective
                self.finished[state.request.request_id] = state
                finished = True
        # A surviving recording implies the learner is active[0] (any batch
        # growth or identity change aborted it above).
        if self._learn_key is not None and active[0].finish_cycle is not None:
            self._learn_finalize(active[0])
        if recorder is not None:
            self._record_run(run, count, index)
        if self.timeline is not None:
            ids = [state.request.request_id for state in active]
            self.timeline.append(
                IterationRecord(index, start, effective, len(active), ids)
                if count == 1
                else EpochRecord(index, start, effective, count, ids)
            )
        if count == 1:
            self.epoch_stats["executed_iterations"] += 1
        else:
            self.epoch_stats["epochs"] += 1
            self.epoch_stats["extrapolated_iterations"] += count
        self.now = start + count * effective
        if finished:
            self.active = [state for state in active if state.finish_cycle is None]

    def _land_episode(self, run: _Run, index: int) -> None:
        """What only an episode run lands: its record, the arrivals it
        consumed, the clock, its epoch stats and its spans."""
        template = run.outcome
        count = run.count
        arrivals = run.arrivals
        head = self.arrived
        self.timeline.append(
            EpisodeRun(
                index=index,
                template=template,
                arrivals=arrivals,
                requests=self.arrivals[head : head + count],
            )
        )
        self.episode_meta.append((head, count, template))
        self.arrived = head + count
        self.now = int(arrivals[-1]) + template.span_cycles
        iterations = count * template.iterations
        self.epoch_stats["episode_runs"] += 1
        self.epoch_stats["extrapolated_iterations"] += iterations
        self.epoch_stats["extrapolated_requests"] += count
        if self.recorder is not None:
            kernels = count * template.kernel_count
            self.recorder.add_span(
                f"episode x{count}",
                process=self.process,
                track="iterations",
                start=run.start,
                duration=self.now - run.start,
                category="epoch",
                args={"requests": count, "iterations": iterations,
                      "memo": "extrapolated", "kernels": kernels},
            )
            self._unit_spans(
                "epoch (extrapolated)", run.start, self.now - run.start,
                template.resource_busy, count, kernels,
            )

    # -- Trace spans -----------------------------------------------------

    def _replay_shape(self, outcome: _IterationOutcome, start: int) -> None:
        """Kernel spans of a memo replay: the captured shape, or per-unit stand-ins."""
        recorder = self.recorder
        shape = self.shapes.get(outcome)
        if shape is not None:
            recorder.replay(shape, base=start)
        else:
            self._unit_spans(
                "epoch (memoized)", start, outcome.span_cycles, outcome.resource_busy, 1,
                outcome.kernel_count,
            )

    def _unit_spans(
        self,
        name: str,
        start: int,
        duration: int,
        busy: Sequence[Tuple[str, int]],
        repeats: int,
        kernels: int,
    ) -> None:
        """One span per unit, standing in for kernel spans never placed."""
        for resource, cycles in busy:
            self.recorder.add_span(
                name,
                process=UNITS_PROCESS,
                track=resource,
                start=start,
                duration=duration,
                category="epoch",
                args={"busy_cycles": repeats * cycles, "kernels": kernels},
            )

    def _record_run(self, run: _Run, count: int, index: int) -> None:
        recorder = self.recorder
        outcome = run.outcome
        start = run.start
        batch = len(self.active)
        ids = [state.request.request_id for state in self.active]
        if count == 1:
            memo = "replay" if run.replayed else ("miss" if outcome in self.shapes else "off")
            recorder.add_span(
                f"iteration {index}",
                process=self.process,
                track="iterations",
                start=start,
                duration=run.effective,
                category="iteration",
                args={"batch": batch, "requests": ids, "memo": memo,
                      "kernels": outcome.kernel_count},
            )
            if run.stall:
                recorder.add_span(
                    "stall (fault)",
                    process=self.process,
                    track="iterations",
                    start=start + run.effective - run.stall,
                    duration=run.stall,
                    category="fault",
                    args={"iteration": index},
                )
            return
        span = outcome.span_cycles
        recorder.add_span(
            f"epoch x{count}",
            process=self.process,
            track="iterations",
            start=start,
            duration=count * span,
            category="epoch",
            args={"batch": batch, "requests": ids, "iterations": count,
                  "span_cycles": span, "memo": "extrapolated",
                  "kernels": count * outcome.kernel_count},
        )
        self._unit_spans(
            "epoch (extrapolated)", start, count * span, outcome.resource_busy, count,
            count * outcome.kernel_count,
        )

    # -- Episodes --------------------------------------------------------

    def _learn(self, run: _Run, count: int) -> None:
        """Start, extend or abort the episode-template recording.

        Starts on the first iteration of a request serving alone from its
        arrival boundary and records while the solo run stays undisturbed;
        an epoch records its whole run as one segment.
        """
        active = self.active
        solo = (
            len(active) == 1
            and not run.stall
            and not self.queued
            and not active[0].pending_penalty
        )
        if self._learn_key is not None:
            if solo and active[0].request.request_id == self._learn_rid:
                self._learn_record(run.outcome, count)
            else:
                self._learn_key = None
                self._learn_segments.clear()
            return
        state = active[0]
        arrival = state.request.arrival_cycle
        if (
            solo
            and state.steps_done == 0
            and state.admitted_cycle == arrival
            and run.start == arrival
        ):
            candidate = self.scheduler._episode_key(self.trace, state.request)
            if candidate not in self.episodes:
                self._learn_key = candidate
                self._learn_rid = state.request.request_id
                self._learn_record(run.outcome, count)

    def _learn_record(self, outcome: _IterationOutcome, count: int) -> None:
        # Consecutive iterations of one composition replay the *same* memo
        # object, so identity merging recovers the segment runs.
        segments = self._learn_segments
        if segments and segments[-1][0] is outcome:
            segments[-1][1] += count
        else:
            segments.append([outcome, count])

    def _learn_finalize(self, state: _InFlight) -> None:
        segments = self._learn_segments
        # The sum check is a safety net: a recording that survived to the
        # finish covered every decode step by construction.
        if sum(count for _, count in segments) == state.request.decode_steps:
            self.episodes[self._learn_key] = build_episode_template(
                [
                    EpisodeSegment(
                        count=count,
                        span_cycles=recorded.span_cycles,
                        end_cycle=recorded.entry_end_cycles[0],
                        kernel_count=recorded.kernel_count,
                        energy_fj=recorded.energy_fj,
                        resource_busy=recorded.resource_busy,
                        cache_lookups=recorded.cache_lookups,
                    )
                    for recorded, count in segments
                ]
            )
        self._learn_key = None
        segments.clear()

    def _episode_run(self) -> Optional[_Run]:
        """Whole requests from the next arrival, as one run in closed form.

        The stepper is idle with no backlog: if the next arrival's whole solo
        service is templated, the run covers the maximal run of same-shape
        arrivals spaced at least one solo-service span apart (so no request
        in the run can be disturbed by the next).  Changes no state but the
        cached stream arrays; :meth:`_apply` lands the run.
        """
        arrivals = self.arrivals
        head = self.arrived
        template = self.episodes.get(self.scheduler._episode_key(self.trace, arrivals[head]))
        if template is None:
            return None
        if self._stream is None:
            # Stream builders stash their arrival/gap/shape arrays on the
            # trace; fall back to deriving them.
            cached = self.trace.__dict__.get("_stream_arrays")
            if cached is not None and len(cached[0]) == len(arrivals):
                self._stream = cached
            else:
                self._stream = _pending_arrays(arrivals)
        arrival_cycles, gaps, shape_ids = self._stream
        # Scalar pre-check: the head itself is disturbed when its successor
        # lands inside its solo span -- the common rejection after an
        # overlap cluster, not worth a walk.
        if head + 1 < len(arrivals) and gaps[head] < template.span_cycles:
            return None
        count = _episode_run_length(head, template.span_cycles, gaps, shape_ids)
        if not count:
            return None
        run_arrivals = arrival_cycles[head : head + count]
        return _Run(
            int(run_arrivals[0]), template, template.span_cycles, count, True, 0, run_arrivals
        )


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
