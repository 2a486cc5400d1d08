"""Shared tile-loop scheduling for the kernel builders (GEMM and flash).

The GEMM timing models walk the same loop nest -- output tiles, a K loop
inside each tile, an epilogue per tile -- and differ only in which resources
the operations occupy, their durations, and how double buffering wires the
load dependencies.  :class:`GemmLoopSpec` captures those knobs.  The fused
flash-attention kernels walk a different but equally periodic structure --
a software-pipelined (Q tile, KV tile) loop whose concurrent pipes (matrix
unit, SIMT softmax, DMA) re-synchronize at a fence + barrier every
iteration -- captured by :class:`FlashLoopSpec`.  Masked kernels (causal,
sliding window, varlen) do not visit every KV tile: their per-Q-tile trip
counts arrive run-length-encoded as :class:`FlashSegment` runs
(``trip_profile``), and both executors walk exactly that plan, so skipped
tiles cost nothing while the schedule stays O(#segments).

:func:`execute_gemm_loop` / :func:`execute_flash_loop` turn a spec into the
scheduled totals either by

* **steady-state compression** (the default): the loop nest runs on
  :class:`repro.sim.steady_state.SteadyStateEngine`, which executes warm-up
  plus one steady-state period concretely and extrapolates the rest, making
  the cost independent of the iteration counts (``cluster_tiles x
  k_iterations`` for GEMM, ``heads x q_tiles x kv_tiles`` for flash); or
* **full expansion** (``full_expansion=True``): the historical behaviour --
  every operation is materialized on an
  :class:`repro.sim.taskgraph.OperationGraph` and list-scheduled.

Both paths use the identical start-time arithmetic, so their results are
bit-identical; the equivalence is enforced by
``tests/test_schedule_compression.py`` (GEMM) and
``tests/test_flash_compression.py`` (flash attention).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.sim.resources import Resource
from repro.sim.steady_state import LoopStep, SteadyStateEngine
from repro.sim.taskgraph import OperationGraph

__all__ = [
    "GemmLoopSpec",
    "GemmLoopSchedule",
    "execute_gemm_loop",
    "FlashPipe",
    "FlashSegment",
    "FlashLoopSpec",
    "execute_flash_loop",
]

#: The resource every load, the flash prologue and the flash epilogue occupy.
_DMA = "dma"
#: The resource of the flash loop's per-iteration sync step.
_SYNC = "sync"

#: Anchor names used by the compressed executor.
_CHAIN = "chain"  # the serializing dependency chain (previous compute / store)
_LOAD = "load"  # the most recent load's end time
_HIST1 = "hist1"  # most recent compute end (compute history, not stores)
_HIST2 = "hist2"  # second-most-recent compute end


@dataclass(frozen=True)
class GemmLoopSpec:
    """Loop structure and per-operation costs of one tiled GEMM schedule.

    Loads, when the loop has them, occupy the ``"dma"`` resource.
    """

    cluster_tiles: int
    k_iterations: int
    compute_resource: str
    compute_cycles: int
    epilogue_cycles: int
    epilogue_resource: str
    load_cycles: Optional[int] = None  # None = no explicit load operations
    #: Loads of iteration k > 0 wait for the compute two iterations back
    #: (register/shared-memory double buffering on the core-coupled designs).
    double_buffer_deps: bool = False
    #: The epilogue joins the serializing chain (the next tile's first load
    #: and compute wait for it), as on the designs that store from the
    #: register file.
    epilogue_advances_chain: bool = False
    first_compute_ready: int = 0


@dataclass
class GemmLoopSchedule:
    """Scheduled totals of one GEMM loop nest."""

    total_cycles: int
    kind_cycles: Dict[str, int]
    resource_busy: Dict[str, int]
    executed_operations: int
    extrapolated_operations: int = 0

    @property
    def operation_count(self) -> int:
        return self.executed_operations + self.extrapolated_operations

    def stats(self) -> Dict[str, int]:
        return {
            "executed_operations": self.executed_operations,
            "extrapolated_operations": self.extrapolated_operations,
            "operation_count": self.operation_count,
        }


def execute_gemm_loop(spec: GemmLoopSpec, full_expansion: bool = False) -> GemmLoopSchedule:
    """Schedule the loop nest described by ``spec``."""
    if full_expansion:
        return _execute_expanded(spec)
    return _execute_compressed(spec)


# --------------------------------------------------------------------------- #
# Full expansion: one graph node per operation (the historical path)
# --------------------------------------------------------------------------- #


def _execute_expanded(spec: GemmLoopSpec) -> GemmLoopSchedule:
    graph = OperationGraph()
    graph.add_resource(Resource(spec.compute_resource))
    graph.add_resource(Resource(_DMA))

    previous: Optional[str] = None
    history: List[str] = []
    for tile in range(spec.cluster_tiles):
        for k in range(spec.k_iterations):
            deps: List[str] = []
            if spec.load_cycles is not None:
                load_name = f"load.t{tile}.k{k}"
                if k == 0 and previous is not None:
                    load_deps = [previous]
                elif spec.double_buffer_deps and len(history) >= 2:
                    load_deps = [history[-2]]
                else:
                    load_deps = []
                graph.add_operation(
                    load_name, _DMA, spec.load_cycles, deps=load_deps, kind="dma"
                )
                deps.append(load_name)
            name = f"compute.t{tile}.k{k}"
            if previous:
                deps.append(previous)
            ready = spec.first_compute_ready if (tile == 0 and k == 0) else 0
            graph.add_operation(
                name, spec.compute_resource, spec.compute_cycles, deps=deps,
                ready_after=ready, kind="compute",
            )
            previous = name
            history.append(name)
        store_name = f"store.t{tile}"
        graph.add_operation(
            store_name, spec.epilogue_resource, spec.epilogue_cycles,
            deps=[previous], kind="epilogue",
        )
        if spec.epilogue_advances_chain:
            previous = store_name

    schedule = graph.schedule()
    return GemmLoopSchedule(
        total_cycles=schedule.total_cycles,
        kind_cycles=schedule.critical_kind_cycles(),
        resource_busy=dict(schedule.resource_busy),
        executed_operations=len(graph),
    )


# --------------------------------------------------------------------------- #
# Steady-state compression
# --------------------------------------------------------------------------- #


def _load_step(spec: GemmLoopSpec, first_k: bool) -> LoopStep:
    if first_k:
        deps = (_CHAIN,)
    elif spec.double_buffer_deps:
        deps = (_HIST2,)
    else:
        deps = ()
    return LoopStep(
        resource=_DMA,
        duration=spec.load_cycles or 0,
        kind="dma",
        deps=deps,
        sets=(_LOAD,),
    )


def _compute_step(spec: GemmLoopSpec, ready_after: int = 0) -> LoopStep:
    deps = ((_LOAD,) if spec.load_cycles is not None else ()) + (_CHAIN,)
    if spec.double_buffer_deps:
        return LoopStep(
            resource=spec.compute_resource,
            duration=spec.compute_cycles,
            kind="compute",
            deps=deps,
            shifts=((_HIST2, _HIST1),),
            sets=(_HIST1, _CHAIN),
            ready_after=ready_after,
        )
    return LoopStep(
        resource=spec.compute_resource,
        duration=spec.compute_cycles,
        kind="compute",
        deps=deps,
        sets=(_CHAIN,),
        ready_after=ready_after,
    )


def _execute_compressed(spec: GemmLoopSpec) -> GemmLoopSchedule:
    has_loads = spec.load_cycles is not None
    engine = SteadyStateEngine()
    engine.add_resource(spec.compute_resource)
    # Only register resources the loop actually occupies: an always-idle
    # component would sit at a zero delta and defeat the outer loop's
    # uniform-shift detection.
    if has_loads or spec.epilogue_resource == _DMA:
        engine.add_resource(_DMA)
    steady_body = ([_load_step(spec, first_k=False)] if has_loads else []) + [_compute_step(spec)]
    epilogue = LoopStep(
        resource=spec.epilogue_resource,
        duration=spec.epilogue_cycles,
        kind="epilogue",
        deps=(_CHAIN,),
        sets=(_CHAIN,) if spec.epilogue_advances_chain else (),
    )

    def tile_body(first_compute_ready: int = 0) -> None:
        if has_loads:
            engine.execute(_load_step(spec, first_k=True))
        engine.execute(_compute_step(spec, ready_after=first_compute_ready))
        if spec.k_iterations > 1:
            engine.run_loop(steady_body, spec.k_iterations - 1)
        engine.execute(epilogue)

    # The first tile carries the warm-up irregularities (missing chain and
    # history anchors, the prologue ready time); later tiles are identical
    # and compress through the outer-loop shift detection.
    tile_body(first_compute_ready=spec.first_compute_ready)
    if spec.cluster_tiles > 1:
        engine.run_outer(tile_body, spec.cluster_tiles - 1)

    resource_busy = dict(engine.busy)
    resource_busy.setdefault(_DMA, 0)  # mirror the expanded graph
    return GemmLoopSchedule(
        total_cycles=engine.makespan,
        kind_cycles=dict(engine.kind_cycles),
        resource_busy=resource_busy,
        executed_operations=engine.executed_operations,
        extrapolated_operations=engine.extrapolated_operations,
    )


# --------------------------------------------------------------------------- #
# Flash-attention pipelined loop
# --------------------------------------------------------------------------- #

#: Anchor naming for the flash loop's per-pipe end times.
def _pipe_anchor(kind: str) -> str:
    return f"pipe.{kind}"


@dataclass(frozen=True)
class FlashPipe:
    """One concurrent pipe of a flash-attention iteration.

    All pipes of an iteration start together at the previous iteration's
    barrier release and occupy their own resource for ``cycles``.
    """

    kind: str
    resource: str
    cycles: int


@dataclass(frozen=True)
class FlashSegment:
    """A run of consecutive Q tiles sharing one visited-KV-tile count.

    Masked kernels (causal, causal-with-history, sliding window, varlen)
    skip KV tiles the mask rules out entirely, so the per-Q-tile trip count
    is not uniform -- but it *is* piecewise constant, and run-length
    encoding it into segments is what keeps the compressed schedule
    O(#segments) instead of O(#tiles).  See :mod:`repro.kernels.masking`.
    """

    q_tiles: int
    kv_trips: int


@dataclass(frozen=True)
class FlashLoopSpec:
    """Software-pipelined (Q tile, KV tile) loop of a fused attention kernel.

    Per iteration, every :class:`FlashPipe` (matrix-unit GEMMs, SIMT online
    softmax, KV-tile DMA) runs concurrently; a sync step of ``sync_cycles``
    (fence poll + cluster barrier on Virgo, the core barrier on the
    Ampere-style mapping) waits for all pipes and releases the next
    iteration, so each iteration is paced by its slowest pipe plus the sync
    cost.  ``prologue_cycles`` models the initial Q/K/V loads the first
    iteration waits on; ``epilogue_count`` stores of ``epilogue_cycles``
    each drain the output tiles after the loop.  The sync step occupies the
    ``"sync"`` resource, the prologue and the stores the ``"dma"`` one.

    ``trip_profile`` carries the masked iteration structure: the
    run-length-encoded per-Q-tile visited-KV-tile counts of *one head*
    (:class:`FlashSegment` runs), repeated ``profile_repeats`` times (one
    repeat per head -- every head shares the mask).  An empty profile means
    the historical uniform loop: ``iterations`` identical trips.  When a
    profile is present its total trip count must equal ``iterations``, so
    both executors walk exactly the same operations.
    """

    iterations: int
    pipes: Tuple[FlashPipe, ...]
    sync_cycles: int = 0
    prologue_cycles: int = 0
    epilogue_cycles: int = 0
    epilogue_count: int = 0
    trip_profile: Tuple[FlashSegment, ...] = ()
    profile_repeats: int = 1

    def __post_init__(self) -> None:
        if not self.pipes:
            raise ValueError("a flash loop needs at least one pipe")
        kinds = [pipe.kind for pipe in self.pipes]
        if len(set(kinds)) != len(kinds):
            # Pipe kinds double as per-pipe anchor names (and reporting
            # keys), so they must be distinct within one spec.
            raise ValueError(f"flash pipe kinds must be distinct, got {kinds}")
        if self.trip_profile:
            if self.profile_repeats <= 0:
                raise ValueError("profile_repeats must be positive")
            for segment in self.trip_profile:
                if segment.q_tiles <= 0 or segment.kv_trips <= 0:
                    raise ValueError(
                        f"flash segments need positive tile/trip counts, got {segment}"
                    )
            total = self.profile_repeats * sum(
                segment.q_tiles * segment.kv_trips for segment in self.trip_profile
            )
            if total != self.iterations:
                raise ValueError(
                    f"trip profile covers {total} iterations but the spec "
                    f"declares {self.iterations}"
                )

    def resources(self) -> Tuple[str, ...]:
        """Every resource the loop occupies, in deterministic order."""
        names = [pipe.resource for pipe in self.pipes] + [_SYNC]
        if self.prologue_cycles or self.epilogue_count:
            names.append(_DMA)
        return tuple(dict.fromkeys(names))


def execute_flash_loop(
    spec: FlashLoopSpec, full_expansion: bool = False
) -> GemmLoopSchedule:
    """Schedule the flash-attention loop nest described by ``spec``."""
    if full_expansion:
        return _execute_flash_expanded(spec)
    return _execute_flash_compressed(spec)


def _flash_iteration_plan(spec: FlashLoopSpec):
    """Yield ``(repeat, segment)`` covering every iteration of the spec.

    A spec without a trip profile is one uniform segment; with a profile,
    the plan replays the per-head segment runs ``profile_repeats`` times.
    Both executors iterate this plan, so they materialize *identical*
    operation sequences by construction.
    """
    if not spec.trip_profile:
        yield 0, FlashSegment(q_tiles=1, kv_trips=spec.iterations)
        return
    for repeat in range(spec.profile_repeats):
        for segment in spec.trip_profile:
            yield repeat, segment


def _execute_flash_expanded(spec: FlashLoopSpec) -> GemmLoopSchedule:
    graph = OperationGraph()
    for name in spec.resources():
        graph.add_resource(Resource(name))

    chain: Optional[str] = None
    if spec.prologue_cycles:
        graph.add_operation(
            "prologue", _DMA, spec.prologue_cycles, kind="prologue"
        )
        chain = "prologue"
    index = 0
    for _, segment in _flash_iteration_plan(spec):
        for _ in range(segment.q_tiles * segment.kv_trips):
            pipe_names = []
            for pipe in spec.pipes:
                name = f"{pipe.kind}.i{index}"
                graph.add_operation(
                    name,
                    pipe.resource,
                    pipe.cycles,
                    deps=[chain] if chain else [],
                    kind=pipe.kind,
                )
                pipe_names.append(name)
            sync_name = f"sync.i{index}"
            graph.add_operation(
                sync_name, _SYNC, spec.sync_cycles, deps=pipe_names,
                kind="sync",
            )
            chain = sync_name
            index = index + 1
    for index in range(spec.epilogue_count):
        name = f"epilogue.{index}"
        graph.add_operation(
            name,
            _DMA,
            spec.epilogue_cycles,
            deps=[chain] if chain else [],
            kind="epilogue",
        )
        chain = name

    schedule = graph.schedule()
    return GemmLoopSchedule(
        total_cycles=schedule.total_cycles,
        kind_cycles=dict(schedule.critical_kind_cycles()),
        resource_busy=dict(schedule.resource_busy),
        executed_operations=len(graph),
    )


def _execute_flash_compressed(spec: FlashLoopSpec) -> GemmLoopSchedule:
    engine = SteadyStateEngine()
    for name in spec.resources():
        engine.add_resource(name)

    if spec.prologue_cycles:
        engine.execute(
            LoopStep(
                resource=_DMA,
                duration=spec.prologue_cycles,
                kind="prologue",
                sets=(_CHAIN,),
            )
        )
    body = [
        LoopStep(
            resource=pipe.resource,
            duration=pipe.cycles,
            kind=pipe.kind,
            deps=(_CHAIN,),
            sets=(_pipe_anchor(pipe.kind),),
        )
        for pipe in spec.pipes
    ]
    body.append(
        LoopStep(
            resource=_SYNC,
            duration=spec.sync_cycles,
            kind="sync",
            deps=tuple(_pipe_anchor(pipe.kind) for pipe in spec.pipes),
            sets=(_CHAIN,),
        )
    )
    if not spec.trip_profile:
        engine.run_loop(body, spec.iterations)
    else:
        # Masked loop: walk the segmented profile.  Each segment is a run of
        # Q tiles with one trip count; the inner ``run_loop`` compresses a
        # tile's KV trips, ``run_outer`` collapses the identical tiles of the
        # run, and a second ``run_outer`` collapses the identical heads --
        # the executed-operation count is O(#segments), independent of both
        # the sequence length and the head count.
        def profile_body() -> None:
            for segment in spec.trip_profile:
                def tile_body() -> None:
                    engine.run_loop(body, segment.kv_trips)

                tile_body()
                if segment.q_tiles > 1:
                    engine.run_outer(tile_body, segment.q_tiles - 1)

        profile_body()
        if spec.profile_repeats > 1:
            engine.run_outer(profile_body, spec.profile_repeats - 1)
    if spec.epilogue_count:
        engine.run_loop(
            [
                LoopStep(
                    resource=_DMA,
                    duration=spec.epilogue_cycles,
                    kind="epilogue",
                    deps=(_CHAIN,),
                    sets=(_CHAIN,),
                )
            ],
            spec.epilogue_count,
        )

    return GemmLoopSchedule(
        total_cycles=engine.makespan,
        kind_cycles=dict(engine.kind_cycles),
        resource_busy=dict(engine.busy),
        executed_operations=engine.executed_operations,
        extrapolated_operations=engine.extrapolated_operations,
    )
