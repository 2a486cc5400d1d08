"""Shared tile-loop scheduling for the kernel builders (GEMM and flash).

The GEMM timing models walk the same loop nest -- output tiles, a K loop
inside each tile, an epilogue per tile -- in one of two wirings, Virgo's
disaggregated unit or the core-coupled register-file designs, captured by
:class:`GemmLoopSpec`.  The fused flash-attention kernels walk a different
but equally periodic structure -- a software-pipelined (Q tile, KV tile)
loop whose concurrent pipes (matrix unit, SIMT softmax, DMA) re-synchronize
at a fence + barrier every iteration -- captured by :class:`FlashLoopSpec`.
Masked kernels (causal, sliding window, varlen) do not visit every KV tile:
their per-Q-tile trip counts arrive run-length-encoded as
:class:`FlashSegment` runs (``trip_profile``), and both executors walk
exactly that plan, so skipped tiles cost nothing while the schedule stays
O(#segments).

:func:`execute_gemm_loop` / :func:`execute_flash_loop` turn a spec into the
scheduled totals either in O(1) of the iteration counts (``cluster_tiles x
k_iterations`` for GEMM, ``heads x q_tiles x kv_tiles`` for flash) -- the
default -- or by **full expansion** (``full_expansion=True``): every
operation is materialized on an :class:`repro.sim.taskgraph.OperationGraph`
and list-scheduled.  A GEMM loop is two pipelined stages whose schedule has
an exact closed form (:func:`_execute_closed_form`); the flash loop runs on
:class:`repro.sim.steady_state.SteadyStateEngine`, which executes warm-up
plus one steady-state period concretely and extrapolates the rest.

Both paths give bit-identical results; the equivalence is enforced by
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
#: The flash loop's serializing dependency chain (the prologue, the last sync or store).
_CHAIN = "chain"


@dataclass(frozen=True)
class GemmLoopSpec:
    """Loop structure and per-operation costs of one tiled GEMM schedule.

    ``cluster_tiles`` output tiles run one after another.  Each is a K loop
    of ``k_iterations`` steps -- a load on ``"dma"`` (when ``load_cycles`` is
    set), then a compute -- closed by one epilogue.  The first tile's first
    compute starts no earlier than ``first_compute_ready``.
    ``register_file`` picks the wiring:

    * ``False``, Virgo's disaggregated unit: computes occupy ``"matrix"``,
      loads stream back to back, each tile's first load waits for the
      previous tile's last compute (buffer reuse), and the epilogue drains
      the accumulators on ``"dma"``, where the next tile's loads queue
      behind it.  This wiring needs loads.
    * ``True``, the core-coupled designs that keep the accumulators in the
      register file: computes and epilogues occupy ``"compute"``, the
      epilogue joins the serializing chain (the next tile's first load and
      compute wait for it), and the load of K step k > 0 waits for the
      compute two steps back (double buffering).
    """

    cluster_tiles: int
    k_iterations: int
    register_file: bool
    compute_cycles: int
    epilogue_cycles: int
    load_cycles: Optional[int] = None  # None = no explicit load operations
    first_compute_ready: int = 0

    def __post_init__(self) -> None:
        if self.cluster_tiles < 1:
            raise ValueError(f"a GEMM loop needs cluster_tiles >= 1, got {self.cluster_tiles}")
        if self.k_iterations < 1:
            raise ValueError(f"a GEMM loop needs k_iterations >= 1, got {self.k_iterations}")
        for name in ("compute_cycles", "epilogue_cycles", "load_cycles", "first_compute_ready"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ValueError(f"GEMM loop {name} must be non-negative, got {value}")
        if self.load_cycles is None and not self.register_file:
            raise ValueError("the Virgo GEMM loop wiring needs load_cycles")

    @property
    def compute_resource(self) -> str:
        return "compute" if self.register_file else "matrix"

    @property
    def epilogue_resource(self) -> str:
        return self.compute_resource if self.register_file else _DMA


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
    return _execute_closed_form(spec)


# --------------------------------------------------------------------------- #
# Full expansion: one graph node per operation (the oracle)
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
                elif spec.register_file and len(history) >= 2:
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
        if spec.register_file:
            previous = store_name

    schedule = graph.schedule()
    return GemmLoopSchedule(
        total_cycles=schedule.total_cycles,
        kind_cycles=schedule.critical_kind_cycles(),
        resource_busy=dict(schedule.resource_busy),
        executed_operations=len(graph),
    )


# --------------------------------------------------------------------------- #
# Closed form
# --------------------------------------------------------------------------- #


def _execute_closed_form(spec: GemmLoopSpec) -> GemmLoopSchedule:
    """The expanded schedule's totals, without materializing an operation.

    Each tile starts when the previous tile's epilogue ends, so the makespan
    is the first tile plus ``cluster_tiles - 1`` identical later tiles.
    With ``first`` the earliest start of a tile's first compute, the tile's
    last compute ends at the longest of three paths: the compute chain;
    every load and then the last compute; and, on the double-buffered
    register file, the first compute, the load two steps on, the later
    loads and the last compute.  The tile ends one epilogue later.  Busy
    and per-kind cycles are plain sums, keyed in the order the expanded
    graph first meets them.  ``docs/perf-contract.md`` (contract 2) gives
    the argument.
    """
    tiles, steps = spec.cluster_tiles, spec.k_iterations
    compute, load, epilogue = spec.compute_cycles, spec.load_cycles, spec.epilogue_cycles

    def tile_cycles(first: int) -> int:
        last = first + steps * compute
        if load is not None:
            last = max(last, steps * load + compute)
            if spec.register_file and steps >= 2:
                last = max(last, first + (steps - 2) * load + 2 * compute)
        return last + epilogue

    # A later tile's first compute waits for its first load; the first
    # tile's also for ``first_compute_ready``.
    later = 0 if load is None else load
    first = max(later, spec.first_compute_ready)

    kind_cycles: Dict[str, int] = {}
    load_busy = 0
    if load is not None:
        load_busy = kind_cycles["dma"] = tiles * steps * load
    compute_busy = kind_cycles["compute"] = tiles * steps * compute
    epilogue_busy = kind_cycles["epilogue"] = tiles * epilogue
    resource_busy = {spec.compute_resource: compute_busy, _DMA: load_busy}
    resource_busy[spec.epilogue_resource] += epilogue_busy
    operations_per_tile = steps * (1 if load is None else 2) + 1
    return GemmLoopSchedule(
        total_cycles=tile_cycles(first) + (tiles - 1) * tile_cycles(later),
        kind_cycles=kind_cycles,
        resource_busy=resource_busy,
        executed_operations=0,
        extrapolated_operations=tiles * operations_per_tile,
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
