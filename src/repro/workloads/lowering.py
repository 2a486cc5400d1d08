"""Lowering: map a layer graph onto kernel invocations and execute them.

``lower_graph`` walks a :class:`~repro.workloads.graph.LayerGraph` in
topological order and emits a :class:`KernelSchedule` -- a dependency-ordered
list of kernel invocations, each bound to one of the existing timing models:

* linear layers become :class:`GemmWorkload` runs on the design's matrix
  unit path (``run_gemm``);
* attention layers become :class:`FlashAttentionWorkload` runs on designs
  with a fused mapping (Virgo, Ampere-style), and decompose into the two
  score GEMMs plus a SIMT online-softmax kernel elsewhere -- and always in
  decode phase, where the single-query shape defeats the fused kernel's
  tiling;
* elementwise and norm layers become SIMT kernels costed with the same
  lane/issue model the softmax cost model uses;
* MoE FFN nodes (:class:`~repro.workloads.graph.MoeFfnLayer`) fan out into a
  SIMT router/dispatch prologue, one independent up/activation/down chain per
  active expert and a SIMT combine epilogue -- the wide-graph case where the
  matrix and SIMT units genuinely co-run instead of ping-ponging.

On the disaggregated design the ``heterogeneous`` flag routes small GEMMs
(decode-phase projections, in practice) onto a half-size secondary matrix
unit, reproducing the Section 6.3 dual-unit configuration at model scale:
small kernels overlap with large ones instead of queueing behind them.
Independent MoE expert GEMMs are instead *spread* across the two units in
proportion to their throughput (see :func:`_moe_expert_resource`), so both
matrix units draw down the expert pool concurrently.

``execute_schedule`` then runs every invocation through :mod:`repro.runner`
(every per-kernel simulation is memoized in the process-wide timing cache,
see :mod:`repro.perf`; the hit/miss counts attributable to the run land in
``ModelRunResult.timing_cache``), places the resulting durations on an
:class:`repro.sim.taskgraph.OperationGraph` (so independent kernels overlap
exactly where the resource model allows) and aggregates cycles, MAC
utilization and energy per layer, per phase and for the whole model into a
:class:`ModelRunResult`.

Serving executes the same per-request decode steps over and over, inside
ever-different batches, so it runs on compiled step programs instead:
``compile_step_program`` resolves one schedule's kernels once into a
:class:`StepProgram` of integer arrays and per-layer counter rows, and
``execute_step_programs`` list-schedules a batch of programs interleaved
by position on plain ints.  The result equals ``merge_schedules`` followed
by ``execute_schedule`` exactly, energy bit for bit (``docs/perf-contract.md``
contract 7), without building the merged schedule.

Causal masks are modelled *exactly*: fused flash kernels carry the mask
fields (``causal``/``kv_len``/``window``/``seq_lens``) into
:class:`FlashAttentionWorkload`, whose tile loop visits only the KV tiles
the mask leaves non-empty, and the decomposed path sizes its SIMT softmax
by the integer mask-element count and reports the exact surviving MACs
(``reported_macs``) for utilization accounting.  No ``work_scale`` discount
exists anywhere in the attention path -- ``tools/check_attention_lint.py``
enforces that it stays gone.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from repro.config.presets import DesignKind, make_design
from repro.config.soc import DataType, DesignConfig, IntegrationStyle
from repro.energy.model import EnergyTable
from repro.energy.power import PowerReport, make_power_report
from repro.kernels.flash_attention import (
    SOFTMAX_FLOPS_PER_ELEMENT,
    FlashAttentionWorkload,
)
from repro.kernels.gemm import GemmWorkload
from repro.kernels.heterogeneous import design_with_unit, small_unit_config
from repro.obs import MetricsRegistry, TraceRecorder, occupancy_percent, phase, trace_recorder
from repro.obs.trace import UNITS_PROCESS
from repro.perf import timing_cache
from repro.runner import run_flash_attention, run_gemm
from repro.sim.resources import Resource
from repro.sim.stats import Counters
from repro.sim.taskgraph import OperationGraph
from repro.workloads.graph import (
    AttentionLayer,
    ElementwiseLayer,
    Layer,
    LayerGraph,
    LayerKind,
    LinearLayer,
    MoeBlock,
    MoeFfnLayer,
    NormLayer,
)
from repro.workloads.models import ModelSpec, build_model

#: Resource names kernels contend for during schedule execution.
MATRIX_RESOURCE = "matrix"
SMALL_MATRIX_RESOURCE = "matrix.small"
SIMT_RESOURCE = "simt"

#: GEMMs below this MAC count ride the half-size unit in heterogeneous mode.
HETERO_SMALL_GEMM_MACS = 1 << 24

#: Non-FPU instruction overhead of SIMT elementwise loops (loads, stores,
#: addressing, loop control) relative to FPU work, matching the softmax model.
SIMT_OVERHEAD_RATIO = 1.0


@dataclass(frozen=True)
class KernelInvocation:
    """One schedulable kernel produced by lowering a layer.

    ``workload`` is a :class:`GemmWorkload`, :class:`FlashAttentionWorkload`
    or ``None`` for SIMT kernels (which carry ``elements``/``flops_per_element``
    instead).  ``reported_macs`` overrides the workload's own MAC count for
    utilization/throughput reporting -- the decomposed attention path runs
    full-rectangle score GEMMs (a generic GEMM cannot skip masked tiles)
    but reports only the surviving mask elements as useful work.
    """

    name: str
    layer: str
    phase: str
    kind: str  # "gemm" | "flash" | "simt"
    resource: str
    deps: Tuple[str, ...] = ()
    workload: Union[GemmWorkload, FlashAttentionWorkload, None] = None
    elements: int = 0
    flops_per_element: float = 0.0
    reported_macs: Optional[int] = None


@dataclass
class KernelSchedule:
    """A dependency-ordered kernel program for one (model, design) pair."""

    model: str
    design: DesignConfig
    invocations: List[KernelInvocation]
    heterogeneous: bool = False
    small_design: Optional[DesignConfig] = None
    ideal_mac_cycles: float = 0.0

    def __len__(self) -> int:
        return len(self.invocations)

    def kernels_of(self, layer: str) -> List[KernelInvocation]:
        return [inv for inv in self.invocations if inv.layer == layer]


def _supports_fused_attention(design: DesignConfig) -> bool:
    return design.style in (
        IntegrationStyle.DISAGGREGATED,
        IntegrationStyle.TIGHTLY_COUPLED_DMA,
    )


def _simt_cost(
    design: DesignConfig, elements: int, flops_per_element: float
) -> Tuple[int, Counters]:
    """Cycles and activity for the SIMT cores to sweep ``elements`` once.

    Memoized in the process-wide timing cache (:mod:`repro.perf`); the
    returned counters are shared and must not be mutated in place.
    """
    cache = timing_cache()
    key = cache.key(
        "simt", design, {"elements": elements, "flops_per_element": flops_per_element}
    )
    return cache.get_or_compute(
        key, lambda: _simt_cost_uncached(design, elements, flops_per_element)
    )


def _simt_cost_uncached(
    design: DesignConfig, elements: int, flops_per_element: float
) -> Tuple[int, Counters]:
    cluster = design.cluster
    lanes = cluster.cores * cluster.core.lanes
    flops = elements * flops_per_element
    fpu_cycles = flops / lanes
    issue_cycles = fpu_cycles * (1.0 + SIMT_OVERHEAD_RATIO)
    cycles = max(1, int(max(fpu_cycles, issue_cycles / cluster.core.issue_width)))

    counters = Counters()
    per_lane = flops / max(1, cluster.core.lanes)
    overhead = per_lane * SIMT_OVERHEAD_RATIO
    counters.add("core.fpu.ops", flops)
    counters.add("core.issue.instructions", per_lane + overhead)
    counters.add("core.alu.ops", overhead * cluster.core.lanes / 2)
    counters.add("core.lsu.requests", overhead / 2)
    counters.add("core.issue.rf_read_words", 2 * (flops + overhead * cluster.core.lanes))
    counters.add("core.writeback.rf_write_words", flops)
    counters.add("smem.core.read_words", elements)
    counters.add("smem.core.write_words", elements)
    return cycles, counters


def _lower_attention(
    layer: AttentionLayer,
    graph: LayerGraph,
    design: DesignConfig,
    deps: Tuple[str, ...],
    dtype: DataType,
) -> List[KernelInvocation]:
    shape = graph.input_shape_of(layer)
    kv_len = layer.kv_length(shape)
    masked_elements = layer.masked_score_elements(shape)
    base = dict(layer=layer.name, phase=layer.phase or "default")

    # The fused kernel tiles any multi-query shape whose context is at least
    # as long as the chunk -- including causal prefill over prior KV context
    # (chunked prefill) and packed varlen batches.
    fused_shape = shape.seq > 1 and kv_len >= shape.seq
    if fused_shape and _supports_fused_attention(design):
        workload = FlashAttentionWorkload(
            seq_len=shape.seq,
            head_dim=layer.head_dim,
            heads=shape.batch * layer.heads,
            causal=layer.causal,
            kv_len=0 if kv_len == shape.seq else kv_len,
            window=layer.window,
            seq_lens=layer.seq_lens,
        )
        return [
            KernelInvocation(
                name=f"{layer.name}.flash",
                kind="flash",
                resource=MATRIX_RESOURCE,
                deps=deps,
                workload=workload,
                **base,
            )
        ]

    # Decomposed path: QK^T scores, SIMT softmax, PV output -- batched over
    # (batch x query heads) by folding them into the GEMM M dimension.  The
    # GEMMs run the full rectangle (a generic GEMM cannot skip masked
    # tiles) except that a sliding window shrinks the decode context to the
    # ``window`` live keys; the exact surviving MACs are attached as
    # ``reported_macs`` so utilization reflects the mask, and the softmax
    # sweeps only the surviving mask elements.
    kv_cols = min(kv_len, layer.window) if (shape.seq == 1 and layer.window) else kv_len
    rows = shape.batch * layer.heads * shape.seq
    scores = KernelInvocation(
        name=f"{layer.name}.scores",
        kind="gemm",
        resource=MATRIX_RESOURCE,
        deps=deps,
        workload=GemmWorkload(m=rows, n=kv_cols, k=layer.head_dim, dtype=dtype),
        reported_macs=masked_elements * layer.head_dim,
        **base,
    )
    softmax = KernelInvocation(
        name=f"{layer.name}.softmax",
        kind="simt",
        resource=SIMT_RESOURCE,
        deps=(scores.name,),
        elements=masked_elements,
        flops_per_element=SOFTMAX_FLOPS_PER_ELEMENT,
        **base,
    )
    output = KernelInvocation(
        name=f"{layer.name}.context",
        kind="gemm",
        resource=MATRIX_RESOURCE,
        deps=(softmax.name,),
        workload=GemmWorkload(m=rows, n=layer.head_dim, k=kv_cols, dtype=dtype),
        reported_macs=masked_elements * layer.head_dim,
        **base,
    )
    return [scores, softmax, output]


def _moe_expert_resource(
    index: int,
    workload: GemmWorkload,
    design: DesignConfig,
    small_design: Optional[DesignConfig],
) -> str:
    """Matrix unit for expert ``index``'s GEMM pair in heterogeneous mode.

    Expert GEMMs are small and mutually independent, so instead of funnelling
    every small GEMM onto the half-size unit (the right call for a sequential
    chain, where it frees the big unit for the *next* large kernel), experts
    are spread across both units in proportion to their throughput: with the
    default 4x capacity ratio every fifth expert rides the small unit, so
    both units finish their share at roughly the same time.
    """
    if small_design is None or workload.macs >= HETERO_SMALL_GEMM_MACS:
        return MATRIX_RESOURCE
    large_mpc = design.matrix_unit.macs_per_cycle
    small_mpc = max(1, small_design.matrix_unit.macs_per_cycle)
    stride = max(2, round(large_mpc / small_mpc) + 1)
    return SMALL_MATRIX_RESOURCE if index % stride == stride - 1 else MATRIX_RESOURCE


def _lower_moe(
    layer: MoeFfnLayer,
    graph: LayerGraph,
    design: DesignConfig,
    small_design: Optional[DesignConfig],
    deps: Tuple[str, ...],
    dtype: DataType,
) -> List[KernelInvocation]:
    """Expand one MoE FFN node into its expert-parallel kernel fan-out.

    Emitted structure (edges only within each chain -- experts never depend
    on each other, which is what lets the scheduler co-run the units)::

        router (SIMT) -> dispatch (SIMT) -> e0.up -> e0.act -> e0.down \\
                                            e1.up -> e1.act -> e1.down  -> combine (SIMT)
                                            ...                        /
        s0.up -> s0.act -> s0.down  (shared experts skip the router)  /
    """
    shape = graph.input_shape_of(layer)
    base = dict(layer=layer.name, phase=layer.phase or "default")
    tokens = shape.tokens

    router = KernelInvocation(
        name=f"{layer.name}.router",
        kind="simt",
        resource=SIMT_RESOURCE,
        deps=deps,
        elements=tokens,
        flops_per_element=layer.router_flops_per_token,
        **base,
    )
    active = layer.active_experts(shape)
    capacity = layer.expert_capacity(shape)
    dispatch = KernelInvocation(
        name=f"{layer.name}.dispatch",
        kind="simt",
        resource=SIMT_RESOURCE,
        deps=(router.name,),
        elements=active * capacity * layer.in_features,
        flops_per_element=1.0,
        **base,
    )
    # One (up, act, down) chain per expert; chains share no edges.  The
    # invocations are emitted stage-interleaved (all ups, all activations,
    # all downs) because the list scheduler reserves resources in insertion
    # order: interleaving lets expert j's SIMT activation run under expert
    # j+1's matrix-unit GEMM instead of leaving the matrix unit idle.
    ups: List[KernelInvocation] = []
    acts: List[KernelInvocation] = []
    downs: List[KernelInvocation] = []

    def expert_chain(tag: str, index: int, dims, chain_deps: Tuple[str, ...]) -> str:
        """Queue one up -> activation -> down chain; returns the down kernel."""
        (up_m, up_n, up_k), (down_m, down_n, down_k) = dims
        up_workload = GemmWorkload(m=up_m, n=up_n, k=up_k, dtype=dtype)
        down_workload = GemmWorkload(m=down_m, n=down_n, k=down_k, dtype=dtype)
        resource = _moe_expert_resource(index, up_workload, design, small_design)
        up = KernelInvocation(
            name=f"{layer.name}.{tag}.up",
            kind="gemm",
            resource=resource,
            deps=chain_deps,
            workload=up_workload,
            **base,
        )
        act = KernelInvocation(
            name=f"{layer.name}.{tag}.act",
            kind="simt",
            resource=SIMT_RESOURCE,
            deps=(up.name,),
            elements=up_m * up_n,
            flops_per_element=layer.activation_flops,
            **base,
        )
        down = KernelInvocation(
            name=f"{layer.name}.{tag}.down",
            kind="gemm",
            resource=resource,
            deps=(act.name,),
            workload=down_workload,
            **base,
        )
        ups.append(up)
        acts.append(act)
        downs.append(down)
        return down.name

    combine_deps: List[str] = []
    # Shared experts first: their chains depend only on the block input, so
    # the matrix unit starts on them while the router is still deciding.
    if isinstance(layer, MoeBlock) and layer.shared_experts:
        shared_dims = layer.shared_gemm_dims(shape)
        combine_deps.extend(
            expert_chain(f"s{index}", active + index, shared_dims, deps)
            for index in range(layer.shared_experts)
        )
    expert_dims = layer.expert_gemm_dims(shape)
    combine_deps.extend(
        expert_chain(f"e{index}", index, expert_dims, (dispatch.name,))
        for index in range(active)
    )

    invocations = [router, dispatch, *ups, *acts, *downs]
    invocations.append(
        KernelInvocation(
            name=f"{layer.name}.combine",
            kind="simt",
            resource=SIMT_RESOURCE,
            deps=tuple(combine_deps),
            elements=shape.elements,
            flops_per_element=2.0 * layer.top_k,
            **base,
        )
    )
    return invocations


def lower_graph(
    graph: LayerGraph,
    design: Union[DesignKind, DesignConfig],
    heterogeneous: bool = False,
    dtype: DataType = DataType.FP16,
) -> KernelSchedule:
    """Lower every layer of ``graph`` to kernels on ``design``.

    Returns a dependency-ordered :class:`KernelSchedule`; layer dependencies
    become kernel dependencies between each layer's last kernel and its
    consumers' first kernels.
    """
    config = make_design(design, dtype) if isinstance(design, DesignKind) else design
    small_design: Optional[DesignConfig] = None
    if heterogeneous:
        if config.style is not IntegrationStyle.DISAGGREGATED:
            raise ValueError("heterogeneous lowering requires the disaggregated design")
        small_design = design_with_unit(config, small_unit_config(config.matrix_unit))

    invocations: List[KernelInvocation] = []
    last_kernel: Dict[str, str] = {}  # layer name -> its final kernel name

    for layer in graph.layers():
        deps = tuple(last_kernel[dep] for dep in layer.deps)
        shape = graph.input_shape_of(layer)
        phase = layer.phase or "default"

        if isinstance(layer, LinearLayer):
            m, n, k = layer.gemm_dims(shape)
            workload = GemmWorkload(m=m, n=n, k=k, dtype=dtype)
            resource = MATRIX_RESOURCE
            if small_design is not None and workload.macs < HETERO_SMALL_GEMM_MACS:
                resource = SMALL_MATRIX_RESOURCE
            lowered = [
                KernelInvocation(
                    name=f"{layer.name}.gemm",
                    layer=layer.name,
                    phase=phase,
                    kind="gemm",
                    resource=resource,
                    deps=deps,
                    workload=workload,
                )
            ]
        elif isinstance(layer, AttentionLayer):
            lowered = _lower_attention(layer, graph, config, deps, dtype)
        elif isinstance(layer, MoeFfnLayer):
            lowered = _lower_moe(layer, graph, config, small_design, deps, dtype)
        elif isinstance(layer, (ElementwiseLayer, NormLayer)):
            if layer.flops_per_element <= 0:
                # Zero-cost bookkeeping nodes (views/slices) lower to nothing;
                # dependents inherit their dependencies.
                last_kernel[layer.name] = deps[0] if deps else ""
                continue
            lowered = [
                KernelInvocation(
                    name=f"{layer.name}.simt",
                    layer=layer.name,
                    phase=phase,
                    kind="simt",
                    resource=SIMT_RESOURCE,
                    deps=deps,
                    elements=graph.output_shape(layer.name).elements,
                    flops_per_element=layer.flops_per_element,
                )
            ]
        else:
            raise ValueError(f"no lowering rule for layer kind {layer.kind!r}")

        invocations.extend(lowered)
        last_kernel[layer.name] = lowered[-1].name

    ideal = graph.total_macs() / float(config.soc.total_macs_per_cycle)
    return KernelSchedule(
        model=graph.name,
        design=config,
        invocations=invocations,
        heterogeneous=heterogeneous,
        small_design=small_design,
        ideal_mac_cycles=ideal,
    )


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


# --------------------------------------------------------------------------- #
# Execution
# --------------------------------------------------------------------------- #


@dataclass
class LayerRunResult:
    """Aggregated metrics of all kernels lowered from one layer."""

    layer: str
    phase: str
    kinds: Tuple[str, ...]
    kernels: Tuple[str, ...]
    cycles: int
    start: int
    end: int
    energy_uj: float
    mac_utilization_percent: float
    macs: int = 0

    def to_dict(self) -> Dict[str, object]:
        return {
            "layer": self.layer,
            "phase": self.phase,
            "kinds": list(self.kinds),
            "kernels": list(self.kernels),
            "cycles": self.cycles,
            "start": self.start,
            "end": self.end,
            "energy_uj": self.energy_uj,
            "mac_utilization_percent": self.mac_utilization_percent,
            "macs": self.macs,
        }


@dataclass
class ModelRunResult:
    """End-to-end outcome of one model on one design.

    ``total_cycles`` is the makespan of the resource-constrained kernel
    schedule (independent kernels overlap); per-layer cycles are each
    layer's own busy time and therefore sum to more than the makespan
    whenever overlap happens.
    """

    model: str
    design: DesignConfig
    total_cycles: int
    layers: List[LayerRunResult]
    power: PowerReport
    counters: Counters
    ideal_mac_cycles: float
    heterogeneous: bool = False
    phase_cycles: Dict[str, int] = field(default_factory=dict)
    phase_energy_uj: Dict[str, float] = field(default_factory=dict)
    resource_busy: Dict[str, int] = field(default_factory=dict)
    #: Timing-cache activity attributable to this run ("hits"/"misses");
    #: diagnostic only and deliberately excluded from :meth:`to_dict` so the
    #: canonical encoding stays byte-stable across cache states.
    timing_cache: Dict[str, int] = field(default_factory=dict)
    #: Unified metrics collected during execution (:mod:`repro.obs.metrics`).
    #: ``to_dict`` embeds the non-diagnostic snapshot; cache/memo hit rates
    #: are diagnostic and reported via ``snapshot(include_diagnostic=True)``.
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry, compare=False)

    @property
    def design_name(self) -> str:
        return self.design.name

    @property
    def mac_utilization(self) -> float:
        if self.total_cycles <= 0:
            return 0.0
        return min(1.0, self.ideal_mac_cycles / self.total_cycles)

    @property
    def mac_utilization_percent(self) -> float:
        return 100.0 * self.mac_utilization

    @property
    def active_power_mw(self) -> float:
        return self.power.active_power_mw

    @property
    def active_energy_uj(self) -> float:
        return self.power.total_energy_uj

    @property
    def kernel_count(self) -> int:
        return sum(len(layer.kernels) for layer in self.layers)

    def to_dict(self) -> Dict[str, object]:
        return {
            "kind": "model",
            "model": self.model,
            "design": self.design_name,
            "heterogeneous": self.heterogeneous,
            "total_cycles": self.total_cycles,
            "kernel_count": self.kernel_count,
            "mac_utilization_percent": self.mac_utilization_percent,
            "active_power_mw": self.active_power_mw,
            "active_energy_uj": self.active_energy_uj,
            "phase_cycles": dict(self.phase_cycles),
            "phase_energy_uj": dict(self.phase_energy_uj),
            "resource_busy_cycles": dict(self.resource_busy),
            "layers": [layer.to_dict() for layer in self.layers],
            "metrics": self.metrics.snapshot(),
        }


def _scaled_cycles(cycles: int, scale: float) -> int:
    return max(1, int(round(cycles * scale)))


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
    durations: Dict[str, int],
    cache_stats: Dict[str, int],
) -> MetricsRegistry:
    """The unified metrics registry for one executed kernel schedule."""
    metrics = MetricsRegistry()
    metrics.counter("schedule.kernels").inc(len(schedule.invocations))
    metrics.gauge("schedule.makespan_cycles").set(placed.total_cycles)
    kind_cycles: Dict[str, int] = {}
    for inv in schedule.invocations:
        kind_cycles[inv.kind] = kind_cycles.get(inv.kind, 0) + durations[inv.name]
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
                cycles, counters = _simt_cost(design, inv.elements, inv.flops_per_element)
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
        recorder.record_schedule(
            placed, extra_args=_trace_span_args(schedule, kernel_stats)
        )

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
    phase_energy: Dict[str, float] = {}
    for layer_name in layer_order:
        invs = by_layer[layer_name]
        layer_counters = Counters()
        for inv in invs:
            layer_counters.merge(kernel_counters[inv.name])
        energy_uj = table.energy_picojoules(layer_counters) / 1e6
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
                energy_uj=energy_uj,
                mac_utilization_percent=utilization,
                macs=macs,
            )
        )
        phase_cycles[layer_phase] = phase_cycles.get(layer_phase, 0) + cycles
        phase_energy[layer_phase] = phase_energy.get(layer_phase, 0.0) + energy_uj
        total_counters.merge(layer_counters)

    power = make_power_report(
        design.name, total_counters, table, placed.total_cycles, design.soc
    )
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
        phase_energy_uj=phase_energy,
        resource_busy=placed.resource_busy,
        timing_cache=cache_stats,
        metrics=_model_metrics(schedule, placed, durations, cache_stats),
    )


# --------------------------------------------------------------------------- #
# Compiled step programs
# --------------------------------------------------------------------------- #

#: Resources a step program's integer resource indices refer to.
PROGRAM_RESOURCES = (MATRIX_RESOURCE, SIMT_RESOURCE, SMALL_MATRIX_RESOURCE)
_RESOURCE_INDEX = {name: index for index, name in enumerate(PROGRAM_RESOURCES)}


@dataclass(frozen=True, eq=False)
class StepProgram:
    """One kernel schedule compiled to pre-resolved integer arrays.

    A serving run executes the same per-request decode step -- one (model,
    bucketed context, unit) schedule -- iteration after iteration, each time
    inside a different batch.  Compiling resolves once everything that does
    not depend on the batch: every kernel's timing-cache result, its
    resource and dependencies as indices, and the per-layer counter sums
    the energy model folds.  :func:`execute_step_programs` then places a
    batch of programs on plain ints.
    """

    schedule: KernelSchedule
    #: Per kernel: index into :data:`PROGRAM_RESOURCES`.
    resources: Tuple[int, ...]
    #: Per kernel: simulated cycles before any duration scaling.
    cycles: Tuple[int, ...]
    #: Per kernel: ``_scaled_cycles(cycles, 1.0)``, the unscaled duration.
    durations: Tuple[int, ...]
    #: Per kernel: indices of the kernels it waits on, within the step.
    deps: Tuple[Tuple[int, ...], ...]
    #: Per kernel: the kernel's ``schedule_stats`` (trace annotations).
    stats: Tuple[Optional[Dict[str, int]], ...]
    #: First kernel index of every layer, in layer order.
    layer_starts: np.ndarray
    #: Counter keys in first-seen order over the layers, each mapped to
    #: where it first appears: (first kernel index of the first layer
    #: holding it, its rank among that layer's keys).
    keys: Dict[str, Tuple[int, int]]
    #: (layers x keys) counter sums, each an in-order fold of the layer's
    #: kernels; 0.0 where a layer lacks the key.
    layer_rows: np.ndarray

    def __len__(self) -> int:
        return len(self.resources)


def compile_step_program(schedule: KernelSchedule) -> StepProgram:
    """Resolve every kernel of ``schedule`` once, for repeated execution.

    Probes the timing cache exactly as one :func:`execute_schedule` of the
    schedule does: one lookup per kernel, same kernels, same order.
    """
    design = schedule.design
    index_of: Dict[str, int] = {}
    resources: List[int] = []
    cycles: List[int] = []
    deps: List[Tuple[int, ...]] = []
    stats: List[Optional[Dict[str, int]]] = []
    layer_of: Dict[str, int] = {}
    layer_starts: List[int] = []
    layer_counters: List[Counters] = []
    with phase("kernel_sim", model=schedule.model, kernels=len(schedule.invocations)):
        for position, inv in enumerate(schedule.invocations):
            kernel_stats = None
            if inv.kind == "gemm":
                target = (
                    schedule.small_design
                    if inv.resource == SMALL_MATRIX_RESOURCE and schedule.small_design
                    else design
                )
                run = run_gemm(target, inv.workload, inv.workload.dtype)
                kernel_cycles, counters = run.total_cycles, run.counters
                kernel_stats = run.kernel.schedule_stats
            elif inv.kind == "flash":
                run = run_flash_attention(design, inv.workload)
                kernel_cycles, counters = run.total_cycles, run.kernel.counters
                kernel_stats = run.kernel.schedule_stats
            else:
                kernel_cycles, counters = _simt_cost(
                    design, inv.elements, inv.flops_per_element
                )
            index_of[inv.name] = position
            resources.append(_RESOURCE_INDEX[inv.resource])
            cycles.append(kernel_cycles)
            deps.append(tuple(index_of[dep] for dep in inv.deps if dep))
            stats.append(kernel_stats)
            layer = layer_of.get(inv.layer)
            if layer is None:
                layer = layer_of[inv.layer] = len(layer_starts)
                layer_starts.append(position)
                layer_counters.append(Counters())
            layer_counters[layer].merge(counters)

    first_seen: Dict[str, Tuple[int, int]] = {}
    for start, counters in zip(layer_starts, layer_counters):
        for rank, key in enumerate(counters):
            first_seen.setdefault(key, (start, rank))
    column = {key: index for index, key in enumerate(first_seen)}
    layer_rows = np.zeros((len(layer_counters), len(column)))
    for layer, counters in enumerate(layer_counters):
        for key, value in counters.items():
            layer_rows[layer, column[key]] = value
    return StepProgram(
        schedule=schedule,
        resources=tuple(resources),
        cycles=tuple(cycles),
        durations=tuple(_scaled_cycles(value, 1.0) for value in cycles),
        deps=tuple(deps),
        stats=tuple(stats),
        layer_starts=np.array(layer_starts, dtype=np.int64),
        keys=first_seen,
        layer_rows=layer_rows,
    )


class ProgramPlacement(NamedTuple):
    """One batch of step programs, placed: what serving keeps of an iteration."""

    total_cycles: int
    #: Per batch row: the latest end cycle of any of the row's kernels.
    row_ends: Tuple[int, ...]
    kernel_count: int
    energy_uj: float
    resource_busy: Dict[str, int]


def execute_step_programs(
    programs: Sequence[StepProgram],
    prefixes: Sequence[str],
    table: EnergyTable,
    duration_scale: float = 1.0,
) -> ProgramPlacement:
    """List-schedule a batch of step programs, interleaved by position.

    Equal to ``execute_schedule(merge_schedules(list(zip(prefixes,
    schedules))), duration_scale)`` -- the placement, each row's latest
    kernel end, the kernel count, busy cycles and energy, float for float
    -- without building a merged schedule.  Every program must come from
    one design and unit layout.  ``prefixes`` name the rows' kernels in
    trace spans, recorded only while a trace recorder is active.
    """
    if duration_scale == 1.0:
        durations = [program.durations for program in programs]
    else:
        distinct = {id(program): program for program in programs}
        scaled = {
            key: tuple(_scaled_cycles(value, duration_scale) for value in program.cycles)
            for key, program in distinct.items()
        }
        durations = [scaled[id(program)] for program in programs]
    lengths = [len(program.resources) for program in programs]
    ends = [[0] * length for length in lengths]

    # Merged order is position-major, batch order within a position; a
    # kernel starts once its dependencies (all in its own row) have ended
    # and its resource is free.
    free = [0, 0, 0]
    busy = [0, 0, 0]
    live = list(zip(lengths, (program.resources for program in programs), durations,
                    (program.deps for program in programs), ends))
    position = 0
    for depth in sorted(set(lengths)):
        for position in range(position, depth):
            for _, resources, row_durations, deps, row_ends in live:
                ready = 0
                for dep in deps[position]:
                    if row_ends[dep] > ready:
                        ready = row_ends[dep]
                unit = resources[position]
                start = free[unit] if free[unit] > ready else ready
                duration = row_durations[position]
                free[unit] = row_ends[position] = start + duration
                busy[unit] += duration
        position = depth
        live = [row for row in live if row[0] > depth]

    recorder = trace_recorder()
    if recorder is not None:
        _record_programs(recorder, programs, prefixes, durations, ends)
    row_ends = tuple(max(row) for row in ends)
    resource_busy = {MATRIX_RESOURCE: busy[0], SIMT_RESOURCE: busy[1]}
    if programs[0].schedule.heterogeneous:
        resource_busy[SMALL_MATRIX_RESOURCE] = busy[2]
    return ProgramPlacement(
        total_cycles=max(row_ends),
        row_ends=row_ends,
        kernel_count=sum(lengths),
        energy_uj=_programs_energy_uj(programs, table),
        resource_busy=resource_busy,
    )


def _programs_energy_uj(programs: Sequence[StepProgram], table: EnergyTable) -> float:
    """The merged schedule's active energy, folded as execute_schedule does.

    The merged layers come in first-appearance order, i.e. by (first
    kernel position, batch row); every counter key is a sequential float
    fold over them (``np.add.accumulate``, never a pairwise sum).  Keys,
    and the energy components they charge, follow first-seen order.
    """
    first_row: Dict[int, int] = {}
    distinct: List[StepProgram] = []
    for row, program in enumerate(programs):
        if id(program) not in first_row:
            first_row[id(program)] = row
            distinct.append(program)
    first_seen: Dict[str, Tuple[int, int, int]] = {}
    for program in distinct:
        row = first_row[id(program)]
        for key, (start, rank) in program.keys.items():
            seen = (start, row, rank)
            current = first_seen.get(key)
            if current is None or seen < current:
                first_seen[key] = seen
    keys = sorted(first_seen, key=first_seen.__getitem__)
    column = {key: index for index, key in enumerate(keys)}

    # One table of every distinct program's layer rows over the merged key
    # columns, then the batch's layers gathered from it in merged order.
    blocks = []
    offset_of: Dict[int, int] = {}
    offset = 0
    for program in distinct:
        block = np.zeros((len(program.layer_starts), len(keys)))
        block[:, [column[key] for key in program.keys]] = program.layer_rows
        blocks.append(block)
        offset_of[id(program)] = offset
        offset += len(block)
    lengths = np.array([len(program.layer_starts) for program in programs])
    row_starts = np.cumsum(lengths) - lengths
    offsets = np.array([offset_of[id(program)] for program in programs])
    gather = np.arange(lengths.sum()) + np.repeat(offsets - row_starts, lengths)
    starts = np.concatenate([program.layer_starts for program in distinct])[gather]
    rows = np.repeat(np.arange(len(programs)), lengths)
    order = np.argsort(starts * len(programs) + rows)
    layer_rows = np.concatenate(blocks)[gather[order]]
    totals = np.add.accumulate(layer_rows, axis=0)[-1].tolist()

    components: Dict[str, float] = {}
    for key, value in zip(keys, totals):
        spec = table.spec_for(key)
        if spec is not None:
            components[spec.component] = (
                components.get(spec.component, 0.0) + spec.picojoules * value
            )
    return sum(components.values()) / 1e6


def _record_programs(
    recorder: TraceRecorder,
    programs: Sequence[StepProgram],
    prefixes: Sequence[str],
    durations: Sequence[Tuple[int, ...]],
    ends: Sequence[List[int]],
) -> None:
    """Emit the spans and flows ``record_schedule`` emits for the merged
    schedule: one span per kernel in merged order, then the dependency
    flows."""
    spans = [[0] * len(program) for program in programs]
    placed: List[Tuple[int, int]] = []
    for position in range(max(len(program) for program in programs)):
        for row, program in enumerate(programs):
            if position >= len(program):
                continue
            inv = program.schedule.invocations[position]
            prefix = prefixes[row]
            args: Dict[str, object] = {"layer": prefix + inv.layer, "phase": inv.phase}
            stats = program.stats[position]
            if stats:
                args["operations"] = stats.get("operation_count", 0)
                args["executed_operations"] = stats.get("executed_operations", 0)
                args["compressed"] = stats.get("extrapolated_operations", 0) > 0
            deps = [prefix + dep for dep in inv.deps if dep]
            if deps:
                args["deps"] = deps
            duration = durations[row][position]
            spans[row][position] = recorder.add_span(
                prefix + inv.name,
                process=UNITS_PROCESS,
                track=inv.resource,
                start=ends[row][position] - duration,
                duration=duration,
                category=inv.kind or "op",
                args=args,
            )
            placed.append((row, position))
    for row, position in placed:
        for dep in programs[row].deps[position]:
            recorder.add_flow(spans[row][dep], spans[row][position])


def run_model(
    model: Union[str, ModelSpec, LayerGraph],
    design: Union[str, DesignKind, DesignConfig] = DesignKind.VIRGO,
    heterogeneous: bool = False,
    dtype: DataType = DataType.FP16,
) -> ModelRunResult:
    """Lower and execute a full model workload on one design.

    ``model`` may be a zoo name (``"gpt-prefill"``), an explicit
    :class:`ModelSpec`, or an already-built :class:`LayerGraph`.
    """
    graph = model if isinstance(model, LayerGraph) else build_model(model)
    if isinstance(design, str):
        design = DesignKind(design.lower())
    with phase("lower", model=graph.name):
        schedule = lower_graph(graph, design, heterogeneous=heterogeneous, dtype=dtype)
    return execute_schedule(schedule)
