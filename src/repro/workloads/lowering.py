"""Lowering: map a layer graph onto kernel invocations, compile and run them.

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

Whole models and serving batches run on one executor.  A compile has two
halves.  The design-free half (:class:`LoweredModel`) holds the kernels'
names, kinds, phases, resources and dependencies as indices, each distinct
kernel once and each layer's sequence of them; :func:`lowered_model`
memoizes it in the :data:`LOWERED_MODELS` namespace per lowering key (spec,
fused flag, small-unit stride, dtype, unit pin), so the designs that lower
a model alike share it.  The per-design pass (:func:`compile_lowered`)
probes the process-wide timing cache (:mod:`repro.perf`) once per distinct
kernel, folds per-layer MACs and energy in whole femtojoules once per
distinct layer, and builds a plain-data :class:`StepProgram`.  One
list-scheduling loop places programs on plain ints:
``execute_step_programs`` a serving batch, ``run_model`` one model,
assembled into a :class:`ModelRunResult`.  Both equal the
``OperationGraph`` executor they replaced exactly, traces included
(``docs/perf-contract.md`` contract 7); ``tests/differential.py`` keeps
that executor as the oracle.  ``run_model`` memoizes each placed program
(:class:`PlacedModel`) in :data:`MODEL_PROGRAMS` by (:class:`ModelSpec`,
design fingerprint, ``heterogeneous``, dtype) (contract 11): a repeated
(model, design) pair only assembles its result.

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

import sys
from dataclasses import dataclass, field, replace
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

from repro.config.presets import DesignKind, make_design
from repro.config.soc import DataType, DesignConfig, IntegrationStyle
from repro.energy.model import EnergyTable
from repro.energy.power import PowerReport
from repro.kernels.flash_attention import (
    SOFTMAX_FLOPS_PER_ELEMENT,
    FlashAttentionWorkload,
)
from repro.kernels.gemm import GemmWorkload
from repro.kernels.heterogeneous import design_with_unit, small_unit_config, small_unit_stride
from repro.obs import MetricsRegistry, TraceRecorder, occupancy_percent, phase, trace_recorder
from repro.obs.trace import UNITS_PROCESS
from repro.perf import design_fingerprint, memoized, timing_cache
from repro.runner import run_flash_attention, run_gemm
from repro.sim.stats import Counters
from repro.simt.core import sweep_cost
from repro.workloads.graph import (
    AttentionLayer,
    ElementwiseLayer,
    LayerGraph,
    LinearLayer,
    MoeBlock,
    MoeFfnLayer,
    NormLayer,
)
from repro.workloads.models import ModelSpec, build_model, resolve_spec

#: Resource names kernels contend for during execution.
MATRIX_RESOURCE = "matrix"
SMALL_MATRIX_RESOURCE = "matrix.small"
SIMT_RESOURCE = "simt"

#: GEMMs below this MAC count ride the half-size unit in heterogeneous mode.
HETERO_SMALL_GEMM_MACS = 1 << 24


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


def _supports_fused_attention(design: DesignConfig) -> bool:
    return design.style in (
        IntegrationStyle.DISAGGREGATED,
        IntegrationStyle.TIGHTLY_COUPLED_DMA,
    )


def _small_design(design: DesignConfig, heterogeneous: bool) -> Optional[DesignConfig]:
    """The half-size secondary unit's design when ``heterogeneous``, else None."""
    if not heterogeneous:
        return None
    if design.style is not IntegrationStyle.DISAGGREGATED:
        raise ValueError("heterogeneous lowering requires the disaggregated design")
    return design_with_unit(design, small_unit_config(design.matrix_unit))


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
        key, lambda: sweep_cost(design, elements, flops_per_element, 1, 1)
    )


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
    are spread across both units in proportion to their throughput
    (:func:`small_unit_stride`), so both units finish their share at roughly
    the same time.
    """
    if small_design is None or workload.macs >= HETERO_SMALL_GEMM_MACS:
        return MATRIX_RESOURCE
    stride = small_unit_stride(design)
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
    consumers' first kernels.  A zero-cost layer lowers to no kernel and
    passes all of its own dependencies on to its consumers.
    """
    config = make_design(design, dtype) if isinstance(design, DesignKind) else design
    small_design = _small_design(config, heterogeneous)

    invocations: List[KernelInvocation] = []
    # Layer name -> the kernels its consumers wait on.
    outputs: Dict[str, Tuple[str, ...]] = {}

    for layer in graph.layers():
        deps = tuple(kernel for dep in layer.deps for kernel in outputs[dep])
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
                # dependents inherit all of their dependencies.
                outputs[layer.name] = deps
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
        outputs[layer.name] = (lowered[-1].name,)

    ideal = graph.total_macs() / float(config.soc.total_macs_per_cycle)
    return KernelSchedule(
        model=graph.name,
        design=config,
        invocations=invocations,
        heterogeneous=heterogeneous,
        small_design=small_design,
        ideal_mac_cycles=ideal,
    )

# --------------------------------------------------------------------------- #
# Results
# --------------------------------------------------------------------------- #


@dataclass
class LayerRunResult:
    """Aggregated metrics of all kernels lowered from one layer; energy in
    whole femtojoules."""

    layer: str
    phase: str
    kinds: Tuple[str, ...]
    kernels: Tuple[str, ...]
    cycles: int
    start: int
    end: int
    energy_fj: int
    mac_utilization_percent: float
    macs: int = 0

    @property
    def energy_uj(self) -> float:
        return self.energy_fj / 1e9

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
    #: Energy by phase, in whole femtojoules.
    phase_energy_fj: Dict[str, int] = field(default_factory=dict)
    resource_busy: Dict[str, int] = field(default_factory=dict)
    #: Busy cycles by kernel kind (each kind's kernel durations summed),
    #: kinds in first-seen order; ``to_dict`` carries them as the
    #: ``schedule.kind_cycles.*`` metrics.
    kind_cycles: Dict[str, int] = field(default_factory=dict)
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
    def phase_energy_uj(self) -> Dict[str, float]:
        return {phase: energy / 1e9 for phase, energy in self.phase_energy_fj.items()}

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
            "phase_energy_uj": self.phase_energy_uj,
            "resource_busy_cycles": dict(self.resource_busy),
            "layers": [layer.to_dict() for layer in self.layers],
            "metrics": self.metrics.snapshot(),
        }


def _scaled_cycles(cycles: int, scale: float) -> int:
    return max(1, int(round(cycles * scale)))


# --------------------------------------------------------------------------- #
# Compiled step programs
# --------------------------------------------------------------------------- #

#: Resources a step program's integer resource indices refer to.
PROGRAM_RESOURCES = (MATRIX_RESOURCE, SIMT_RESOURCE, SMALL_MATRIX_RESOURCE)
_RESOURCE_INDEX = {name: index for index, name in enumerate(PROGRAM_RESOURCES)}


class ProgramLayer(NamedTuple):
    """One layer of a :class:`StepProgram`: what its layer result keeps.

    ``phase`` is the first kernel's, ``kinds`` are in first-seen order,
    ``members`` index the layer's kernels in schedule order, ``energy_fj``
    prices the layer's counters in whole femtojoules, and the utilization
    is MAC-weighted over the layer's matrix kernels.
    """

    name: str
    phase: str
    kinds: Tuple[str, ...]
    members: Tuple[int, ...]
    energy_fj: int
    macs: int
    mac_utilization_percent: float


@dataclass(frozen=True, eq=False)
class StepProgram:
    """One kernel schedule compiled to plain data: everything that does not
    depend on what runs alongside, resolved once.  It holds no schedule,
    invocation, workload or design object (``docs/perf-contract.md``
    contract 7).  A model run places its program once, into the
    :class:`PlacedModel` the model-program memo keeps (contract 11).
    """

    model: str
    heterogeneous: bool
    ideal_mac_cycles: float
    #: Per kernel: name, kind, phase and the index of its layer.
    names: Tuple[str, ...]
    kinds: Tuple[str, ...]
    phases: Tuple[str, ...]
    layer_of: Tuple[int, ...]
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
    #: Per layer, in first-appearance order.
    layers: Tuple[ProgramLayer, ...]
    #: Counter totals over every kernel, keys in first-seen order.
    counters: Dict[str, float]
    #: Active energy of every kernel, in whole femtojoules.
    energy_fj: int

    def __len__(self) -> int:
        return len(self.resources)


class LoweredModel(NamedTuple):
    """The design-free half of a compile, as plain data: no graph, schedule
    or design (``docs/perf-contract.md`` contract 11)."""

    model: str
    heterogeneous: bool
    #: The graph's matrix MACs (0 for a bare schedule, which brings its own
    #: ideal cycles).
    macs: int
    #: Per kernel, as in :class:`StepProgram`, and the index of its distinct
    #: kernel.
    names: Tuple[str, ...]
    kinds: Tuple[str, ...]
    phases: Tuple[str, ...]
    layer_of: Tuple[int, ...]
    resources: Tuple[int, ...]
    deps: Tuple[Tuple[int, ...], ...]
    slots: Tuple[int, ...]
    #: Per distinct kernel, in first-appearance order: its first invocation.
    kernels: Tuple[KernelInvocation, ...]
    #: Per layer: name, phase, members and the index of its distinct
    #: sequence of slots.
    layers: Tuple[Tuple[str, str, Tuple[int, ...], int], ...]
    sequences: Tuple[Tuple[int, ...], ...]

    def ideal_mac_cycles(self, design: DesignConfig) -> float:
        return self.macs / float(design.soc.total_macs_per_cycle)


def _design_free(schedule: KernelSchedule, macs: int) -> LoweredModel:
    """The half of compiling ``schedule`` that no design changes.  A kernel
    is identified by its kind, unit, workload and reported MACs, a SIMT
    kernel by its elements and FLOPs per element; names are interned."""
    invocations = schedule.invocations
    slot_of: Dict[object, int] = {}
    kernels: List[KernelInvocation] = []
    index_of: Dict[str, int] = {}
    layer_index: Dict[str, int] = {}
    slots, deps, layer_of = [], [], []
    members: List[List[int]] = []
    for position, inv in enumerate(invocations):
        if inv.kind == "gemm" or inv.kind == "flash":
            key = (inv.kind, inv.resource, inv.workload, inv.reported_macs)
        else:
            key = (inv.kind, inv.elements, inv.flops_per_element)
        try:
            slot = slot_of.get(key)
        except TypeError:  # an unhashable workload is a kernel of its own
            key, slot = position, None
        if slot is None:
            slot = slot_of[key] = len(kernels)
            kernels.append(inv)
        slots.append(slot)
        index_of[inv.name] = position
        deps.append(tuple(index_of[dep] for dep in inv.deps if dep))
        layer = layer_index.setdefault(inv.layer, len(members))
        if layer == len(members):
            members.append([])
        layer_of.append(layer)
        members[layer].append(position)
    sequences: Dict[Tuple[int, ...], int] = {}
    layers = tuple(
        (sys.intern(name), invocations[indices[0]].phase, tuple(indices),
         sequences.setdefault(tuple([slots[k] for k in indices]), len(sequences)))
        for name, indices in zip(layer_index, members)
    )
    return LoweredModel(
        schedule.model, schedule.heterogeneous, macs,
        names=tuple([sys.intern(inv.name) for inv in invocations]),
        kinds=tuple([inv.kind for inv in invocations]),
        phases=tuple([inv.phase for inv in invocations]),
        layer_of=tuple(layer_of),
        resources=tuple([_RESOURCE_INDEX[inv.resource] for inv in invocations]),
        deps=tuple(deps), slots=tuple(slots), kernels=tuple(kernels),
        layers=layers, sequences=tuple(sequences),
    )


class _KernelRecord(NamedTuple):
    """One distinct kernel of a compile: what its timing-cache probe gave."""

    kind: str
    cycles: int
    duration: int
    counters: Counters
    stats: Optional[Dict[str, int]]
    utilization: float
    macs: int


def _probe_kernel(
    design: DesignConfig, small_design: Optional[DesignConfig], inv: KernelInvocation
) -> _KernelRecord:
    """Probe the timing cache for ``inv`` on ``design``, or on
    ``small_design`` for a GEMM on the small unit: one lookup, as a record."""
    kernel, macs = None, 0
    if inv.kind == "gemm":
        target = small_design if inv.resource == SMALL_MATRIX_RESOURCE and small_design else design
        kernel = run_gemm(target, inv.workload, inv.workload.dtype).kernel
        macs = inv.reported_macs if inv.reported_macs is not None else inv.workload.macs
    elif inv.kind == "flash":
        kernel = run_flash_attention(design, inv.workload).kernel
        macs = inv.workload.gemm_macs
    if kernel is None:
        cycles, counters = _simt_cost(design, inv.elements, inv.flops_per_element)
        stats, utilization = None, 0.0
    else:
        cycles, counters = kernel.total_cycles, kernel.counters
        stats, utilization = kernel.schedule_stats, kernel.mac_utilization
    return _KernelRecord(
        inv.kind, cycles, _scaled_cycles(cycles, 1.0), counters, stats, utilization, macs
    )


class _LayerFold(NamedTuple):
    """What a layer's sequence of kernel records folds to."""

    kinds: Tuple[str, ...]
    counters: Counters
    energy_fj: int
    macs: int
    mac_utilization_percent: float


def _fold_layer(kernels: Sequence[_KernelRecord], table: EnergyTable) -> _LayerFold:
    """Fold a layer's kernels in order: counters kernel by kernel, their
    energy, and MAC-weighted utilization."""
    counters = Counters()
    for kernel in kernels:
        counters.merge(kernel.counters)
    macs = sum(kernel.macs for kernel in kernels)
    weighted = sum(kernel.utilization * kernel.macs for kernel in kernels)
    return _LayerFold(
        kinds=tuple(dict.fromkeys(kernel.kind for kernel in kernels)),
        counters=counters,
        energy_fj=table.energy_femtojoules(counters),
        macs=macs,
        mac_utilization_percent=100.0 * weighted / macs if macs else 0.0,
    )


def compile_lowered(
    lowered: LoweredModel, design: DesignConfig, ideal_mac_cycles: float
) -> StepProgram:
    """The per-design half of a compile: ``lowered`` on ``design`` and, when
    heterogeneous, its small unit.

    Each distinct kernel probes the timing cache once, in first-appearance
    order, and one ``credit_hits`` call counts the repeats as the hits their
    probes would have been.  Each distinct sequence of slots folds once; the
    totals add each fold times its layers (whole counts and energy, so in
    any order).
    """
    small_design = _small_design(design, lowered.heterogeneous)
    kernels = len(lowered.slots)
    with phase("kernel_sim", model=lowered.model, kernels=kernels):
        records = [_probe_kernel(design, small_design, inv) for inv in lowered.kernels]
        timing_cache().credit_hits(kernels - len(records))
    table = EnergyTable.for_design(design.style)
    folds = [
        _fold_layer([records[slot] for slot in sequence], table) for sequence in lowered.sequences
    ]
    uses = [0] * len(folds)
    layers = []
    for name, first_phase, members, sequence in lowered.layers:
        fold = folds[sequence]
        uses[sequence] += 1
        layers.append(
            ProgramLayer(name, first_phase, fold.kinds, members, fold.energy_fj, fold.macs,
                         fold.mac_utilization_percent)
        )
    # A repeated fold's keys were all seen at its first layer, so the folds
    # in first-appearance order give the keys in first-seen order.
    counters: Dict[str, float] = {}
    for fold, count in zip(folds, uses):
        for key, value in fold.counters.items():
            counters[key] = counters.get(key, 0.0) + count * value
    kernel_records = [records[slot] for slot in lowered.slots]
    return StepProgram(
        model=lowered.model,
        heterogeneous=lowered.heterogeneous,
        ideal_mac_cycles=ideal_mac_cycles,
        names=lowered.names,
        kinds=lowered.kinds,
        phases=lowered.phases,
        layer_of=lowered.layer_of,
        resources=lowered.resources,
        cycles=tuple(record.cycles for record in kernel_records),
        durations=tuple(record.duration for record in kernel_records),
        deps=lowered.deps,
        stats=tuple(record.stats for record in kernel_records),
        layers=tuple(layers),
        counters=counters,
        energy_fj=sum(fold.energy_fj * count for fold, count in zip(folds, uses)),
    )


def compile_step_program(schedule: KernelSchedule) -> StepProgram:
    """Resolve ``schedule`` once, for repeated execution."""
    return compile_lowered(_design_free(schedule, 0), schedule.design, schedule.ideal_mac_cycles)


def pin_matrix_unit(schedule: KernelSchedule, unit: str) -> KernelSchedule:
    """``schedule`` with every matrix-unit GEMM on ``unit``."""
    matrix_units = (MATRIX_RESOURCE, SMALL_MATRIX_RESOURCE)
    return replace(schedule, invocations=[
        replace(inv, resource=unit) if inv.kind == "gemm" and inv.resource in matrix_units else inv
        for inv in schedule.invocations
    ])


#: Timing-cache namespace of design-free lowered models (contract 11).
LOWERED_MODELS = "lowering.lowered_models"


def lowered_model(
    model: Union[ModelSpec, LayerGraph],
    design: DesignConfig,
    heterogeneous: bool,
    dtype: DataType,
    unit: Optional[str] = None,
) -> LoweredModel:
    """``model`` lowered for ``design``, design-free; ``unit`` pins its
    GEMMs onto one matrix unit, as serving does.  A spec's lowering is
    memoized in :data:`LOWERED_MODELS` by (spec, fused flag, small-unit
    stride or None, dtype, unit), all of the design ``lower_graph`` reads; a
    :class:`LayerGraph` lowers afresh."""

    def lower() -> LoweredModel:
        graph = model if isinstance(model, LayerGraph) else build_model(model)
        schedule = lower_graph(graph, design, heterogeneous=heterogeneous, dtype=dtype)
        if unit is not None:
            schedule = pin_matrix_unit(schedule, unit)
        return _design_free(schedule, graph.total_macs())

    if isinstance(model, LayerGraph):
        with phase("lower", model=model.name):
            return lower()
    fused = _supports_fused_attention(design)
    stride = small_unit_stride(design) if heterogeneous else None
    with phase("lower", model=model.family):
        return memoized(LOWERED_MODELS, lambda: (model, fused, stride, dtype, unit), lower)


def _place(
    programs: Sequence[StepProgram], durations: Sequence[Tuple[int, ...]]
) -> Tuple[List[List[int]], List[int]]:
    """The one placement loop, for a serving batch or a one-row model run.

    Kernels go position-major, batch order within a position (the merged
    schedule's order); each starts once its dependencies (all in its own
    row) have ended and its resource is free.  Returns every kernel's end
    cycle per row, and the busy cycles of each of :data:`PROGRAM_RESOURCES`.
    """
    lengths = [len(program.resources) for program in programs]
    ends = [[0] * length for length in lengths]
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
    return ends, busy


def _resource_busy(program: StepProgram, busy: List[int]) -> Dict[str, int]:
    """Busy cycles by resource name: the small unit only when heterogeneous."""
    resource_busy = {MATRIX_RESOURCE: busy[0], SIMT_RESOURCE: busy[1]}
    if program.heterogeneous:
        resource_busy[SMALL_MATRIX_RESOURCE] = busy[2]
    return resource_busy


class ProgramPlacement(NamedTuple):
    """One batch of step programs, placed: what serving keeps of an iteration."""

    total_cycles: int
    #: Per batch row: the latest end cycle of any of the row's kernels.
    row_ends: Tuple[int, ...]
    kernel_count: int
    #: Active energy of every row, in whole femtojoules.
    energy_fj: int
    resource_busy: Dict[str, int]


def execute_step_programs(
    programs: Sequence[StepProgram],
    prefixes: Sequence[str],
    duration_scale: float = 1.0,
) -> ProgramPlacement:
    """List-schedule a batch of step programs, interleaved by position.

    Equal to the merged schedule of the rows' kernel schedules run on an
    ``OperationGraph`` (the oracle in ``tests/differential.py``): the
    placement, each row's latest kernel end, the kernel count, busy cycles
    and energy, exactly; the energy is the sum of the rows' program
    energies.  Every program must come from one design and unit layout.
    ``prefixes`` name the rows' kernels in trace spans, recorded only while
    a trace recorder is active.
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
    ends, busy = _place(programs, durations)
    recorder = trace_recorder()
    if recorder is not None:
        _record_programs(recorder, programs, prefixes, durations, ends)
    row_ends = tuple(max(row) for row in ends)
    return ProgramPlacement(
        total_cycles=max(row_ends),
        row_ends=row_ends,
        kernel_count=sum(map(len, ends)),
        energy_fj=sum(program.energy_fj for program in programs),
        resource_busy=_resource_busy(programs[0], busy),
    )


def _record_programs(
    recorder: TraceRecorder,
    programs: Sequence[Union[StepProgram, PlacedModel]],
    prefixes: Sequence[str],
    durations: Sequence[Tuple[int, ...]],
    ends: Sequence[Sequence[int]],
) -> None:
    """Emit the spans and flows ``TraceRecorder.record_schedule`` emits for
    the merged schedule: one span per kernel in merged order, then the
    dependency flows.  A :class:`PlacedModel` carries the per-kernel fields
    read here, so a model run traces through this too."""
    spans = [[0] * len(program) for program in programs]
    placed: List[Tuple[int, int]] = []
    for position in range(max(len(program) for program in programs)):
        for row, program in enumerate(programs):
            if position >= len(program):
                continue
            prefix = prefixes[row]
            args: Dict[str, object] = {
                "layer": prefix + program.layers[program.layer_of[position]].name,
                "phase": program.phases[position],
            }
            stats = program.stats[position]
            if stats:
                args["operations"] = stats.get("operation_count", 0)
                args["executed_operations"] = stats.get("executed_operations", 0)
                args["compressed"] = stats.get("extrapolated_operations", 0) > 0
            deps = program.deps[position]
            if deps:
                args["deps"] = [prefix + program.names[dep] for dep in deps]
            duration = durations[row][position]
            spans[row][position] = recorder.add_span(
                prefix + program.names[position],
                process=UNITS_PROCESS,
                track=PROGRAM_RESOURCES[program.resources[position]],
                start=ends[row][position] - duration,
                duration=duration,
                category=program.kinds[position] or "op",
                args=args,
            )
            placed.append((row, position))
    for row, position in placed:
        for dep in programs[row].deps[position]:
            recorder.add_flow(spans[row][dep], spans[row][position])


# --------------------------------------------------------------------------- #
# Whole models
# --------------------------------------------------------------------------- #

#: Timing-cache namespace of placed model programs (contract 11).
MODEL_PROGRAMS = "lowering.model_programs"


class PlacedLayer(NamedTuple):
    """One layer of a :class:`PlacedModel`: the fields of its
    :class:`LayerRunResult`, in that class's order."""

    name: str
    phase: str
    kinds: Tuple[str, ...]
    kernels: Tuple[str, ...]
    cycles: int
    start: int
    end: int
    energy_fj: int
    mac_utilization_percent: float
    macs: int


@dataclass(frozen=True, eq=False)
class PlacedModel:
    """A model program placed once, as plain data: what a
    :class:`ModelRunResult` and its trace read, and nothing else.

    A one-row placement at scale 1.0 is a function of the program alone, so
    the model-program memo keeps this (``docs/perf-contract.md``
    contract 11).  The per-kernel fields are the :class:`StepProgram`'s that
    :func:`_record_programs` reads, plus each kernel's end cycle.
    """

    model: str
    heterogeneous: bool
    ideal_mac_cycles: float
    #: Per kernel: name, kind, phase, layer index, resource index, duration,
    #: dependency indices, ``schedule_stats`` and end cycle.
    names: Tuple[str, ...]
    kinds: Tuple[str, ...]
    phases: Tuple[str, ...]
    layer_of: Tuple[int, ...]
    resources: Tuple[int, ...]
    durations: Tuple[int, ...]
    deps: Tuple[Tuple[int, ...], ...]
    stats: Tuple[Optional[Dict[str, int]], ...]
    ends: Tuple[int, ...]
    total_cycles: int
    #: Busy cycles by resource name: the small unit only when heterogeneous.
    resource_busy: Dict[str, int]
    #: Per layer, in first-appearance order.
    layers: Tuple[PlacedLayer, ...]
    phase_cycles: Dict[str, int]
    #: Energy by phase, in whole femtojoules.
    phase_energy_fj: Dict[str, int]
    #: Busy cycles by kernel kind, in first-seen order.
    kind_cycles: Dict[str, int]
    #: The model's counter totals, keys in first-seen order.
    counters: Dict[str, float]
    #: Their energy by component, in whole femtojoules: the power report's.
    energy_by_component_fj: Dict[str, int]

    def __len__(self) -> int:
        return len(self.resources)


def _place_model(program: StepProgram, design: DesignConfig) -> PlacedModel:
    """Place ``program`` as one row at scale 1.0; aggregate per layer, per
    phase, per kind and model-wide, and price the counters with ``design``'s
    table."""
    durations = program.durations
    names = program.names
    with phase("list_schedule", model=program.model):
        (ends,), busy = _place([program], [durations])
        total_cycles = max(ends, default=0)
        # One pass over the kernels: busy cycles per layer and per kind, and
        # each layer's first start and last end.
        count = len(program.layers)
        layer_cycles, starts, last_ends = [0] * count, [total_cycles] * count, [0] * count
        kind_cycles: Dict[str, int] = {}
        for kind, layer, duration, end in zip(program.kinds, program.layer_of, durations, ends):
            layer_cycles[layer] += duration
            starts[layer] = min(starts[layer], end - duration)
            last_ends[layer] = max(last_ends[layer], end)
            kind_cycles[kind] = kind_cycles.get(kind, 0) + duration
        layers: List[PlacedLayer] = []
        phase_cycles: Dict[str, int] = {}
        phase_energy: Dict[str, int] = {}
        for index, layer in enumerate(program.layers):
            cycles = layer_cycles[index]
            layers.append(
                PlacedLayer(
                    name=layer.name,
                    phase=layer.phase,
                    kinds=layer.kinds,
                    kernels=tuple([names[k] for k in layer.members]),
                    cycles=cycles,
                    start=starts[index],
                    end=last_ends[index],
                    energy_fj=layer.energy_fj,
                    mac_utilization_percent=layer.mac_utilization_percent,
                    macs=layer.macs,
                )
            )
            phase_cycles[layer.phase] = phase_cycles.get(layer.phase, 0) + cycles
            phase_energy[layer.phase] = phase_energy.get(layer.phase, 0) + layer.energy_fj
        return PlacedModel(
            model=program.model,
            heterogeneous=program.heterogeneous,
            ideal_mac_cycles=program.ideal_mac_cycles,
            names=names,
            kinds=program.kinds,
            phases=program.phases,
            layer_of=program.layer_of,
            resources=program.resources,
            durations=durations,
            deps=program.deps,
            stats=program.stats,
            ends=tuple(ends),
            total_cycles=total_cycles,
            resource_busy=_resource_busy(program, busy),
            layers=tuple(layers),
            phase_cycles=phase_cycles,
            phase_energy_fj=phase_energy,
            kind_cycles=kind_cycles,
            counters=program.counters,
            energy_by_component_fj=EnergyTable.for_design(design.style).energy_by_component(
                program.counters
            ),
        )


def _model_program(
    model: Union[str, ModelSpec, LayerGraph],
    design: DesignConfig,
    heterogeneous: bool,
    dtype: DataType,
) -> PlacedModel:
    """``model``'s program on ``design``, compiled and placed, memoized by
    content.

    A zoo name or :class:`ModelSpec` is kept in the :data:`MODEL_PROGRAMS`
    namespace under (spec, design fingerprint, ``heterogeneous``, dtype),
    and a hit credits the program's kernel probes as timing-cache hits.  A
    miss compiles the model's lowering (:func:`lowered_model`, memoized per
    lowering key) on the design.  A :class:`LayerGraph` has no content key
    and lowers, compiles and places on every call, as does everything while
    the cache is disabled.
    """
    cache = timing_cache()
    key = None
    if not isinstance(model, LayerGraph):
        model = resolve_spec(model) if isinstance(model, str) else model
        if cache.enabled:
            key = (model, design_fingerprint(design), heterogeneous, dtype)
            placed = cache.namespace(MODEL_PROGRAMS).get(key)
            if placed is not None:
                cache.credit_hits(len(placed))
                return placed
    lowered = lowered_model(model, design, heterogeneous, dtype)
    program = compile_lowered(lowered, design, lowered.ideal_mac_cycles(design))
    placed = _place_model(program, design)
    if key is not None:
        cache.namespace(MODEL_PROGRAMS)[key] = placed
    return placed


def _model_result(
    placed: PlacedModel, design: DesignConfig, cache_stats: Dict[str, int]
) -> ModelRunResult:
    """Assemble a placed model's result, and its trace while a recorder is
    active.  Everything mutable in the result is built fresh on every call."""
    recorder = trace_recorder()
    if recorder is not None:
        _record_programs(recorder, [placed], ("",), [placed.durations], [placed.ends])
    total_cycles = placed.total_cycles
    counters = Counters(placed.counters)
    resource_busy = dict(placed.resource_busy)

    metrics = MetricsRegistry()
    metrics.counter("schedule.kernels").inc(len(placed))
    metrics.gauge("schedule.makespan_cycles").set(total_cycles)
    for kind, cycles in sorted(placed.kind_cycles.items()):
        metrics.counter(f"schedule.kind_cycles.{kind}").inc(cycles)
    for resource, cycles in sorted(resource_busy.items()):
        metrics.counter(f"unit.busy_cycles.{resource}").inc(cycles)
    for resource, percent in occupancy_percent(resource_busy, total_cycles).items():
        metrics.gauge(f"unit.occupancy_percent.{resource}").set(percent)
    metrics.counter("timing_cache.hits", diagnostic=True).inc(cache_stats["hits"])
    metrics.counter("timing_cache.misses", diagnostic=True).inc(cache_stats["misses"])
    return ModelRunResult(
        model=placed.model,
        design=design,
        total_cycles=total_cycles,
        layers=[LayerRunResult(*layer) for layer in placed.layers],
        power=PowerReport(
            design.name, total_cycles, design.soc.clock_mhz, dict(placed.energy_by_component_fj)
        ),
        counters=counters,
        ideal_mac_cycles=placed.ideal_mac_cycles,
        heterogeneous=placed.heterogeneous,
        phase_cycles=dict(placed.phase_cycles),
        phase_energy_fj=dict(placed.phase_energy_fj),
        resource_busy=resource_busy,
        kind_cycles=dict(placed.kind_cycles),
        timing_cache=cache_stats,
        metrics=metrics,
    )


def run_model(
    model: Union[str, ModelSpec, LayerGraph],
    design: Union[str, DesignKind, DesignConfig] = DesignKind.VIRGO,
    heterogeneous: bool = False,
    dtype: DataType = DataType.FP16,
) -> ModelRunResult:
    """Lower, compile and execute a full model workload on one design.

    ``model`` may be a zoo name (``"gpt-prefill"``), an explicit
    :class:`ModelSpec`, or an already-built :class:`LayerGraph`.  The
    placed program of a name or spec is memoized (:func:`_model_program`).
    """
    if isinstance(design, str):
        design = DesignKind(design.lower())
    config = make_design(design, dtype) if isinstance(design, DesignKind) else design
    cache = timing_cache()
    hits, misses = cache.hits, cache.misses
    placed = _model_program(model, config, heterogeneous, dtype)
    cache_stats = {"hits": cache.hits - hits, "misses": cache.misses - misses}
    with phase("list_schedule", model=placed.model):
        return _model_result(placed, config, cache_stats)
