"""The tiled GEMM kernel loop every integration style runs.

A style supplies three pieces: ``_iteration`` times one steady-state K
iteration, ``_epilogue`` one output tile's write-back, and ``_loop_wiring``
picks the loop's wiring (:class:`GemmLoopSpec`) and its operation costs.
:class:`KernelModel` checks the style and builds the components, for the
FlashAttention mappings too; :class:`GemmKernel` runs the rest once for all
styles: the tiling, the memoized iteration, the scheduled loop and the
counters and instructions scaled to the whole GEMM.
"""

from __future__ import annotations

from typing import Tuple, Union

from repro.config.soc import DesignConfig, IntegrationStyle
from repro.kernels.gemm.base import (
    GemmKernelResult,
    GemmWorkload,
    ideal_mac_cycles,
    memoized_iteration,
)
from repro.kernels.gemm.schedule_loops import GemmLoopSpec, execute_gemm_loop
from repro.kernels.gemm.tiling import tiling_for_design
from repro.memory.dma import DmaEngine
from repro.memory.dram import DramChannel
from repro.sim.stats import Counters
from repro.simt.core import VortexCore
from repro.tensorcore.hopper import HopperTensorCore
from repro.tensorcore.volta import VoltaTensorCore


class KernelModel:
    """Construction shared by the GEMM styles and the FlashAttention mappings."""

    #: Integration styles the subclass models.
    STYLES: Tuple[IntegrationStyle, ...] = ()
    #: Iteration memo model name (``docs/perf-contract.md``, contract 10).
    MODEL = ""

    def __init__(self, design: DesignConfig) -> None:
        if design.style not in self.STYLES:
            names = " or ".join(style.value for style in self.STYLES)
            raise ValueError(f"{type(self).__name__} models the {names} design")
        self.design = design
        self.core = VortexCore(design.cluster.core)
        self.dram = DramChannel(design.soc.dram)
        self.dma = DmaEngine(design.cluster.dma, self.dram) if design.has_dma else None


class GemmKernel(KernelModel):
    """Whole-kernel simulation shared by the GEMM styles."""

    def simulate(self, workload: GemmWorkload, full_expansion: bool = False) -> GemmKernelResult:
        tiling = tiling_for_design(self.design, workload)
        # The iteration is (cycles..., counters, instructions); the first
        # cycle figure is the compute duration of one K step.
        *cycles, iter_counters, iter_instructions = memoized_iteration(
            self.MODEL, self.design, tiling.iteration_shape, lambda: self._iteration(tiling)
        )
        epilogue_cycles, epilogue_counters, epilogue_instructions = self._epilogue(tiling)

        # Each cluster works on its share of the (M, N) output tiles; the
        # slowest cluster's schedule determines the kernel runtime.
        spec = GemmLoopSpec(
            cluster_tiles=tiling.output_tiles_per_cluster(self.design.soc.clusters),
            k_iterations=tiling.k_iterations,
            epilogue_cycles=epilogue_cycles,
            **self._loop_wiring(*cycles),
        )
        schedule = execute_gemm_loop(spec, full_expansion=full_expansion)

        iterations = tiling.total_iterations
        counters = iter_counters.scaled(iterations)
        counters.merge(epilogue_counters.scaled(tiling.output_tiles))
        instructions = iter_instructions * iterations + epilogue_instructions * tiling.output_tiles

        return GemmKernelResult(
            design=self.design,
            workload=workload,
            total_cycles=schedule.total_cycles,
            ideal_mac_cycles=ideal_mac_cycles(self.design, workload),
            counters=counters,
            retired_instructions=instructions,
            iteration_cycles=cycles[0],
            phase_cycles=schedule.kind_cycles,
            resource_busy=schedule.resource_busy,
            schedule_stats=schedule.stats(),
        )


def tile_op_events(
    design: DesignConfig,
    tensor_core: Union[VoltaTensorCore, HopperTensorCore],
    core_counters: Counters,
    tile_ops_per_core: int,
) -> Counters:
    """One iteration's events on a core-coupled design.

    Every core's SIMT events, plus the matrix-unit events and MACs of every
    core's ``tile_ops_per_core`` tile operations on ``tensor_core``.
    """
    cores = design.cluster.cores
    counters = core_counters.scaled(cores)
    tile_ops = tile_ops_per_core * cores
    per_tile = Counters()
    tensor_core.record_tile_events(per_tile)
    counters.merge(per_tile.scaled(tile_ops))
    counters.add("matrix_unit.pe.macs", tile_ops * design.matrix_unit.tile_macs)
    return counters
