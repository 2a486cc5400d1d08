"""GEMM kernel model for the operand-decoupled (Hopper-style) design.

The matrix unit reads its operands directly from shared memory and is driven
by an asynchronous initiate/wait instruction pair, so the warps' instruction
streams shrink dramatically compared to the tightly-coupled designs.  What
remains per tile operation is:

* the two driving instructions plus loop/address bookkeeping,
* the accumulator tile's read-modify-write through the register file around
  every operation (the residual register pressure Hopper does not remove),
* the exposed portion of the shared-memory streaming latency.

Data delivery uses the cluster DMA (double buffered), and the final output
tile is stored from the register file to global memory by SIMT stores.
"""

from __future__ import annotations

from repro.config.soc import DesignConfig, IntegrationStyle
from repro.kernels.gemm.instruction_streams import core_coupled_iteration_streams
from repro.kernels.gemm.kernel import GemmKernel, tile_op_events
from repro.kernels.gemm.tiling import ThreadBlockTiling
from repro.sim.stats import Counters
from repro.tensorcore.hopper import HopperTensorCore


class OperandDecoupledGemmKernel(GemmKernel):
    """Tiled GEMM on the Hopper-style design."""

    STYLES = (IntegrationStyle.OPERAND_DECOUPLED,)
    MODEL = "gemm.operand_decoupled"

    #: Cycles of accumulator register-file read-modify-write exposed per tile
    #: operation (a 16x16 FP32 tile drained through the 8-lane writeback path).
    ACCUMULATOR_DRAIN_CYCLES = 32

    def __init__(self, design: DesignConfig) -> None:
        super().__init__(design)
        self.tensor_core = HopperTensorCore(design.matrix_unit, design.cluster.shared_memory)

    # ------------------------------------------------------------------ #
    # Steady-state iteration
    # ------------------------------------------------------------------ #

    def _iteration(self, tiling: ThreadBlockTiling):
        """One K iteration: cycles, per-iteration counters, instructions.

        Reads the design and ``tiling.iteration_shape`` only, so
        :meth:`simulate` memoizes it by that shape.
        """
        streams = core_coupled_iteration_streams(
            self.design, tiling, self.tensor_core.instruction_sequence()
        )
        execution = self.core.execute(streams.programs_for_core())

        # Matrix-unit occupancy per core: the per-core unit serializes the
        # tile operations of all its warps.
        operation = self.tensor_core.tile_operation()
        unit_cycles = streams.tile_ops_per_core * (
            operation.compute_cycles + self.ACCUMULATOR_DRAIN_CYCLES
        ) + operation.exposed_latency

        compute_cycles = max(execution.cycles, unit_cycles)
        dma_cycles = self.dma.transfer_cycles(tiling.input_bytes_per_iteration)
        dram_cycles = self.dram.transfer_cycles(
            tiling.input_bytes_per_iteration, include_latency=False
        )

        counters = tile_op_events(
            self.design, self.tensor_core, execution.counters, streams.tile_ops_per_core
        )
        nbytes = tiling.input_bytes_per_iteration
        counters.add("l2.bytes", nbytes)
        counters.add("dram.bytes", nbytes)
        counters.add("dma.bytes", nbytes)
        counters.add("dma.descriptors", 2)
        counters.add("smem.dma.write_words", nbytes // 4)
        instructions = streams.instructions_per_core() * self.design.cluster.cores
        return compute_cycles, max(dma_cycles, dram_cycles), counters, instructions

    def _epilogue(self, tiling: ThreadBlockTiling):
        """Per-output-tile boundary work.

        Three costs appear at the end of every output tile's K loop: the
        final wgmma's latency is fully exposed (no further operations to
        overlap it with), the accumulator tiles are stored from the register
        file to global memory, and the accumulators are zero-initialized for
        the next output tile.
        """
        nbytes = tiling.output_tile_bytes
        store_instructions = -(-nbytes // 32) * 2
        cluster = self.design.cluster
        issue_cycles = -(-store_instructions // cluster.cores)
        dram_cycles = self.dram.transfer_cycles(nbytes, include_latency=False)
        drain_cycles = self.tensor_core.tile_busy_cycles() + self.ACCUMULATOR_DRAIN_CYCLES

        elements_per_core = tiling.block_m * tiling.block_n // cluster.cores
        init_instructions_per_core = -(-elements_per_core // cluster.core.lanes)
        cycles = drain_cycles + max(issue_cycles, dram_cycles) + init_instructions_per_core

        counters = Counters()
        init_instructions = init_instructions_per_core * cluster.cores
        counters.add("core.issue.instructions", store_instructions + init_instructions)
        counters.add("core.alu.ops", init_instructions * cluster.core.lanes)
        counters.add("core.writeback.rf_write_words", init_instructions * cluster.core.lanes)
        counters.add("core.lsu.requests", store_instructions // 2)
        counters.add("core.issue.rf_read_words", store_instructions * cluster.core.lanes)
        counters.add("l2.bytes", nbytes)
        counters.add("dram.bytes", nbytes)
        return cycles, counters, store_instructions + init_instructions

    def _loop_wiring(self, compute_cycles: int, load_cycles: int):
        """Loads double buffer (fetch while the compute two iterations back
        still occupies the other buffer half); the first load of a new output
        tile cannot be prefetched -- its panel addresses are only programmed
        after the previous tile's epilogue has retired.
        """
        return dict(register_file=True, compute_cycles=compute_cycles, load_cycles=load_cycles)
