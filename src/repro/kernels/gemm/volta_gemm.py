"""GEMM kernel model for the tightly-coupled designs (Volta- and Ampere-style).

Both designs drive per-core tensor cores with synchronous HMMA set/step
instruction sequences and stage every operand and accumulator fragment
through the register file.  They differ only in data delivery:

* **Volta-style** -- the SIMT warps themselves copy the next K tile from
  global memory into shared memory with load/store instructions (each warp
  access assumed coalesced into one 32-byte request, see
  ``instruction_streams._copy_loop``), and the copy serializes with compute
  at the inter-iteration barrier.
* **Ampere-style** -- a cluster DMA engine performs the copy asynchronously,
  overlapping it with compute (double buffering), and the copy instructions
  disappear from the warps' streams.

The steady-state iteration is timed by replaying the per-warp instruction
streams through the issue-stage simulator (which also enforces the tensor
core's structural occupancy), and the whole kernel is assembled as an
operation graph so prologue, epilogue and (for Ampere) DMA overlap are
captured.
"""

from __future__ import annotations

from repro.config.soc import DesignConfig, IntegrationStyle
from repro.kernels.gemm.instruction_streams import core_coupled_iteration_streams
from repro.kernels.gemm.kernel import GemmKernel, tile_op_events
from repro.kernels.gemm.tiling import ThreadBlockTiling
from repro.sim.stats import Counters
from repro.tensorcore.volta import VoltaTensorCore


class TightlyCoupledGemmKernel(GemmKernel):
    """Tiled GEMM on the Volta-style or Ampere-style design."""

    STYLES = (IntegrationStyle.TIGHTLY_COUPLED, IntegrationStyle.TIGHTLY_COUPLED_DMA)
    MODEL = "gemm.tightly_coupled"

    def __init__(self, design: DesignConfig) -> None:
        super().__init__(design)
        self.tensor_core = VoltaTensorCore(design.matrix_unit)

    # ------------------------------------------------------------------ #
    # Steady-state iteration
    # ------------------------------------------------------------------ #

    def _iteration(self, tiling: ThreadBlockTiling):
        """One K iteration: cycles, per-iteration counters, instructions.

        Reads the design and ``tiling.iteration_shape`` only, so
        :meth:`simulate` memoizes it by that shape.
        """
        has_dma = self.design.has_dma
        streams = core_coupled_iteration_streams(
            self.design, tiling, self.tensor_core.hmma_sequence().as_instructions()
        )
        execution = self.core.execute(streams.programs_for_core())

        # Per-core cycles: the issue simulator already serializes HMMA steps
        # on the core's tensor unit, so its cycle count covers both the
        # instruction-processing and matrix-unit-occupancy bounds.
        compute_cycles = execution.cycles

        # Data delivery for the *next* iteration.
        if has_dma:
            dma_cycles = self.dma.transfer_cycles(tiling.input_bytes_per_iteration)
        else:
            dma_cycles = 0  # the copy is inside the instruction streams

        # Global-memory streaming bound (applies either way).
        dram_cycles = self.dram.transfer_cycles(
            tiling.input_bytes_per_iteration, include_latency=False
        )

        # Shared-memory bandwidth bound: every tile operation re-reads its
        # operand fragments from the shared memory.  This is the bound the
        # paper relieves with 2x more aggressive banking for the
        # tightly-coupled designs (Section 6.1.3).
        smem = self.design.cluster.shared_memory
        tile_ops = streams.tile_ops_per_core * self.design.cluster.cores
        fragment_bytes = tile_ops * self.design.matrix_unit.operand_bytes_per_tile
        smem_cycles = -(-fragment_bytes // smem.peak_bytes_per_cycle)
        compute_cycles = max(compute_cycles, smem_cycles)

        counters = tile_op_events(
            self.design, self.tensor_core, execution.counters, streams.tile_ops_per_core
        )
        # Data delivery traffic.
        nbytes = tiling.input_bytes_per_iteration
        counters.add("l2.bytes", nbytes)
        counters.add("dram.bytes", nbytes)
        if has_dma:
            counters.add("dma.bytes", nbytes)
            counters.add("dma.descriptors", 2)
            counters.add("smem.dma.write_words", nbytes // 4)
        else:
            counters.add("l1.bytes", nbytes)
            counters.add("l1.requests", nbytes // 64)
            counters.add("smem.core.write_words", nbytes // 4)
        instructions = streams.instructions_per_core() * self.design.cluster.cores
        return compute_cycles, dma_cycles, dram_cycles, counters, instructions

    def _epilogue(self, tiling: ThreadBlockTiling):
        """Result write-back of one output tile (register file -> global).

        The accumulators live in the register file, so the warps store them
        to global memory with store instructions at the end of the K loop and
        zero-initialize them for the next output tile.
        """
        nbytes = tiling.output_tile_bytes
        store_instructions = -(-nbytes // 32) * 2  # address + store per 32 B
        cluster = self.design.cluster
        elements_per_core = tiling.block_m * tiling.block_n // cluster.cores
        init_instructions_per_core = -(-elements_per_core // cluster.core.lanes)
        issue_cycles = -(-store_instructions // cluster.cores)
        dram_cycles = self.dram.transfer_cycles(nbytes, include_latency=False)
        cycles = max(issue_cycles, dram_cycles) + init_instructions_per_core

        counters = Counters()
        init_instructions = init_instructions_per_core * cluster.cores
        counters.add("core.issue.instructions", store_instructions + init_instructions)
        counters.add("core.alu.ops", store_instructions // 2 * cluster.core.lanes)
        counters.add("core.writeback.rf_write_words", init_instructions * cluster.core.lanes)
        counters.add("core.lsu.requests", store_instructions // 2)
        counters.add("core.issue.rf_read_words", store_instructions * cluster.core.lanes)
        counters.add("l2.bytes", nbytes)
        counters.add("dram.bytes", nbytes)
        return cycles, counters, store_instructions + init_instructions

    def _loop_wiring(self, compute_cycles: int, dma_cycles: int, dram_cycles: int):
        """The register-file wiring.  With a DMA the first compute
        waits for the first load.  Without one the same warps copy the next
        tile, so the inter-iteration barrier exposes the global-memory
        streaming time inside the compute duration.
        """
        if self.design.has_dma:
            return dict(
                register_file=True,
                compute_cycles=compute_cycles,
                load_cycles=max(dma_cycles, dram_cycles),
                first_compute_ready=dma_cycles,
            )
        return dict(
            register_file=True,
            compute_cycles=compute_cycles + dram_cycles,
            first_compute_ready=max(dram_cycles, compute_cycles // 4),
        )
