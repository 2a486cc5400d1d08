"""GEMM kernel model for Virgo's disaggregated cluster-level matrix unit.

One MMIO command makes the Gemmini-based unit compute an entire 128x64x128
operation tile straight out of shared memory, accumulating into its private
accumulator SRAM.  The SIMT cores only program the unit and the DMA and
synchronize (fence + cluster barrier), so the kernel's instruction count
collapses to a fraction of the core-coupled baselines'.

The software pipeline of Section 4.4.2 is reproduced explicitly: while the
matrix unit computes K-step ``k``, the DMA fetches the tiles for ``k + 1``
into the other half of the double buffer; at the end of each output tile the
accumulator is drained to global memory by the DMA, overlapped with the next
output tile's first loads.
"""

from __future__ import annotations

from repro.config.soc import DesignConfig, IntegrationStyle
from repro.core.gemmini import GemminiMatrixUnit
from repro.kernels.gemm.instruction_streams import virgo_iteration_streams
from repro.kernels.gemm.kernel import GemmKernel
from repro.kernels.gemm.tiling import ThreadBlockTiling
from repro.sim.stats import Counters


class VirgoGemmKernel(GemmKernel):
    """Tiled GEMM on the disaggregated Virgo design."""

    STYLES = (IntegrationStyle.DISAGGREGATED,)
    MODEL = "gemm.virgo"

    #: Per-iteration synchronization cost: the fence's final poll round-trip
    #: plus the cluster-wide barrier release.
    SYNC_OVERHEAD_CYCLES = 30

    def __init__(self, design: DesignConfig) -> None:
        super().__init__(design)
        self.matrix_unit = GemminiMatrixUnit(design.matrix_unit, design.cluster.shared_memory)

    # ------------------------------------------------------------------ #
    # Steady-state iteration
    # ------------------------------------------------------------------ #

    def _iteration(self, tiling: ThreadBlockTiling):
        """One K iteration: cycles, per-iteration counters, instructions.

        Reads the design and ``tiling.iteration_shape`` only, so
        :meth:`simulate` memoizes it by that shape.
        """
        streams = virgo_iteration_streams(self.design, tiling)
        # Only core 0's warp 0 leads; the other cores run the worker program.
        leader_programs = streams.programs_for_core()
        worker_programs = [streams.compute_warp] * streams.warps_per_core

        leader_execution = self.core.execute(leader_programs)
        worker_execution = self.core.execute(worker_programs)
        issue_cycles = max(leader_execution.cycles, worker_execution.cycles)

        operation = self.matrix_unit.operation_timing(
            tiling.block_m, tiling.block_n, tiling.block_k
        )
        matrix_cycles = operation.total_cycles + self.SYNC_OVERHEAD_CYCLES

        dma_cycles = self.dma.transfer_cycles(tiling.input_bytes_per_iteration)
        dram_cycles = self.dram.transfer_cycles(
            tiling.input_bytes_per_iteration, include_latency=False
        )

        counters = self._iteration_counters(
            leader_execution.counters, worker_execution.counters, tiling
        )
        instructions = (
            len(streams.compute_warp) * streams.warps_per_core * self.design.cluster.cores
            + len(streams.leader_extra)
        )
        return (
            max(matrix_cycles, issue_cycles),
            max(dma_cycles, dram_cycles),
            counters,
            instructions,
        )

    def _iteration_counters(
        self, leader_counters: Counters, worker_counters: Counters, tiling: ThreadBlockTiling
    ) -> Counters:
        counters = Counters()
        cores = self.design.cluster.cores
        counters.merge(leader_counters)
        counters.merge(worker_counters.scaled(cores - 1))

        # Matrix unit events for the whole operation tile.
        m, n, k = tiling.block_m, tiling.block_n, tiling.block_k
        counters.add("matrix_unit.pe.macs", m * n * k)
        operand_words = self.matrix_unit.smem_read_bytes(m, n, k) // 4
        counters.add("smem.matrix.read_words", operand_words)
        counters.add("matrix_unit.smem_interface_words", operand_words)
        counters.add("matrix_unit.control_events", 1)
        counters.add("accum.write_words", m * n)
        counters.add("accum.read_words", m * n)  # read-modify-write across K
        counters.add("mmio.stores", 6)
        counters.add("mmio.commands", 1)
        counters.add("mmio.loads", 3)
        counters.add("sync.barrier_requests", cores)
        counters.add("sync.barriers_released", 1)

        # DMA data delivery for the next iteration's tiles.
        nbytes = tiling.input_bytes_per_iteration
        counters.add("dma.bytes", nbytes)
        counters.add("dma.descriptors", 2)
        counters.add("l2.bytes", nbytes)
        counters.add("dram.bytes", nbytes)
        counters.add("smem.dma.write_words", nbytes // 4)
        return counters

    def _epilogue(self, tiling: ThreadBlockTiling):
        """Drain the accumulator tile to global memory with the DMA."""
        nbytes = tiling.output_tile_bytes
        cycles = self.dma.transfer_cycles(nbytes)
        counters = Counters()
        counters.add("dma.bytes", nbytes)
        counters.add("dma.descriptors", 1)
        counters.add("accum.read_words", nbytes // 4)
        counters.add("l2.bytes", nbytes)
        counters.add("dram.bytes", nbytes)
        counters.add("mmio.stores", 4)
        instructions = 8
        counters.add("core.issue.instructions", instructions)
        return cycles, counters, instructions

    def _loop_wiring(self, compute_cycles: int, load_cycles: int):
        """The load of each tile's first K step waits for the previous compute
        (buffer reuse); the epilogue drains on the DMA without blocking the
        next tile's compute (it writes a different accumulator half).
        """
        return dict(register_file=False, compute_cycles=compute_cycles, load_cycles=load_cycles)
