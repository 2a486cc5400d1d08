"""Per-warp instruction stream builders for the GEMM kernels.

Each builder produces the steady-state instruction stream one warp issues
during a single K-loop iteration of the tiled GEMM, for a given design.  The
streams drive both the issue-stage timing simulation and the per-instruction
energy accounting, and their lengths determine the retired-instruction
comparison of Section 6.1.1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.config.soc import DesignConfig, IntegrationStyle, MatrixUnitConfig
from repro.isa.instructions import Instruction, OpClass
from repro.isa.program import WarpProgram
from repro.kernels.gemm.tiling import ThreadBlockTiling


@dataclass
class IterationStreams:
    """Warp programs for one steady-state K iteration on one core."""

    #: Program executed by each compute warp of the core.
    compute_warp: WarpProgram
    #: Extra program executed by the core's warp 0 (DMA programming, MMIO).
    leader_extra: WarpProgram
    #: Number of matrix-unit tile operations one core performs per iteration.
    tile_ops_per_core: int
    #: Number of warps per core that execute ``compute_warp``.
    warps_per_core: int

    def programs_for_core(self) -> list:
        """The per-warp programs handed to the issue simulator.

        Warp 0 runs the compute program followed by the leader's extra work;
        the other warps share the ``compute_warp`` object itself, so the
        core decodes it once (programs passed to ``execute`` are read-only).
        """
        programs = [self.compute_warp] * self.warps_per_core
        if programs:
            programs[0] = WarpProgram(name="warp0").extend(self.compute_warp).extend(
                self.leader_extra
            )
        return programs

    def instructions_per_core(self) -> int:
        return len(self.compute_warp) * self.warps_per_core + len(self.leader_extra)


def _copy_loop(program: WarpProgram, nbytes_per_warp: int) -> None:
    """Global -> shared copy executed by one warp (no-DMA designs).

    Each step moves one 4-byte word per lane (32 bytes per warp instruction
    after coalescing): address generation, a global load, and a shared store.
    """
    bytes_per_instruction = 32
    steps = max(0, -(-nbytes_per_warp // bytes_per_instruction))
    for _ in range(steps):
        program.emit_class(OpClass.ALU, reg_reads=2, reg_writes=1)
        program.emit_class(
            OpClass.LOAD_GLOBAL, reg_reads=1, reg_writes=1, bytes_accessed=bytes_per_instruction
        )
        program.emit_class(
            OpClass.STORE_SHARED, reg_reads=2, reg_writes=0, bytes_accessed=bytes_per_instruction
        )


def _fragment_loads(program: WarpProgram, unit: MatrixUnitConfig, lanes: int) -> None:
    """Shared-memory -> register-file loads of one tile's A and B fragments.

    Address generation is amortized: one add covers two loads (the second
    load uses an immediate offset from the same base register).
    """
    width = 4 * lanes  # bytes per load instruction
    a_bytes = unit.tile_m * unit.tile_k * unit.dtype.bytes
    b_bytes = unit.tile_k * unit.tile_n * unit.dtype.bytes
    for fragment_bytes in (a_bytes, b_bytes):
        for index in range(max(1, -(-fragment_bytes // width))):
            if index % 2 == 0:
                program.emit_class(OpClass.ALU, reg_reads=2, reg_writes=1)
            program.emit_class(OpClass.LOAD_SHARED, reg_reads=1, reg_writes=1, bytes_accessed=width)


def core_coupled_iteration_streams(
    design: DesignConfig,
    tiling: ThreadBlockTiling,
    tile_instructions: Sequence[Instruction],
) -> IterationStreams:
    """Streams for the per-core tensor-core designs (Volta-, Ampere-, Hopper-style).

    Each warp issues its share of the iteration's tile operations, each one
    ``tile_instructions`` (the HMMA set/step sequence, or Hopper's initiate
    and wait) between address and K-loop bookkeeping.  The tightly-coupled
    designs first load both operand fragments into the register file; the
    operand-decoupled unit reads them from shared memory itself, and its
    accumulator read-modify-write rides on the wait instruction.  Without a
    DMA the warps copy the next K tile themselves; with one, the leader warp
    programs the DMA instead.
    """
    cluster = design.cluster
    unit = design.matrix_unit
    lanes = cluster.core.lanes
    warps = cluster.core.warps

    tile_ops_per_iteration = tiling.macs_per_iteration // unit.tile_macs
    tile_ops_per_core = max(1, tile_ops_per_iteration // cluster.cores)
    tile_ops_per_warp = max(1, tile_ops_per_core // warps)

    compute = WarpProgram(name="compute")
    for _ in range(tile_ops_per_warp):
        # Tile base address computation for A, B and the accumulator.
        compute.emit_class(OpClass.ALU, repeat=4, reg_reads=2, reg_writes=1)
        if design.style is not IntegrationStyle.OPERAND_DECOUPLED:
            _fragment_loads(compute, unit, lanes)
        for instruction in tile_instructions:
            compute.emit(instruction)
        # K-loop bookkeeping.
        compute.emit_class(OpClass.ALU, repeat=2)
        compute.emit_class(OpClass.BRANCH, repeat=1, reg_reads=1, reg_writes=0)

    leader = WarpProgram(name="leader")
    if design.has_dma:
        # Warp 0 programs the cluster DMA for the next K tile.
        leader.emit_class(OpClass.DMA_PROGRAM, repeat=4, reg_reads=2, reg_writes=0)
        leader.emit_class(OpClass.ALU, repeat=2)
    else:
        _copy_loop(compute, -(-tiling.input_bytes_per_iteration // (cluster.cores * warps)))
    compute.emit_class(OpClass.VX_BAR, repeat=1, reg_reads=0, reg_writes=0)

    return IterationStreams(
        compute_warp=compute,
        leader_extra=leader,
        tile_ops_per_core=tile_ops_per_core,
        warps_per_core=warps,
    )


def virgo_iteration_streams(design: DesignConfig, tiling: ThreadBlockTiling) -> IterationStreams:
    """Streams for Virgo: MMIO programming, DMA programming, fence polling.

    A single leader warp drives the matrix unit; the remaining warps only
    participate in the cluster-wide barrier (in a pure GEMM the SIMT cores
    have no per-element work, which is exactly why Virgo's instruction count
    collapses to a fraction of the baselines').
    """
    cluster = design.cluster
    warps = cluster.core.warps

    compute = WarpProgram(name="virgo_worker")
    compute.emit_class(OpClass.ALU, repeat=2)
    compute.emit_class(OpClass.VX_BAR, repeat=1, reg_reads=0, reg_writes=0)

    leader = WarpProgram(name="virgo_leader")
    # Program the matrix unit operation over MMIO: operand addresses,
    # dimensions, accumulate flag, start.
    leader.emit_class(OpClass.ALU, repeat=4)
    leader.emit_class(OpClass.MMIO_STORE, repeat=6, reg_reads=2, reg_writes=0, bytes_accessed=4)
    # Program the DMA for the next iteration's tiles.
    leader.emit_class(OpClass.DMA_PROGRAM, repeat=4, reg_reads=2, reg_writes=0)
    # virgo_fence: poll the busy register a handful of times.
    leader.emit_class(OpClass.MMIO_POLL, repeat=3, reg_reads=1, reg_writes=1, bytes_accessed=4)

    return IterationStreams(
        compute_warp=compute,
        leader_extra=leader,
        tile_ops_per_core=0,
        warps_per_core=warps,
    )
