"""Hopper-style operand-decoupled tensor core (Section 5.1.3, Figure 6).

The unit keeps the decoupled access/execute structure of the paper's
implementation: an *access frontend* (state machine + address generator)
issues shared-memory read requests for the operand fragments, and an
*execute backend* (decoupling FIFOs + operand buffers + dot-product units)
performs the MACs as operands arrive.  Because fragment addresses are static,
the frontend runs ahead and hides the shared-memory latency.

Accumulator tiles still live in the core register file and are read/written
around every tile operation -- the residual register pressure the paper
calls out as Hopper's remaining limitation.

The warp-facing interface is asynchronous: a ``wgmma_init`` instruction kicks
off the unit, a later ``wgmma_wait`` synchronizes with it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.config.soc import MatrixUnitConfig, SharedMemoryConfig
from repro.isa.instructions import Instruction, OpClass, shared_instruction
from repro.sim.stats import Counters
from repro.tensorcore.dot_product_unit import DotProductUnit
from repro.tensorcore.fragments import MatrixFragment

#: Cycles until the access frontend's first operand fragment arrives from
#: shared memory: the fill latency the run-ahead cannot hide.
SMEM_FILL_LATENCY = 6


@dataclass
class WgmmaOperation:
    """Timing summary of one asynchronous wgmma-style tile operation."""

    compute_cycles: int
    smem_read_cycles: int
    exposed_latency: int

    @property
    def total_cycles(self) -> int:
        """Cycles from initiation to result availability.

        The access frontend overlaps operand fetch with compute, so only the
        non-overlapped portion of the shared-memory time is exposed.
        """
        return self.compute_cycles + self.exposed_latency


class HopperTensorCore:
    """Per-core operand-decoupled matrix unit with an async interface."""

    def __init__(self, config: MatrixUnitConfig, shared_memory: SharedMemoryConfig) -> None:
        self.config = config
        self.shared_memory = shared_memory
        self.dpu = DotProductUnit(macs_per_cycle=config.macs_per_cycle, dtype=config.dtype)
        self.tile_ops = 0

    # ------------------------------------------------------------------ #
    # Functional behaviour
    # ------------------------------------------------------------------ #

    def wgmma(
        self,
        a: MatrixFragment,
        b: MatrixFragment,
        c: np.ndarray,
        counters: Counters | None = None,
    ) -> np.ndarray:
        """One asynchronous tile operation ``c += a @ b``.

        ``a`` and ``b`` come from shared memory; ``c`` is the register-file
        resident FP32 accumulator fragment.
        """
        if (a.rows, a.cols) != (self.config.tile_m, self.config.tile_k):
            raise ValueError(
                f"A fragment must be {(self.config.tile_m, self.config.tile_k)}, "
                f"got {(a.rows, a.cols)}"
            )
        if (b.rows, b.cols) != (self.config.tile_k, self.config.tile_n):
            raise ValueError(
                f"B fragment must be {(self.config.tile_k, self.config.tile_n)}, "
                f"got {(b.rows, b.cols)}"
            )
        self.tile_ops += 1
        if counters is not None:
            self.record_tile_events(counters)
        return self.dpu.multiply_accumulate(a.as_float32(), b.as_float32(), c, counters)

    # ------------------------------------------------------------------ #
    # Timing
    # ------------------------------------------------------------------ #

    def tile_operation(self) -> WgmmaOperation:
        """Timing of one tile operation with operand streaming overlapped."""
        compute = self.dpu.cycles_for_tile(
            self.config.tile_m, self.config.tile_n, self.config.tile_k
        )
        operand_bytes = self.config.operand_bytes_per_tile
        # The unit streams operands from one shared-memory bank (wide port).
        bytes_per_cycle = self.shared_memory.bank_width_bytes
        smem_cycles = max(1, -(-operand_bytes // bytes_per_cycle))
        # The frontend runs ahead: only the initial fill latency is exposed,
        # plus any shortfall if the shared memory cannot keep up with compute.
        exposed = SMEM_FILL_LATENCY + max(0, smem_cycles - compute)
        return WgmmaOperation(
            compute_cycles=compute,
            smem_read_cycles=smem_cycles,
            exposed_latency=exposed,
        )

    def tile_busy_cycles(self) -> int:
        return self.tile_operation().total_cycles

    def instruction_sequence(self) -> List[Instruction]:
        """Warp instructions per tile operation: initiate + wait.

        Accumulator fragments are read from and written back to the register
        file around the operation; the reg_reads/reg_writes of the wait
        instruction capture that read-modify-write traffic.
        """
        accum_words_per_lane = max(
            1, self.config.accumulator_bytes_per_tile // 4 // 32
        )
        return [
            shared_instruction(OpClass.WGMMA_INIT, 2, 0, 0, ""),
            shared_instruction(
                OpClass.WGMMA_WAIT, accum_words_per_lane, accum_words_per_lane, 0, ""
            ),
        ]

    def record_tile_events(self, counters: Counters) -> None:
        operand_words = -(-self.config.operand_bytes_per_tile // 4)
        accum_words = -(-self.config.accumulator_bytes_per_tile // 4)
        # Operands stream from shared memory (not the register file).
        counters.add("smem.matrix.read_words", operand_words)
        counters.add("matrix_unit.operand_buffer_words", operand_words)
        # Accumulators remain register-file resident (read-modify-write).
        counters.add("core.issue.rf_read_words", accum_words)
        counters.add("core.writeback.rf_write_words", accum_words)
        counters.add("matrix_unit.result_buffer_words", accum_words)
        counters.add("matrix_unit.control_events", 2)
