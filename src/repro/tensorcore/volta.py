"""Volta-style tightly-coupled tensor core (Section 5.1.1).

The unit is a functional + timing model of a per-core tensor core whose
operands and accumulators both live in the SIMT register file.  A tile
operation of (m, n, k) = (8, 8, 16) is driven by a sequence of HMMA *set* and
*step* instructions issued by the warp; each step occupies the dot-product
units for two cycles.  The model reports, per tile operation:

* the HMMA instruction sequence (so the kernel can place it in the warp's
  instruction stream and the issue simulator can account for it),
* register-file traffic (operand reads, accumulator read-modify-write),
* MAC counts and busy cycles for the energy/utilization models.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.config.soc import MatrixUnitConfig
from repro.isa.instructions import Instruction, OpClass, shared_instruction
from repro.sim.stats import Counters
from repro.tensorcore.dot_product_unit import DotProductUnit
from repro.tensorcore.fragments import MatrixFragment


@dataclass
class HmmaSequence:
    """The instruction sequence a warp issues for one tile operation."""

    sets: int
    steps: int
    cycles_per_step: int

    @property
    def instructions(self) -> int:
        return self.sets + self.steps

    @property
    def matrix_unit_busy_cycles(self) -> int:
        return self.steps * self.cycles_per_step

    def as_instructions(self) -> List[Instruction]:
        """Expand into (shared) :class:`Instruction` objects for the issue simulator.

        A step reads four operand registers and writes two accumulator ones.
        """
        hmma_set = shared_instruction(OpClass.HMMA_SET, 1, 0, 0, "")
        hmma_step = shared_instruction(OpClass.HMMA_STEP, 4, 2, 0, "")
        return [hmma_set] * self.sets + [hmma_step] * self.steps


class VoltaTensorCore:
    """Per-core tightly-coupled matrix unit fed from the register file."""

    def __init__(self, config: MatrixUnitConfig) -> None:
        self.config = config
        self.dpu = DotProductUnit(macs_per_cycle=config.macs_per_cycle, dtype=config.dtype)
        self.tile_ops = 0

    # ------------------------------------------------------------------ #
    # Functional behaviour
    # ------------------------------------------------------------------ #

    def mma(
        self,
        a: MatrixFragment,
        b: MatrixFragment,
        c: np.ndarray,
        counters: Counters | None = None,
    ) -> np.ndarray:
        """One tile operation: ``c += a @ b`` with fragments from the RF."""
        expected = (self.config.tile_m, self.config.tile_k)
        if (a.rows, a.cols) != expected:
            raise ValueError(f"A fragment must be {expected}, got {(a.rows, a.cols)}")
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
    # Timing and event accounting
    # ------------------------------------------------------------------ #

    def hmma_sequence(self) -> HmmaSequence:
        """HMMA set/step sequence for one (m, n, k) tile operation."""
        return HmmaSequence(
            sets=4,
            steps=self.config.hmma_steps_per_tile,
            cycles_per_step=self.config.cycles_per_step,
        )

    def tile_busy_cycles(self) -> int:
        """Cycles the matrix unit is occupied by one tile operation."""
        return self.hmma_sequence().matrix_unit_busy_cycles

    def record_tile_events(self, counters: Counters) -> None:
        """Register-file and operand-buffer traffic for one tile operation.

        Operands (A, B) are read from the register file, and the FP32
        accumulator tile is both read and written there -- this is the
        traffic that the operand-decoupled and disaggregated designs remove.
        """
        operand_words = -(-self.config.operand_bytes_per_tile // 4)
        accum_words = -(-self.config.accumulator_bytes_per_tile // 4)
        counters.add("core.issue.rf_read_words", operand_words + accum_words)
        counters.add("core.writeback.rf_write_words", accum_words)
        counters.add("matrix_unit.operand_buffer_words", operand_words)
        counters.add("matrix_unit.result_buffer_words", accum_words)
        counters.add("matrix_unit.control_events", self.hmma_sequence().instructions)
