"""Gemmini-style systolic array: functional and timing model.

The array is a ``rows`` x ``cols`` mesh of fused multiply-add processing
elements operating output-stationary: a subtile of the output matrix is
pinned to the mesh while A operands stream in from the left and B operands
from the top.  One pass over a K-deep operand pair takes ``K`` cycles of
streaming plus the fill/drain skew of ``rows + cols - 2`` cycles; partial
sums either stay in the mesh (when the next pass accumulates onto the same
output subtile) or drain to the accumulator memory.

The functional model quantizes operands to the configured data type and
accumulates in FP32, matching Gemmini's behaviour and allowing end-to-end
numerical verification of the Virgo GEMM and FlashAttention kernels.
"""

from __future__ import annotations

import numpy as np

from repro.config.soc import DataType
from repro.sim.stats import Counters

_OPERAND_DTYPES = {DataType.FP16: np.float16, DataType.FP32: np.float32}


class SystolicArray:
    """An output-stationary mesh of fused multiply-add processing elements."""

    def __init__(self, rows: int, cols: int, dtype: DataType = DataType.FP16) -> None:
        if rows <= 0 or cols <= 0:
            raise ValueError("systolic array dimensions must be positive")
        self.rows = rows
        self.cols = cols
        self.dtype = dtype
        self.total_macs = 0

    @property
    def macs_per_cycle(self) -> int:
        return self.rows * self.cols

    # ------------------------------------------------------------------ #
    # Functional behaviour
    # ------------------------------------------------------------------ #

    def compute_subtile(
        self,
        a: np.ndarray,
        b: np.ndarray,
        accumulator: np.ndarray | None = None,
        counters: Counters | None = None,
    ) -> np.ndarray:
        """Compute ``a @ b`` (+ ``accumulator``) for one output subtile.

        ``a`` is (rows, K), ``b`` is (K, cols); the output subtile is
        (rows, cols) in FP32.  Larger operands must be blocked by the caller
        (the Gemmini FSM does that blocking).
        """
        if a.shape[0] > self.rows or b.shape[1] > self.cols:
            raise ValueError(
                f"subtile {a.shape[0]}x{b.shape[1]} exceeds the "
                f"{self.rows}x{self.cols} array"
            )
        if a.shape[1] != b.shape[0]:
            raise ValueError(f"inner dimensions mismatch: {a.shape} x {b.shape}")
        operand_dtype = _OPERAND_DTYPES[self.dtype]
        a_q = a.astype(operand_dtype).astype(np.float32)
        b_q = b.astype(operand_dtype).astype(np.float32)
        result = a_q @ b_q
        if accumulator is not None:
            if accumulator.shape != result.shape:
                raise ValueError(
                    f"accumulator shape {accumulator.shape} does not match {result.shape}"
                )
            result = result + accumulator.astype(np.float32)

        macs = a.shape[0] * b.shape[1] * a.shape[1]
        self.total_macs += macs
        if counters is not None:
            counters.add("matrix_unit.pe.macs", macs)
            # In-mesh accumulation: only the final subtile result reaches the
            # accumulator memory, the K-dimension partial sums stay in the PEs.
            counters.add("matrix_unit.pe.in_mesh_accumulations", macs - result.size)
        return result

    # ------------------------------------------------------------------ #
    # Timing
    # ------------------------------------------------------------------ #

    def tile_cycles(self, m: int, n: int, k: int, pipelined: bool = True) -> int:
        """Cycles to compute an (m, n, k) operation tile on the mesh.

        The tile is blocked into (rows x cols) output subtiles, each streamed
        over the full K depth.  With ``pipelined`` operand staging (Gemmini's
        double-buffered operand rows), the fill of the next output subtile
        overlaps the drain of the previous one, so consecutive subtiles only
        pay a half-mesh bubble while the full fill/drain skew is paid once
        for the whole operation.
        """
        if m <= 0 or n <= 0 or k <= 0:
            raise ValueError("tile dimensions must be positive")
        subtiles_m = -(-m // self.rows)
        subtiles_n = -(-n // self.cols)
        output_subtiles = subtiles_m * subtiles_n
        per_subtile_stream = k  # K elements stream per output subtile
        skew = self.rows + self.cols - 2
        if pipelined:
            bubble = self.rows // 2
            return output_subtiles * (per_subtile_stream + bubble) + skew
        passes = -(-k // self.rows)
        return output_subtiles * (per_subtile_stream + passes * skew)

    def ideal_tile_cycles(self, m: int, n: int, k: int) -> float:
        """Lower bound: tile MACs at full mesh throughput."""
        return (m * n * k) / float(self.macs_per_cycle)
