"""Matrix tile fragments staged between backing memory and the matrix units.

A *fragment* is the slice of a matrix tile that a matrix unit consumes in a
single operation: for tightly-coupled tensor cores it lives in the register
file, for the operand-decoupled design it is staged in operand buffers fed
from shared memory, and for Virgo it flows through the systolic array's edge
registers.  Fragments are numpy-backed so the functional kernels can verify
numerics end to end.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config.soc import DataType

_DTYPE_MAP = {DataType.FP16: np.float16, DataType.FP32: np.float32}


@dataclass
class MatrixFragment:
    """A 2-D fragment of matrix data plus its storage metadata."""

    data: np.ndarray
    dtype: DataType = DataType.FP16
    location: str = "register_file"

    def __post_init__(self) -> None:
        if self.data.ndim != 2:
            raise ValueError("fragments must be two-dimensional")
        self.data = np.asarray(self.data, dtype=_DTYPE_MAP[self.dtype])

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    @property
    def bytes(self) -> int:
        return self.data.size * self.dtype.bytes

    def as_float32(self) -> np.ndarray:
        return self.data.astype(np.float32)


def load_fragment(
    matrix: np.ndarray,
    row: int,
    col: int,
    rows: int,
    cols: int,
    dtype: DataType = DataType.FP16,
    location: str = "register_file",
) -> MatrixFragment:
    """Extract a ``rows`` x ``cols`` fragment of ``matrix`` at (row, col)."""
    if row < 0 or col < 0 or row + rows > matrix.shape[0] or col + cols > matrix.shape[1]:
        raise IndexError(
            f"fragment [{row}:{row + rows}, {col}:{col + cols}] outside "
            f"matrix of shape {matrix.shape}"
        )
    return MatrixFragment(
        data=matrix[row : row + rows, col : col + cols].copy(),
        dtype=dtype,
        location=location,
    )
