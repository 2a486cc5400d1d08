"""The Virgo matrix unit's private accumulator memory (Section 3.2.2).

A single-banked SRAM holding FP32 partial-sum tiles.  Keeping the accumulator
outside the SIMT register file is one of Virgo's two key energy levers: the
memory needs no SIMT-divergent scatter/gather support, so each access is a
wide, regular, single-bank read or write that costs much less energy than a
multi-banked register-file access; and its capacity is decoupled from warp
occupancy.

The model is functional (numpy-backed tiles addressed by row) and counts
word accesses for the energy model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from repro.sim.stats import Counters


class AccumulatorAllocationError(Exception):
    """Raised when a tile does not fit in the accumulator SRAM."""


@dataclass
class _Allocation:
    offset_bytes: int
    shape: Tuple[int, int]


class AccumulatorMemory:
    """Single-banked FP32 accumulator SRAM private to the matrix unit."""

    ELEM_BYTES = 4  # accumulators are always FP32

    def __init__(self, size_bytes: int, width_words: int = 16) -> None:
        if size_bytes <= 0:
            raise ValueError("accumulator memory must have a positive size")
        self.size_bytes = size_bytes
        self.width_words = width_words
        self.counters = Counters()
        self._allocations: Dict[str, _Allocation] = {}
        self._tiles: Dict[str, np.ndarray] = {}
        self._next_offset = 0

    # ------------------------------------------------------------------ #
    # Allocation
    # ------------------------------------------------------------------ #

    def allocate(self, name: str, rows: int, cols: int) -> None:
        """Reserve space for a (rows, cols) FP32 tile."""
        if name in self._allocations:
            raise ValueError(f"tile {name!r} already allocated")
        nbytes = rows * cols * self.ELEM_BYTES
        if self._next_offset + nbytes > self.size_bytes:
            raise AccumulatorAllocationError(
                f"tile {name!r} of {nbytes} B does not fit; "
                f"{self.size_bytes - self._next_offset} B free of {self.size_bytes} B"
            )
        self._allocations[name] = _Allocation(offset_bytes=self._next_offset, shape=(rows, cols))
        self._tiles[name] = np.zeros((rows, cols), dtype=np.float32)
        self._next_offset += nbytes

    def free(self, name: str) -> None:
        if name not in self._allocations:
            raise KeyError(f"no tile named {name!r}")
        del self._allocations[name]
        del self._tiles[name]
        if not self._allocations:
            self._next_offset = 0

    def tile_names(self):
        return list(self._allocations)

    # ------------------------------------------------------------------ #
    # Functional accesses (with energy accounting)
    # ------------------------------------------------------------------ #

    def _words(self, array: np.ndarray) -> int:
        return int(array.size)

    def accumulate(self, name: str, partial: np.ndarray) -> np.ndarray:
        """Read-modify-write: add ``partial`` onto the stored tile."""
        tile = self._read_tile(name)
        if partial.shape != tile.shape:
            raise ValueError(f"partial shape {partial.shape} != tile shape {tile.shape}")
        updated = tile + partial.astype(np.float32)
        self._write_tile(name, updated)
        return updated

    def write(self, name: str, values: np.ndarray) -> None:
        """Overwrite the stored tile (accumulate=0 mode of the FSM)."""
        tile = self._tiles[name]
        if values.shape != tile.shape:
            raise ValueError(f"value shape {values.shape} != tile shape {tile.shape}")
        self._write_tile(name, values.astype(np.float32), count_read=False)

    def read(self, name: str) -> np.ndarray:
        """Read the stored tile (e.g. for the DMA store to global memory)."""
        return self._read_tile(name).copy()

    def _read_tile(self, name: str) -> np.ndarray:
        if name not in self._tiles:
            raise KeyError(f"no tile named {name!r}")
        tile = self._tiles[name]
        self.counters.add("accum.read_words", self._words(tile))
        return tile

    def _write_tile(self, name: str, values: np.ndarray, count_read: bool = True) -> None:
        self._tiles[name] = values
        self.counters.add("accum.write_words", self._words(values))

    # ------------------------------------------------------------------ #
    # Timing
    # ------------------------------------------------------------------ #

    def access_cycles(self, nwords: int) -> int:
        """Cycles to read or write ``nwords`` through the single wide port."""
        if nwords < 0:
            raise ValueError("word count must be non-negative")
        return max(0, -(-nwords // self.width_words))

    def reset(self) -> None:
        self._allocations.clear()
        self._tiles.clear()
        self._next_offset = 0
        self.counters = Counters()
