"""Cluster DMA engine (Section 3.2.4).

The DMA engine moves rectangular tiles between global memory (through the L2
and DRAM) and the cluster shared memory, and -- in Virgo -- between the
matrix unit's accumulator memory and global memory.  It is programmed over
MMIO by a SIMT warp (a handful of stores), then runs asynchronously.

Timing: a transfer takes a fixed programming latency plus the streaming time
bounded by the slower of the DRAM channel and the shared-memory port.  Energy:
per-byte DMA traffic plus the shared-memory word writes it performs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from repro.config.soc import DmaConfig
from repro.memory.dram import DramChannel
from repro.memory.shared_memory import BankedSharedMemory
from repro.sim.stats import Counters


class DmaDirection(enum.Enum):
    GLOBAL_TO_SHARED = "g2s"
    SHARED_TO_GLOBAL = "s2g"
    ACCUM_TO_GLOBAL = "a2g"
    GLOBAL_TO_ACCUM = "g2a"


@dataclass
class DmaTransfer:
    """One completed (or planned) DMA descriptor."""

    direction: DmaDirection
    nbytes: int
    cycles: int


class DmaEngine:
    """MMIO-programmed bulk copy engine shared by the cluster."""

    def __init__(
        self,
        config: DmaConfig,
        dram: DramChannel,
        shared_memory: Optional[BankedSharedMemory] = None,
    ) -> None:
        self.config = config
        self.dram = dram
        self.shared_memory = shared_memory

    def transfer_cycles(self, nbytes: int, touches_dram: bool = True) -> int:
        """Cycles for one descriptor of ``nbytes``."""
        if nbytes < 0:
            raise ValueError("transfer size must be non-negative")
        if nbytes == 0:
            return self.config.program_latency
        engine_cycles = int(-(-nbytes // self.config.bytes_per_cycle))
        dram_cycles = self.dram.transfer_cycles(nbytes) if touches_dram else 0
        smem_cycles = (
            self.shared_memory.streaming_cycles(nbytes, ports=1)
            if self.shared_memory is not None
            else 0
        )
        return self.config.program_latency + max(engine_cycles, dram_cycles, smem_cycles)

    def execute(
        self,
        direction: DmaDirection,
        nbytes: int,
        counters: Counters,
    ) -> DmaTransfer:
        """Account one descriptor: timing plus energy events."""
        touches_dram = direction in (
            DmaDirection.GLOBAL_TO_SHARED,
            DmaDirection.SHARED_TO_GLOBAL,
            DmaDirection.ACCUM_TO_GLOBAL,
            DmaDirection.GLOBAL_TO_ACCUM,
        )
        cycles = self.transfer_cycles(nbytes, touches_dram=touches_dram)
        counters.add("dma.bytes", nbytes)
        counters.add("dma.descriptors", 1)
        if touches_dram:
            counters.add("dram.bytes", nbytes)
            counters.add("l2.bytes", nbytes)
        if direction is DmaDirection.GLOBAL_TO_SHARED and self.shared_memory is not None:
            self.shared_memory.record_bulk(nbytes, is_write=True, requester="dma")
        elif direction is DmaDirection.SHARED_TO_GLOBAL and self.shared_memory is not None:
            self.shared_memory.record_bulk(nbytes, is_write=False, requester="dma")
        elif direction in (DmaDirection.ACCUM_TO_GLOBAL, DmaDirection.GLOBAL_TO_ACCUM):
            words = -(-nbytes // 4)
            counters.add("accum.read_words" if direction is DmaDirection.ACCUM_TO_GLOBAL
                         else "accum.write_words", words)
        return DmaTransfer(direction=direction, nbytes=nbytes, cycles=cycles)
