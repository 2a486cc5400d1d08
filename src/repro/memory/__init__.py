"""Memory system substrates: DRAM, banked shared memory, its interconnect, DMA."""

from repro.memory.dram import DramChannel
from repro.memory.shared_memory import BankedSharedMemory
from repro.memory.dma import DmaEngine, DmaTransfer
from repro.memory.interconnect import SharedMemoryInterconnect, RequestBundle

__all__ = [
    "DramChannel",
    "BankedSharedMemory",
    "DmaEngine",
    "DmaTransfer",
    "SharedMemoryInterconnect",
    "RequestBundle",
]
