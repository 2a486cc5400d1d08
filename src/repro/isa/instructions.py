"""Instruction classes of the Vortex-like ISA and its matrix extensions.

The baseline ISA is the RV32IMF subset Vortex implements, extended with:

* ``HMMA_SET`` / ``HMMA_STEP`` -- the Volta-style tightly-coupled tensor core
  instructions (Section 5.1.1); a tile operation is a sequence of set/step
  pairs, each step taking two cycles in the matrix unit.
* ``WGMMA_INIT`` / ``WGMMA_WAIT`` -- the Hopper-style asynchronous interface
  (Section 5.1.3); a warp kicks off the unit and later waits for the result.
* ``MMIO_STORE`` / ``MMIO_POLL`` -- Virgo's memory-mapped command interface
  (Section 3.1); regular stores and polling loads to the matrix unit's
  control registers.
* ``VX_BAR`` -- Vortex's cluster-wide barrier instruction (Section 3.3).
* ``DMA_PROGRAM`` -- MMIO stores that program the cluster DMA engine.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict


class OpClass(enum.Enum):
    """Instruction classes, grouped by the execution unit they occupy."""

    ALU = "alu"                  # integer ALU: address generation, loop counters
    FPU = "fpu"                  # SIMT floating point (softmax, scaling, activation)
    SFU = "sfu"                  # special function approximations (Taylor exp helpers)
    LOAD_GLOBAL = "load_global"  # loads served by L1/L2/DRAM
    STORE_GLOBAL = "store_global"
    LOAD_SHARED = "load_shared"  # loads from the cluster shared memory
    STORE_SHARED = "store_shared"
    BRANCH = "branch"
    BARRIER = "barrier"          # intra-core barrier
    VX_BAR = "vx_bar"            # cluster-wide barrier (synchronizer)
    HMMA_SET = "hmma_set"
    HMMA_STEP = "hmma_step"
    WGMMA_INIT = "wgmma_init"
    WGMMA_WAIT = "wgmma_wait"
    MMIO_STORE = "mmio_store"
    MMIO_POLL = "mmio_poll"
    DMA_PROGRAM = "dma_program"
    NOP = "nop"


#: Issue-to-writeback latency (cycles) of each class when it does not miss.
_LATENCIES: Dict[OpClass, int] = {
    OpClass.ALU: 1,
    OpClass.FPU: 4,
    OpClass.SFU: 8,
    OpClass.LOAD_GLOBAL: 30,
    OpClass.STORE_GLOBAL: 4,
    OpClass.LOAD_SHARED: 6,
    OpClass.STORE_SHARED: 4,
    OpClass.BRANCH: 2,
    OpClass.BARRIER: 4,
    OpClass.VX_BAR: 20,
    OpClass.HMMA_SET: 1,
    OpClass.HMMA_STEP: 2,
    OpClass.WGMMA_INIT: 2,
    OpClass.WGMMA_WAIT: 4,
    OpClass.MMIO_STORE: 6,
    OpClass.MMIO_POLL: 10,
    OpClass.DMA_PROGRAM: 6,
    OpClass.NOP: 1,
}


def latency_of(op_class: OpClass) -> int:
    """Nominal issue-to-writeback latency of ``op_class`` in cycles."""
    return _LATENCIES[op_class]


@dataclass(frozen=True)
class Instruction:
    """One static instruction in a warp's stream.

    Attributes
    ----------
    op_class:
        The execution class (determines latency, energy and the unit used).
    reg_reads / reg_writes:
        Register file accesses the instruction performs *per lane*.  HMMA
        instructions read operand fragments and write accumulator fragments,
        which is where the register file energy of the tightly-coupled
        designs comes from.
    bytes_accessed:
        Bytes moved per warp for memory instructions (drives the memory
        system energy and bandwidth models).
    tag:
        Optional free-form label for tracing.
    """

    op_class: OpClass
    reg_reads: int = 2
    reg_writes: int = 1
    bytes_accessed: int = 0
    tag: str = ""

    @property
    def latency(self) -> int:
        return latency_of(self.op_class)


@lru_cache(maxsize=1024, typed=True)
def shared_instruction(
    op_class: OpClass, reg_reads: int, reg_writes: int, bytes_accessed: int, tag: str, /
) -> Instruction:
    """The one shared :class:`Instruction` with these fields.

    Instructions are immutable, so program builders reuse one object per
    distinct content instead of building a fresh one per emitted slot.  The
    SIMT core decodes each distinct object once per execution (by ``id``),
    so sharing keeps that decode table a handful of entries long.  Every
    field is a required positional argument, so equal fields always make
    the same cache key; ``typed`` keeps ``1``, ``1.0`` and ``True`` apart,
    because they encode differently.
    """
    return Instruction(op_class, reg_reads, reg_writes, bytes_accessed, tag)
