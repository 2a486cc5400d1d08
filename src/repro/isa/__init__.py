"""Vortex-like RISC-V ISA model with matrix-unit extensions.

The ISA layer does not execute real binaries; it provides the vocabulary the
kernel models use to describe the per-iteration instruction streams each warp
issues.  The SIMT core timing model turns these streams into issue cycles,
and the energy model turns them into per-stage energy events.
"""

from repro.isa.instructions import (
    OpClass,
    Instruction,
    shared_instruction,
    latency_of,
)
from repro.isa.program import WarpProgram

__all__ = [
    "OpClass",
    "Instruction",
    "shared_instruction",
    "latency_of",
    "WarpProgram",
]
