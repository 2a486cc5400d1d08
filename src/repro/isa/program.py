"""Instruction stream builders used by the kernel models.

A :class:`WarpProgram` is the per-warp instruction stream of one steady-state
kernel iteration (or of a whole prologue/epilogue).  Kernels construct these
programs from their loop structure; the SIMT core model then evaluates how
many cycles a core needs to issue the stream and how many register-file and
memory accesses it generates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List

from repro.isa.instructions import Instruction, OpClass, shared_instruction


@dataclass
class WarpProgram:
    """An ordered list of instructions issued by a single warp."""

    name: str = ""
    instructions: List[Instruction] = field(default_factory=list)

    def emit(self, instruction: Instruction, repeat: int = 1) -> "WarpProgram":
        """Append ``instruction`` ``repeat`` times."""
        if repeat < 0:
            raise ValueError("repeat must be non-negative")
        self.instructions.extend([instruction] * repeat)
        return self

    def emit_class(
        self,
        op_class: OpClass,
        repeat: int = 1,
        reg_reads: int = 2,
        reg_writes: int = 1,
        bytes_accessed: int = 0,
        tag: str = "",
    ) -> "WarpProgram":
        """Append ``repeat`` instructions of ``op_class`` with uniform operands.

        Equal arguments append the same shared object (:func:`shared_instruction`).
        """
        return self.emit(
            shared_instruction(op_class, reg_reads, reg_writes, bytes_accessed, tag),
            repeat=repeat,
        )

    def extend(self, other: "WarpProgram", repeat: int = 1) -> "WarpProgram":
        """Append another program ``repeat`` times."""
        for _ in range(repeat):
            self.instructions.extend(other.instructions)
        return self

    def __len__(self) -> int:
        return len(self.instructions)

    def count_by_class(self) -> Dict[OpClass, int]:
        counts: Dict[OpClass, int] = {}
        for instruction in self.instructions:
            counts[instruction.op_class] = counts.get(instruction.op_class, 0) + 1
        return counts

    def total_bytes(self, op_classes: Iterable[OpClass] | None = None) -> int:
        """Total bytes accessed, optionally restricted to certain classes."""
        selected = set(op_classes) if op_classes is not None else None
        total = 0
        for instruction in self.instructions:
            if selected is None or instruction.op_class in selected:
                total += instruction.bytes_accessed
        return total

