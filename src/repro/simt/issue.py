"""Cycle-level issue-stage simulator for one Vortex SIMT core.

The simulator replays per-warp instruction streams through a round-robin
warp scheduler, modelling the hazards that throttle core-coupled matrix units:

* **Issue bandwidth** -- one instruction per cycle per core (Vortex single
  issue).  Designs that need many instructions per tile (Volta/Ampere-style
  HMMA set/step sequences plus explicit shared-memory loads and address
  generation) saturate this before they saturate the MAC array.
* **Structural hazards** -- the per-core tensor core serializes HMMA steps
  (2 cycles each); the load/store unit accepts one memory instruction per
  cycle; the FPU accepts one FP instruction per cycle.
* **Latency hazards** -- warps block on dependent long-latency results
  (shared/global loads feeding the next instruction, synchronous matrix
  waits, barriers, MMIO polls).  Multithreading across the other warps hides
  the latency when enough eligible warps exist, exactly the mechanism whose
  limits Section 6.2 discusses.

The simulator is deliberately register-agnostic: whether a warp blocks after
a long-latency instruction is decided by the instruction class (see
``_BLOCKING``), which matches how the kernel models encode dependent
sequences (a load immediately followed by its consumer is emitted as a
blocking load; independent prefetches are emitted as non-blocking).

Programs are first decoded into a :class:`ProgramSet`: each distinct
``Instruction`` object once, each distinct ``WarpProgram`` object once into
a stream of indices.  The issue loop then steps plain integer lists (per
warp: pc, blocked-until cycle; per unit: free-at cycle).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Union

from repro.config.soc import CoreConfig
from repro.isa.instructions import Instruction, OpClass
from repro.isa.program import WarpProgram

#: Instruction classes whose latency blocks the issuing warp (dependent use).
_BLOCKING = {
    OpClass.LOAD_SHARED,
    OpClass.LOAD_GLOBAL,
    OpClass.WGMMA_WAIT,
    OpClass.MMIO_POLL,
    OpClass.BARRIER,
    OpClass.VX_BAR,
    OpClass.BRANCH,
}

#: Execution-unit occupancy (cycles the unit is busy per instruction).
_UNIT_OCCUPANCY = {
    OpClass.ALU: ("alu", 1),
    OpClass.FPU: ("fpu", 1),
    OpClass.SFU: ("fpu", 2),
    OpClass.LOAD_GLOBAL: ("lsu", 1),
    OpClass.STORE_GLOBAL: ("lsu", 1),
    OpClass.LOAD_SHARED: ("lsu", 1),
    OpClass.STORE_SHARED: ("lsu", 1),
    OpClass.MMIO_STORE: ("lsu", 1),
    OpClass.MMIO_POLL: ("lsu", 1),
    OpClass.DMA_PROGRAM: ("lsu", 1),
    OpClass.HMMA_SET: ("tensor", 1),
    OpClass.HMMA_STEP: ("tensor", 2),
    OpClass.WGMMA_INIT: ("tensor", 1),
}

#: Execution units, in ``IssueResult.unit_busy_cycles`` order.
_UNITS = ("alu", "fpu", "lsu", "tensor")


@dataclass
class IssueResult:
    """Outcome of replaying an instruction stream on one core."""

    cycles: int
    instructions_issued: int
    stall_cycles: int
    issued_by_class: Dict[OpClass, int] = field(default_factory=dict)
    unit_busy_cycles: Dict[str, int] = field(default_factory=dict)


class ProgramSet:
    """The warp programs of one core execution, each distinct object decoded once.

    ``instructions`` lists every distinct ``Instruction`` object (by ``id``)
    in first-seen order over the warps.  ``streams`` holds, per distinct
    ``WarpProgram`` object, its instructions as indices into
    ``instructions``, and ``warps`` maps each warp to its stream.  The
    programs are read in place, once, while the set is built, so they must
    not change during that pass.
    """

    __slots__ = ("instructions", "streams", "warps")

    def __init__(self, programs: Sequence[WarpProgram]) -> None:
        index: Dict[int, int] = {}
        stream_of: Dict[int, int] = {}
        self.instructions: List[Instruction] = []
        self.streams: List[List[int]] = []
        self.warps: List[int] = []
        for program in programs:
            slot = stream_of.get(id(program))
            if slot is None:
                body = program.instructions
                ids = list(map(id, body))
                for ident, instruction in dict(zip(ids, body)).items():
                    if ident not in index:
                        index[ident] = len(self.instructions)
                        self.instructions.append(instruction)
                slot = stream_of[id(program)] = len(self.streams)
                self.streams.append(list(map(index.__getitem__, ids)))
            self.warps.append(slot)

    def occurrences(self) -> List[int]:
        """How often each distinct instruction appears, over all warps."""
        totals = [0] * len(self.instructions)
        for slot, warps in Counter(self.warps).items():
            for code, count in Counter(self.streams[slot]).items():
                totals[code] += count * warps
        return totals


class IssueSimulator:
    """Replays warp programs through the issue stage of one SIMT core."""

    def __init__(self, core: CoreConfig) -> None:
        self.core = core

    def simulate(
        self,
        programs: Union[Sequence[WarpProgram], ProgramSet],
        max_cycles: int = 50_000_000,
    ) -> IssueResult:
        """Simulate one program per warp until every warp has drained.

        ``programs`` holds the stream of each active warp (pass the same
        program multiple times for warps that execute identical code), or
        is a :class:`ProgramSet` already decoded from them.

        Each cycle the round-robin scheduler scans the eligible warps
        (instructions left, not blocked) from the warp after the last one it
        picked.  A pick whose unit is still busy is a structural hazard: the
        pick still moves the scheduler's pointer, and the scan goes on to
        the next eligible warp.  A cycle with no issuable warp is a stall.
        """
        program_set = programs if isinstance(programs, ProgramSet) else ProgramSet(programs)
        streams = [program_set.streams[slot] for slot in program_set.warps]
        if not streams:
            return IssueResult(cycles=0, instructions_issued=0, stall_cycles=0)
        count = len(streams)
        if count > self.core.warps:
            raise ValueError(
                f"{count} warp programs exceed the core's {self.core.warps} warp slots"
            )

        # Per distinct instruction: unit (-1: none), occupancy, blocking
        # latency (0: does not block).
        units: List[int] = []
        occupancies: List[int] = []
        latencies: List[int] = []
        for instruction in program_set.instructions:
            unit = _UNIT_OCCUPANCY.get(instruction.op_class)
            units.append(_UNITS.index(unit[0]) if unit else -1)
            occupancies.append(unit[1] if unit else 0)
            latencies.append(instruction.latency if instruction.op_class in _BLOCKING else 0)

        ends = [len(stream) for stream in streams]
        pcs = [0] * count
        blocked = [0] * count
        unit_free = [0] * len(_UNITS)
        unit_busy = [0] * len(_UNITS)
        issues = [0] * len(program_set.instructions)
        first_issued: List[int] = []
        live = sum(1 for end in ends if end)
        pointer = -1
        cycle = 0
        stall_cycles = 0
        while live:
            if cycle > max_cycles:
                raise RuntimeError("issue simulation exceeded the cycle limit")
            warp = pointer
            for _ in range(count):
                warp += 1
                if warp == count:
                    warp = 0
                pc = pcs[warp]
                if pc < ends[warp] and blocked[warp] <= cycle:
                    pointer = warp
                    code = streams[warp][pc]
                    unit = units[code]
                    if unit < 0 or unit_free[unit] <= cycle:
                        break
            else:
                stall_cycles += 1
                cycle += 1
                continue

            # Issue ``code``, warp ``warp``'s next instruction.  The unit
            # was free, so it starts now; the warp was eligible, so a
            # blocking latency counts from now too.
            pc += 1
            pcs[warp] = pc
            if pc == ends[warp]:
                live -= 1
            if not issues[code]:
                first_issued.append(code)
            issues[code] += 1
            if unit >= 0:
                unit_free[unit] = cycle + occupancies[code]
                unit_busy[unit] += occupancies[code]
            if latencies[code]:
                blocked[warp] = cycle + latencies[code]
            cycle += 1

        issued_by_class: Dict[OpClass, int] = {}
        for code in first_issued:
            op_class = program_set.instructions[code].op_class
            issued_by_class[op_class] = issued_by_class.get(op_class, 0) + issues[code]
        return IssueResult(
            cycles=cycle,
            instructions_issued=sum(issues),
            stall_cycles=stall_cycles,
            issued_by_class=issued_by_class,
            unit_busy_cycles=dict(zip(_UNITS, unit_busy)),
        )
