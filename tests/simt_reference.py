"""Reference SIMT issue model: the per-cycle warp-object loop and per-instruction tally.

``repro.simt`` runs one compiled path: each distinct instruction object is
decoded once into plain ints and the issue loop steps integer lists.  This
module keeps the straightforward model it replaced -- a ``WarpState`` per
warp, a round-robin scheduler object that picks among them, a
structural-hazard retry loop, and a tally that adds each issued
instruction's events one counter at a time -- as the oracle the compiled
path is checked against, field for field and in dict insertion order.  The timing and event tables are the
model's own, imported from ``repro.simt``; only the mechanics live here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.config.soc import CoreConfig
from repro.isa.instructions import Instruction, OpClass
from repro.isa.program import WarpProgram
from repro.sim.stats import Counters
from repro.simt.core import _EXECUTION_COMPONENT
from repro.simt.issue import _BLOCKING, _UNIT_OCCUPANCY, IssueResult


@dataclass
class WarpState:
    """State of one warp inside the issue-stage simulator.

    A warp holds its instruction stream, a program counter, and a
    ``blocked_until`` cycle set when the warp must wait for a long-latency
    result (a dependent load, a synchronous matrix instruction, a barrier).
    """

    warp_id: int
    program: List[Instruction] = field(default_factory=list)
    pc: int = 0
    blocked_until: int = 0
    issued: int = 0
    stall_cycles: int = 0
    finished_at: Optional[int] = None

    @property
    def done(self) -> bool:
        return self.pc >= len(self.program)

    def eligible(self, cycle: int) -> bool:
        """A warp may issue when it has instructions left and is not blocked."""
        return not self.done and cycle >= self.blocked_until

    def peek(self) -> Instruction:
        if self.done:
            raise IndexError(f"warp {self.warp_id} has no instructions left")
        return self.program[self.pc]

    def advance(self, cycle: int) -> Instruction:
        """Consume the next instruction at ``cycle`` and return it."""
        instruction = self.peek()
        self.pc += 1
        self.issued += 1
        if self.done:
            self.finished_at = cycle
        return instruction

    def block(self, until: int) -> None:
        """Block the warp until the given absolute cycle."""
        self.blocked_until = max(self.blocked_until, until)


class RoundRobinScheduler:
    """Loose round-robin: resume scanning after the last warp that issued."""

    def __init__(self) -> None:
        self._last = -1

    def select(self, warps: Sequence[WarpState], cycle: int) -> Optional[WarpState]:
        count = len(warps)
        if count == 0:
            return None
        for offset in range(1, count + 1):
            warp = warps[(self._last + offset) % count]
            if warp.eligible(cycle):
                self._last = warp.warp_id
                return warp
        return None


def reference_simulate(
    core: CoreConfig,
    programs: Sequence[WarpProgram],
    max_cycles: int = 50_000_000,
) -> IssueResult:
    """Simulate one program per warp until every warp has drained."""
    if not programs:
        return IssueResult(cycles=0, instructions_issued=0, stall_cycles=0)
    if len(programs) > core.warps:
        raise ValueError(
            f"{len(programs)} warp programs exceed the core's {core.warps} warp slots"
        )

    warps: List[WarpState] = [
        WarpState(warp_id=index, program=list(program.instructions))
        for index, program in enumerate(programs)
    ]
    scheduler = RoundRobinScheduler()
    unit_free_at: Dict[str, int] = {"alu": 0, "fpu": 0, "lsu": 0, "tensor": 0}
    unit_busy: Dict[str, int] = {"alu": 0, "fpu": 0, "lsu": 0, "tensor": 0}
    issued_by_class: Dict[OpClass, int] = {}

    cycle = 0
    issued_total = 0
    stall_cycles = 0
    while any(not warp.done for warp in warps):
        if cycle > max_cycles:
            raise RuntimeError("issue simulation exceeded the cycle limit")
        warp = _select_issuable(scheduler, warps, unit_free_at, cycle)
        if warp is None:
            stall_cycles += 1
            cycle += 1
            continue

        instruction = warp.advance(cycle)
        issued_total += 1
        issued_by_class[instruction.op_class] = (
            issued_by_class.get(instruction.op_class, 0) + 1
        )

        unit = _UNIT_OCCUPANCY.get(instruction.op_class)
        if unit is not None:
            unit_name, occupancy = unit
            start = max(cycle, unit_free_at[unit_name])
            unit_free_at[unit_name] = start + occupancy
            unit_busy[unit_name] += occupancy

        if instruction.op_class in _BLOCKING:
            warp.block(cycle + instruction.latency)
        cycle += 1

    return IssueResult(
        cycles=cycle,
        instructions_issued=issued_total,
        stall_cycles=stall_cycles,
        issued_by_class=issued_by_class,
        unit_busy_cycles=unit_busy,
    )


def _select_issuable(
    scheduler,
    warps: Sequence[WarpState],
    unit_free_at: Dict[str, int],
    cycle: int,
) -> Optional[WarpState]:
    """Pick an eligible warp whose next instruction has no structural hazard."""
    considered = 0
    while considered < len(warps):
        warp = scheduler.select(warps, cycle)
        if warp is None:
            return None
        instruction = warp.peek()
        unit = _UNIT_OCCUPANCY.get(instruction.op_class)
        if unit is None or unit_free_at[unit[0]] <= cycle:
            return warp
        # Structural hazard: temporarily block this warp for this cycle so
        # the scheduler considers others, then retry.
        warp.block(cycle + 1)
        considered += 1
    return None


def reference_counters(programs: Sequence[WarpProgram], lanes: int) -> Counters:
    """The core's energy events, added one instruction at a time."""
    counters = Counters()
    for program in programs:
        for instruction in program.instructions:
            _count_instruction(instruction, lanes, counters)
    return counters


def _count_instruction(instruction: Instruction, lanes: int, counters: Counters) -> None:
    counters.add("core.issue.instructions", 1)
    # Operand collection: register reads are per-lane for SIMT operands.
    counters.add("core.issue.rf_read_words", instruction.reg_reads * lanes)
    counters.add("core.writeback.rf_write_words", instruction.reg_writes * lanes)

    component = _EXECUTION_COMPONENT[instruction.op_class]
    if component == "alu":
        counters.add("core.alu.ops", lanes)
    elif component == "fpu":
        counters.add("core.fpu.ops", lanes)
    elif component == "lsu":
        counters.add("core.lsu.requests", 1)
        counters.add("core.lsu.bytes", instruction.bytes_accessed)
    else:
        counters.add("core.other.ops", 1)

    if instruction.op_class in (OpClass.LOAD_SHARED, OpClass.STORE_SHARED):
        counters.add("smem.core_words", max(1, instruction.bytes_accessed // 4))
    elif instruction.op_class in (OpClass.LOAD_GLOBAL, OpClass.STORE_GLOBAL):
        counters.add("l1.requests", 1)
        counters.add("l1.bytes", instruction.bytes_accessed)
