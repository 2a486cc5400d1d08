"""The Vortex SIMT core: issue timing plus energy-event accounting.

``VortexCore.execute`` replays a set of warp programs through the issue-stage
simulator and, alongside the cycle count, emits the energy events the core
generates while doing so.  Event names follow the component grouping of the
paper's Figure 10 breakdown:

* ``core.issue.*``      -- instruction fetch/decode/scoreboard/scheduling and
  register-file reads (operand collection happens at issue in Vortex).
* ``core.alu.*``        -- integer ALU operations (address generation, loops).
* ``core.fpu.*``        -- SIMT floating-point operations.
* ``core.lsu.*``        -- load/store unit occupancy.
* ``core.writeback.*``  -- register-file writes.
* ``core.other.*``      -- branches, barriers, everything else.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.config.soc import CoreConfig, DesignConfig
from repro.isa.instructions import Instruction, OpClass
from repro.isa.program import WarpProgram
from repro.perf import design_fingerprint, memoized
from repro.sim.stats import Counters
from repro.simt.issue import IssueResult, IssueSimulator, ProgramSet

#: Map from instruction class to the Figure 10 component that executes it.
_EXECUTION_COMPONENT: Dict[OpClass, str] = {
    OpClass.ALU: "alu",
    OpClass.BRANCH: "other",
    OpClass.FPU: "fpu",
    OpClass.SFU: "fpu",
    OpClass.LOAD_GLOBAL: "lsu",
    OpClass.STORE_GLOBAL: "lsu",
    OpClass.LOAD_SHARED: "lsu",
    OpClass.STORE_SHARED: "lsu",
    OpClass.MMIO_STORE: "lsu",
    OpClass.MMIO_POLL: "lsu",
    OpClass.DMA_PROGRAM: "lsu",
    OpClass.BARRIER: "other",
    OpClass.VX_BAR: "other",
    OpClass.HMMA_SET: "other",
    OpClass.HMMA_STEP: "other",
    OpClass.WGMMA_INIT: "other",
    OpClass.WGMMA_WAIT: "other",
    OpClass.NOP: "other",
}


@dataclass
class CoreExecutionResult:
    """Cycles and energy events for one core executing a set of warp programs."""

    issue: IssueResult
    counters: Counters

    @property
    def cycles(self) -> int:
        return self.issue.cycles

    @property
    def instructions(self) -> int:
        return self.issue.instructions_issued


#: Namespace of the core execution memo inside the timing cache: one entry
#: per distinct (core config, warp instruction sequences).
_EXECUTION_NAMESPACE = "simt.core_execution"


def _encode_instruction(instruction: Instruction) -> bytes:
    # ``tag`` is left out on purpose: it is a tracing label that neither the
    # issue model nor the event counters read, so programs differing only in
    # tags execute identically and share one memo entry.
    return (
        f"{instruction.op_class.value},{instruction.reg_reads},"
        f"{instruction.reg_writes},{instruction.bytes_accessed};"
    ).encode("ascii")


class VortexCore:
    """One Vortex SIMT core: issue timing + per-instruction energy events."""

    def __init__(self, config: CoreConfig) -> None:
        self.config = config
        self._issue_simulator = IssueSimulator(config)

    def execute(self, programs: Sequence[WarpProgram]) -> CoreExecutionResult:
        """Replay ``programs`` (one per active warp) and collect energy events.

        Memoized by content in a timing-cache namespace, so kernels that
        rebuild the same iteration programs simulate them once per cache
        lifetime.  The result is shared: treat it as immutable.  The key,
        the issue simulation and the event tally all read one
        :class:`ProgramSet`, which decodes each distinct instruction and
        program object once per call.
        """
        program_set = ProgramSet(programs)
        return memoized(
            _EXECUTION_NAMESPACE,
            lambda: self._key(program_set),
            lambda: self._simulate(program_set),
        )

    def execution_key(self, programs: Sequence[WarpProgram]) -> bytes:
        """Content digest of one :meth:`execute` input.

        Covers the core config and, per warp in order, each instruction's
        (op class, register reads, register writes, bytes accessed) --
        everything the issue model and the counters read.  The program ``name`` is left out for the same reason as the
        instruction ``tag``: nothing in the simulation reads it.  The digest
        holds content only, never an ``id()``.
        """
        return self._key(ProgramSet(programs))

    def _key(self, program_set: ProgramSet) -> bytes:
        # Each distinct instruction is encoded once and each distinct
        # program digested once; a warp adds its program's digest, so the
        # warp boundaries are part of the key.
        codes = [_encode_instruction(instruction) for instruction in program_set.instructions]
        digests = [
            hashlib.sha256(b"".join(map(codes.__getitem__, stream))).digest()
            for stream in program_set.streams
        ]
        digest = hashlib.sha256(design_fingerprint(self.config).encode("ascii"))
        for slot in program_set.warps:
            digest.update(digests[slot])
        return digest.digest()

    def _simulate(self, program_set: ProgramSet) -> CoreExecutionResult:
        issue = self._issue_simulator.simulate(program_set)
        return CoreExecutionResult(issue=issue, counters=self._counters(program_set))

    def _counters(self, program_set: ProgramSet) -> Counters:
        """The energy events of every issued instruction.

        One ``add`` per (distinct instruction, event), scaled by how often
        the instruction appears.  Walking the distinct instructions in
        first-seen order adds the event names in the order a one-by-one
        tally would first see them, and the integer amounts sum exactly.
        """
        lanes = self.config.lanes
        counters = Counters()
        for instruction, count in zip(program_set.instructions, program_set.occurrences()):
            for name, amount in _events(instruction, lanes):
                counters.add(name, amount * count)
        return counters


def _events(instruction: Instruction, lanes: int) -> List[Tuple[str, int]]:
    """The (counter, amount) events one issue of ``instruction`` generates."""
    events = [
        ("core.issue.instructions", 1),
        # Operand collection: register reads are per-lane for SIMT operands.
        ("core.issue.rf_read_words", instruction.reg_reads * lanes),
        ("core.writeback.rf_write_words", instruction.reg_writes * lanes),
    ]
    component = _EXECUTION_COMPONENT[instruction.op_class]
    if component == "alu":
        events.append(("core.alu.ops", lanes))
    elif component == "fpu":
        events.append(("core.fpu.ops", lanes))
    elif component == "lsu":
        events.append(("core.lsu.requests", 1))
        events.append(("core.lsu.bytes", instruction.bytes_accessed))
    else:
        events.append(("core.other.ops", 1))

    if instruction.op_class in (OpClass.LOAD_SHARED, OpClass.STORE_SHARED):
        events.append(("smem.core_words", max(1, instruction.bytes_accessed // 4)))
    elif instruction.op_class in (OpClass.LOAD_GLOBAL, OpClass.STORE_GLOBAL):
        events.append(("l1.requests", 1))
        events.append(("l1.bytes", instruction.bytes_accessed))
    return events


#: Non-FPU instructions (loads, stores, addressing, loop control) per FPU
#: instruction of a SIMT elementwise sweep.
SIMT_OVERHEAD_RATIO = 1.0


def sweep_cost(
    design: DesignConfig,
    elements: int,
    flops_per_element: float,
    smem_reads: int,
    smem_writes: int,
) -> Tuple[int, Counters]:
    """Cycles and activity for the cluster's SIMT cores to sweep ``elements`` once.

    Closed form: every element costs ``flops_per_element`` FPU operations,
    spread over all lanes of all cores, plus :data:`SIMT_OVERHEAD_RATIO`
    other instructions per FPU instruction; it reads ``smem_reads`` and
    writes ``smem_writes`` shared-memory words.
    """
    cluster = design.cluster
    lanes = cluster.core.lanes
    flops = elements * flops_per_element
    fpu_cycles = flops / (cluster.cores * lanes)
    issue_cycles = fpu_cycles * (1.0 + SIMT_OVERHEAD_RATIO)
    cycles = max(1, int(max(fpu_cycles, issue_cycles)))

    # Events are whole: a partly used FLOP or per-lane instruction counts as
    # one.  The cycles above keep the unrounded rate.
    counters = Counters()
    per_lane = flops / lanes
    overhead = per_lane * SIMT_OVERHEAD_RATIO
    counters.add("core.fpu.ops", math.ceil(flops))
    counters.add("core.issue.instructions", math.ceil(per_lane + overhead))
    counters.add("core.alu.ops", math.ceil(overhead * lanes / 2))
    counters.add("core.lsu.requests", math.ceil(overhead / 2))
    counters.add("core.issue.rf_read_words", math.ceil(2 * (flops + overhead * lanes)))
    counters.add("core.writeback.rf_write_words", math.ceil(flops))
    counters.add("smem.core.read_words", smem_reads * elements)
    counters.add("smem.core.write_words", smem_writes * elements)
    return cycles, counters
