"""The compiled SIMT path equals the reference per-cycle model, field for field.

``repro.simt`` decodes each distinct instruction and program object once
per call (``ProgramSet``) and runs the issue loop on integer lists; the
event tally adds each distinct instruction's events once, scaled by its
count.  ``tests/simt_reference.py`` keeps the model it replaced: warp
objects, scheduler objects and a per-instruction tally.  Every
``IssueResult`` field must match the reference, dict insertion order
included, and so must the counters' items in order -- downstream folds
follow first-seen key order.
"""

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config.presets import DesignKind, gemm_design_kinds, make_design
from repro.config.soc import CoreConfig, DataType
from repro.isa.instructions import Instruction, OpClass
from repro.isa.program import WarpProgram
from repro.kernels.flash_attention import FlashAttentionWorkload
from repro.kernels.gemm import GemmWorkload
from repro.kernels.gemm.instruction_streams import volta_iteration_streams
from repro.kernels.gemm.tiling import tiling_for_design
from repro.perf import cache_disabled
from repro.runner import run_flash_attention, run_gemm
from repro.simt.core import VortexCore
from repro.simt.issue import IssueSimulator
from repro.tensorcore.volta import VoltaTensorCore
from simt_reference import reference_counters, reference_simulate

SCHEDULERS = ("round_robin", "gto")
CORE_CONFIGS = (CoreConfig(), CoreConfig(warps=4, lanes=16))

instructions = st.builds(
    Instruction,
    op_class=st.sampled_from(list(OpClass)),
    reg_reads=st.integers(0, 4),
    reg_writes=st.integers(0, 2),
    bytes_accessed=st.sampled_from((0, 4, 32, 64, 128)),
    tag=st.sampled_from(("", "x")),
)


@st.composite
def program_sets(draw):
    """(config, programs): 1..warps warps over 1-3 program objects.

    Programs draw 0-40 slots from a small instruction pool; a slot reuses
    the pool object or a fresh copy of it (distinct object, same content),
    and warps may repeat one program object.
    """
    config = draw(st.sampled_from(CORE_CONFIGS))
    pool = draw(st.lists(instructions, min_size=1, max_size=6))
    slot = st.tuples(st.integers(0, len(pool) - 1), st.booleans())
    bodies = draw(st.lists(st.lists(slot, max_size=40), min_size=1, max_size=3))
    distinct = [
        WarpProgram(
            name=f"p{index}",
            instructions=[dataclasses.replace(pool[i]) if fresh else pool[i] for i, fresh in body],
        )
        for index, body in enumerate(bodies)
    ]
    warps = draw(
        st.lists(st.integers(0, len(distinct) - 1), min_size=1, max_size=config.warps)
    )
    return config, [distinct[index] for index in warps]


def _issue_view(result):
    """Every IssueResult field, dicts as ordered item lists."""
    return {
        field.name: (
            list(value.items()) if isinstance(value, dict) else value
        )
        for field in dataclasses.fields(result)
        for value in [getattr(result, field.name)]
    }


def assert_matches_reference(config, scheduler, programs):
    expected = reference_simulate(config, scheduler, programs)
    issue = IssueSimulator(config, scheduler).simulate(programs)
    assert _issue_view(issue) == _issue_view(expected)

    with cache_disabled():
        execution = VortexCore(config, scheduler).execute(programs)
    assert _issue_view(execution.issue) == _issue_view(expected)
    expected_counters = reference_counters(programs, config.lanes)
    assert list(execution.counters.items()) == list(expected_counters.items())


class TestRandomProgramSets:
    @settings(deadline=None, max_examples=150)
    @given(case=program_sets())
    def test_both_schedulers_match_reference(self, case):
        config, programs = case
        for scheduler in SCHEDULERS:
            assert_matches_reference(config, scheduler, programs)

    @settings(deadline=None, max_examples=40)
    @given(case=program_sets(), scheduler=st.sampled_from(SCHEDULERS))
    def test_cycle_limit_matches_reference(self, case, scheduler):
        """Both raise exactly when the drain needs more than ``max_cycles + 1`` cycles."""
        config, programs = case
        cycles = reference_simulate(config, scheduler, programs).cycles
        simulator = IssueSimulator(config, scheduler)
        if cycles >= 2:
            for run in (
                lambda: reference_simulate(config, scheduler, programs, max_cycles=cycles - 2),
                lambda: simulator.simulate(programs, max_cycles=cycles - 2),
            ):
                with pytest.raises(RuntimeError, match="cycle limit"):
                    run()
        assert simulator.simulate(programs, max_cycles=max(0, cycles - 1)).cycles == cycles

    def test_empty_inputs_match_reference(self):
        config = CoreConfig()
        for programs in ([], [WarpProgram()], [WarpProgram(), WarpProgram()]):
            for scheduler in SCHEDULERS:
                assert_matches_reference(config, scheduler, programs)


#: Classes that contend for the tensor core, the FPU and the LSU, or block.
CONTENDED = (
    OpClass.HMMA_STEP,
    OpClass.LOAD_SHARED,
    OpClass.ALU,
    OpClass.SFU,
    OpClass.FPU,
    OpClass.BRANCH,
)


def _programs(*streams):
    return [WarpProgram(instructions=[Instruction(op) for op in ops]) for ops in streams]


class TestSchedulerCorners:
    def test_round_robin_pointer_moves_past_a_hazard_rejected_warp(self):
        """A stall still leaves the round-robin pointer on the warp it rejected.

        At cycle 5 warp 3's HMMA step finds the tensor core busy with warp
        2's, and warp 0 still waits on its load: a stall that leaves the
        pointer on warp 3.  At cycle 6 the scan resumes after warp 3, so
        warp 0's step goes first and warp 3 stalls once more behind it.  A
        pointer left on warp 2 would issue warp 3's step at cycle 6 and
        finish a cycle sooner.
        """
        programs = _programs(
            [OpClass.LOAD_SHARED, OpClass.HMMA_STEP],
            [OpClass.LOAD_SHARED],
            [OpClass.ALU, OpClass.HMMA_STEP],
            [OpClass.SFU, OpClass.HMMA_STEP, OpClass.SFU, OpClass.ALU],
        )
        expected = reference_simulate(CoreConfig(), "round_robin", programs)
        assert (expected.cycles, expected.stall_cycles) == (11, 2)
        assert_matches_reference(CoreConfig(), "round_robin", programs)

    def test_seeded_contention_sweep(self):
        """Short, unit-contended programs make rejected picks and stalls common.

        The scheduler pointer only diverges when a stall with a hazard
        rejection meets a warp that unblocks right after it: roughly one
        set in 200 here, too rare for the hypothesis draws above.
        """
        rng = random.Random(17)
        for _ in range(600):
            programs = _programs(
                *(
                    [rng.choice(CONTENDED) for _ in range(rng.randint(0, 12))]
                    for _ in range(rng.randint(2, 8))
                )
            )
            for scheduler in SCHEDULERS:
                expected = reference_simulate(CoreConfig(), scheduler, programs)
                actual = IssueSimulator(CoreConfig(), scheduler).simulate(programs)
                assert _issue_view(actual) == _issue_view(expected)


def _recorded_program_sets(monkeypatch, run):
    """Every (core config, scheduler, programs) ``VortexCore.execute`` receives."""
    recorded = []
    original = VortexCore.execute

    def recording(self, programs):
        recorded.append((self.config, self._issue_simulator.scheduler_kind, list(programs)))
        return original(self, programs)

    monkeypatch.setattr(VortexCore, "execute", recording)
    with cache_disabled():
        run()
    monkeypatch.undo()
    return recorded


def _assert_recorded_match(recorded):
    """Each recorded set matches the reference under both schedulers."""
    assert recorded
    for config, _, programs in recorded:
        for scheduler in SCHEDULERS:
            assert_matches_reference(config, scheduler, programs)


DECODE_SHAPES = [GemmWorkload(m, 1024, 256) for m in (1, 8, 64)] + [GemmWorkload(256, 4096, 1024)]
FLASH_WORKLOADS = [
    FlashAttentionWorkload(seq_len=1024),
    FlashAttentionWorkload(seq_len=4096),
    FlashAttentionWorkload(seq_len=4096, causal=True),
]


class TestRealKernelProgramSets:
    @pytest.mark.parametrize("kind", gemm_design_kinds(), ids=lambda k: k.value)
    def test_gemm_program_sets(self, monkeypatch, kind):
        design = make_design(kind, DataType.FP16)
        recorded = _recorded_program_sets(
            monkeypatch, lambda: [run_gemm(design, w) for w in DECODE_SHAPES]
        )
        _assert_recorded_match(recorded)

    def test_flash_program_sets(self, monkeypatch):
        designs = [make_design(k, DataType.FP32) for k in (DesignKind.VIRGO, DesignKind.AMPERE)]
        recorded = _recorded_program_sets(
            monkeypatch,
            lambda: [run_flash_attention(d, w) for d in designs for w in FLASH_WORKLOADS],
        )
        _assert_recorded_match(recorded)


class TestPinnedKeys:
    """Memo keys equal the ones persisted snapshots were written with.

    A changed encoding would orphan every ``--cache-dir`` snapshot (or,
    worse, collide) without a ``SCHEMA_VERSION`` bump; these digests were
    computed by the per-instruction key the compiled path replaced.
    """

    def test_volta_iteration_key(self):
        design = make_design(DesignKind.VOLTA, DataType.FP16)
        tiling = tiling_for_design(design, GemmWorkload(256, 256, 256))
        streams = volta_iteration_streams(
            design, tiling, VoltaTensorCore(design.matrix_unit), include_copy=True
        )
        key = VortexCore(design.cluster.core).execution_key(streams.programs_for_core())
        assert key.hex() == "1447bd70e4574b13a606f62826e93b09c5a1406ff8313519e226facf5ff897de"

    def test_mixed_set_with_repeated_objects(self):
        load = Instruction(OpClass.LOAD_SHARED, reg_reads=1, reg_writes=1, bytes_accessed=32, tag="a")
        alu = Instruction(OpClass.ALU)
        step = Instruction(OpClass.HMMA_STEP, reg_reads=4, reg_writes=2)
        p0 = WarpProgram("p0", [load, alu, load, step, step, Instruction(OpClass.ALU, tag="b")])
        p1 = (
            WarpProgram("p1")
            .emit_class(OpClass.FPU, repeat=3)
            .emit(step, 2)
            .emit_class(OpClass.VX_BAR, reg_reads=0, reg_writes=0)
        )
        mixed = [p0, p1, p0, p1, p0]
        assert VortexCore(CoreConfig()).execution_key(mixed).hex() == (
            "bcec4eec561d46da1d670b4183ea92823b52609e8d6f19a0a265bc2b593aefb5"
        )
        assert VortexCore(CoreConfig(warps=8, lanes=16), "gto").execution_key(mixed).hex() == (
            "e2ab4684c015774f67c1c45949e68fcfbb6b12501e406d0e3cb49b52514788a7"
        )


class TestSharedInstructions:
    @settings(deadline=None, max_examples=60)
    @given(a=instructions, b=instructions)
    def test_emit_class_shares_equal_content_only(self, a, b):
        def emitted(instruction):
            fields = dataclasses.asdict(instruction)
            return WarpProgram().emit_class(repeat=1, **fields).instructions[0]

        first, again, other = emitted(a), emitted(a), emitted(b)
        assert first == a and other == b
        assert first is again
        assert (first is other) == (a == b)

    def test_builders_share_one_object_per_content(self):
        sequence = VoltaTensorCore(make_design(DesignKind.VOLTA).matrix_unit).hmma_sequence()
        hmma = sequence.as_instructions()
        assert hmma == sequence.as_instructions()
        assert len({id(instruction) for instruction in hmma}) == 2
        emitted = WarpProgram().emit_class(OpClass.HMMA_SET, reg_reads=1, reg_writes=0)
        assert emitted.instructions[0] is hmma[0]

    def test_tags_are_never_merged(self):
        program = WarpProgram().emit_class(OpClass.ALU, tag="a").emit_class(OpClass.ALU, tag="b")
        first, second = program.instructions
        assert (first.tag, second.tag) == ("a", "b")
        assert first is not second

    def test_numeric_types_are_never_merged(self):
        """``1`` and ``1.0`` encode differently in the memo key."""
        whole = WarpProgram().emit_class(OpClass.ALU, reg_reads=1).instructions[0]
        real = WarpProgram().emit_class(OpClass.ALU, reg_reads=1.0).instructions[0]
        assert whole is not real
        assert type(real.reg_reads) is float
