"""The compiled SIMT path equals the reference per-cycle model, field for field.

``repro.simt`` decodes each distinct instruction and program object once
per call (``ProgramSet``) and runs the issue loop on integer lists; the
event tally adds each distinct instruction's events once, scaled by its
count.  ``tests/simt_reference.py`` keeps the model it replaced: warp
objects, a round-robin scheduler object and a per-instruction tally.  Every
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
from repro.kernels.gemm.instruction_streams import core_coupled_iteration_streams
from repro.kernels.gemm.tiling import tiling_for_design
from repro.perf import cache_disabled
from repro.runner import run_flash_attention, run_gemm
from repro.simt.core import VortexCore
from repro.simt.issue import IssueSimulator
from repro.tensorcore.volta import VoltaTensorCore
from simt_reference import reference_counters, reference_simulate

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


def assert_matches_reference(config, programs):
    expected = reference_simulate(config, programs)
    issue = IssueSimulator(config).simulate(programs)
    assert _issue_view(issue) == _issue_view(expected)

    with cache_disabled():
        execution = VortexCore(config).execute(programs)
    assert _issue_view(execution.issue) == _issue_view(expected)
    expected_counters = reference_counters(programs, config.lanes)
    assert list(execution.counters.items()) == list(expected_counters.items())


class TestRandomProgramSets:
    @settings(deadline=None, max_examples=150)
    @given(case=program_sets())
    def test_round_robin_matches_reference(self, case):
        config, programs = case
        assert_matches_reference(config, programs)

    @settings(deadline=None, max_examples=40)
    @given(case=program_sets())
    def test_cycle_limit_matches_reference(self, case):
        """Both raise exactly when the drain needs more than ``max_cycles + 1`` cycles."""
        config, programs = case
        cycles = reference_simulate(config, programs).cycles
        simulator = IssueSimulator(config)
        if cycles >= 2:
            for run in (
                lambda: reference_simulate(config, programs, max_cycles=cycles - 2),
                lambda: simulator.simulate(programs, max_cycles=cycles - 2),
            ):
                with pytest.raises(RuntimeError, match="cycle limit"):
                    run()
        assert simulator.simulate(programs, max_cycles=max(0, cycles - 1)).cycles == cycles

    def test_empty_inputs_match_reference(self):
        config = CoreConfig()
        for programs in ([], [WarpProgram()], [WarpProgram(), WarpProgram()]):
            assert_matches_reference(config, programs)


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
        expected = reference_simulate(CoreConfig(), programs)
        assert (expected.cycles, expected.stall_cycles) == (11, 2)
        assert_matches_reference(CoreConfig(), programs)

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
            expected = reference_simulate(CoreConfig(), programs)
            actual = IssueSimulator(CoreConfig()).simulate(programs)
            assert _issue_view(actual) == _issue_view(expected)


def _recorded_program_sets(monkeypatch, run):
    """Every (core config, programs) ``VortexCore.execute`` receives."""
    recorded = []
    original = VortexCore.execute

    def recording(self, programs):
        recorded.append((self.config, list(programs)))
        return original(self, programs)

    monkeypatch.setattr(VortexCore, "execute", recording)
    with cache_disabled():
        run()
    monkeypatch.undo()
    return recorded


def _assert_recorded_match(recorded):
    """Each recorded set matches the reference."""
    assert recorded
    for config, programs in recorded:
        assert_matches_reference(config, programs)


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
    computed by a per-instruction encoder written apart from the compiled
    path.
    """

    def test_volta_iteration_key(self):
        design = make_design(DesignKind.VOLTA, DataType.FP16)
        tiling = tiling_for_design(design, GemmWorkload(256, 256, 256))
        sequence = VoltaTensorCore(design.matrix_unit).hmma_sequence()
        streams = core_coupled_iteration_streams(design, tiling, sequence.as_instructions())
        key = VortexCore(design.cluster.core).execution_key(streams.programs_for_core())
        assert key.hex() == "0124d44384216b746756820deaf437a826ba548ccd33a9f5fb0c1b305f6005cf"

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
            "ecb386e5b026fa67e9ccd1371a9c1701f22b7f33dd30f32001c3f88a47b4174d"
        )
        assert VortexCore(CoreConfig(warps=8, lanes=16)).execution_key(mixed).hex() == (
            "668b8f134b43b1a59092c4bdf7f6810dcebc85ef20bc0fb167dbec2f220a8b52"
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
