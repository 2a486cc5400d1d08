"""The SIMT core execution memo is invisible in every result.

``VortexCore.execute`` memoizes by content in a timing-cache namespace:
the key digests the core config and each warp's
(op class, register reads, register writes, bytes accessed) sequence.  The
reference is a ``cache_disabled()`` run, which neither reads nor writes the
memo.  A memoized execute on a cold cache, a warm cache and after
``clear()`` must equal it field for field -- dict insertion order included,
since downstream counter folds follow first-seen key order.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.report import paper_comparison
from repro.config.presets import DesignKind, gemm_design_kinds, make_design
from repro.config.soc import CoreConfig, DataType
from repro.isa.instructions import Instruction, OpClass
from repro.isa.program import WarpProgram
from repro.kernels.flash_attention import FlashAttentionWorkload, simulate_flash_attention
from repro.kernels.gemm import GemmWorkload, simulate_gemm
from repro.perf import cache_disabled, timing_cache
from repro.runner import run_flash_attention, run_gemm
from repro.simt import core as simt_core
from repro.simt.core import VortexCore
from repro.simt.issue import IssueSimulator

#: Blocking, load/store-unit and tensor-core classes, plus ALU/FPU filler.
OP_CLASSES = (
    OpClass.LOAD_SHARED,
    OpClass.LOAD_GLOBAL,
    OpClass.BRANCH,
    OpClass.VX_BAR,
    OpClass.MMIO_POLL,
    OpClass.STORE_SHARED,
    OpClass.STORE_GLOBAL,
    OpClass.DMA_PROGRAM,
    OpClass.HMMA_SET,
    OpClass.HMMA_STEP,
    OpClass.ALU,
    OpClass.FPU,
)
CORE_CONFIGS = (CoreConfig(), CoreConfig(warps=8, lanes=16))
#: The content fields of an instruction (everything but ``tag``).
CONTENT_FIELDS = ("op_class", "reg_reads", "reg_writes", "bytes_accessed")

instructions = st.builds(
    Instruction,
    op_class=st.sampled_from(OP_CLASSES),
    reg_reads=st.integers(0, 3),
    reg_writes=st.integers(0, 2),
    bytes_accessed=st.sampled_from((0, 4, 32, 64)),
    tag=st.sampled_from(("", "a", "b")),
)


@st.composite
def program_sets(draw):
    """(config, programs): 1-8 warps over a small instruction pool.

    Each slot either reuses a pool object (shared, as ``emit(repeat=...)``
    does) or a fresh copy of it (distinct object, same content).
    """
    pool = draw(st.lists(instructions, min_size=1, max_size=5))
    programs = []
    for warp in range(draw(st.integers(1, 8))):
        slots = draw(
            st.lists(
                st.tuples(st.integers(0, len(pool) - 1), st.booleans()),
                min_size=1,
                max_size=24,
            )
        )
        body = [dataclasses.replace(pool[i]) if fresh else pool[i] for i, fresh in slots]
        programs.append(WarpProgram(name=f"w{warp}", instructions=body))
    return draw(st.sampled_from(CORE_CONFIGS)), programs


def _items(value):
    return list(value.items()) if isinstance(value, dict) else value


def _view(result):
    """Every IssueResult field and the counters, dicts as ordered item lists."""
    issue = {
        field.name: _items(getattr(result.issue, field.name))
        for field in dataclasses.fields(result.issue)
    }
    return issue, list(result.counters.as_dict().items())


def _table():
    return timing_cache().namespace(simt_core._EXECUTION_NAMESPACE)


@pytest.fixture(autouse=True)
def fresh_cache():
    timing_cache().clear()
    yield
    timing_cache().clear()


class TestExecuteDifferential:
    @settings(deadline=None, max_examples=60)
    @given(case=program_sets())
    def test_cold_warm_cleared_equal_disabled(self, case):
        config, programs = case
        core = VortexCore(config)
        timing_cache().clear()
        with cache_disabled():
            oracle = _view(core.execute(programs))
        assert len(_table()) == 0
        cold = core.execute(programs)
        warm = VortexCore(config).execute(programs)
        assert warm is cold
        assert len(_table()) == 1
        timing_cache().clear()
        cleared = core.execute(programs)
        assert _view(cold) == _view(cleared) == oracle

    @settings(deadline=None, max_examples=40)
    @given(case=program_sets(), data=st.data())
    def test_key_ignores_tags_and_names_only(self, case, data):
        config, programs = case
        timing_cache().clear()
        core = VortexCore(config)
        key = core.execution_key(programs)

        renamed = [
            WarpProgram(
                name="other",
                instructions=[dataclasses.replace(i, tag=i.tag + "x") for i in p.instructions],
            )
            for p in programs
        ]
        assert core.execution_key(renamed) == key
        first = core.execute(programs)
        assert core.execute(renamed) is first
        assert len(_table()) == 1

        # Any content field of any one instruction.
        warp = data.draw(st.integers(0, len(programs) - 1))
        position = data.draw(st.integers(0, len(programs[warp]) - 1))
        name = data.draw(st.sampled_from(CONTENT_FIELDS))
        original = programs[warp].instructions[position]
        if name == "op_class":
            value = data.draw(st.sampled_from([c for c in OpClass if c is not original.op_class]))
        else:
            value = getattr(original, name) + data.draw(st.integers(1, 4))
        mutated = [WarpProgram(instructions=list(p.instructions)) for p in programs]
        mutated[warp].instructions[position] = dataclasses.replace(original, **{name: value})
        assert core.execution_key(mutated) != key

        # Core config.
        other_config = next(c for c in CORE_CONFIGS if c != config)
        assert VortexCore(other_config).execution_key(programs) != key

        # Warp order, whenever it changes the content sequence.
        swapped = programs[::-1]
        contents = lambda ps: [
            [tuple(getattr(i, f) for f in CONTENT_FIELDS) for i in p.instructions] for p in ps
        ]
        if contents(swapped) != contents(programs):
            assert core.execution_key(swapped) != key

        # Warp boundaries: two warps are not one warp running both streams.
        if len(programs) >= 2:
            joined = [
                WarpProgram(instructions=programs[0].instructions + programs[1].instructions)
            ] + programs[2:]
            assert core.execution_key(joined) != key

    def test_distinct_inputs_get_distinct_entries(self):
        program = WarpProgram().emit_class(OpClass.LOAD_SHARED, repeat=3, bytes_accessed=32)
        VortexCore(CORE_CONFIGS[0]).execute([program])
        VortexCore(CORE_CONFIGS[1]).execute([program])
        VortexCore(CORE_CONFIGS[0]).execute([program, program])
        assert len(_table()) == 3


def _gemm_view(result):
    kernel = result.kernel
    return (
        result.to_dict(),
        list(kernel.counters.as_dict().items()),
        kernel.iteration_cycles,
        kernel.retired_instructions,
    )


def _flash_view(result):
    return result.to_dict(), list(result.kernel.counters.as_dict().items())


GEMM_SHAPES = [
    GemmWorkload(m, n, k) for m in (1, 8, 64, 256) for n, k in ((1024, 256), (4096, 1024))
]
FLASH_WORKLOADS = [
    FlashAttentionWorkload(seq_len=1024),
    FlashAttentionWorkload(seq_len=4096),
    FlashAttentionWorkload(seq_len=4096, causal=True),
]


class TestRealKernels:
    @pytest.mark.parametrize("kind", gemm_design_kinds(), ids=lambda k: k.value)
    def test_gemm_shapes_equal_disabled(self, kind):
        design = make_design(kind, DataType.FP16)
        with cache_disabled():
            oracle = [_gemm_view(run_gemm(design, w)) for w in GEMM_SHAPES]
        # One cache across all shapes, so later shapes replay earlier entries.
        assert [_gemm_view(run_gemm(design, w)) for w in GEMM_SHAPES] == oracle
        for workload, expected in zip(GEMM_SHAPES, oracle):
            warm = simulate_gemm(design, workload)
            assert list(warm.counters.as_dict().items()) == expected[1]
            assert warm.total_cycles == expected[0]["total_cycles"]

    @pytest.mark.parametrize("kind", [DesignKind.VIRGO, DesignKind.AMPERE], ids=lambda k: k.value)
    def test_flash_equal_disabled(self, kind):
        design = make_design(kind, DataType.FP32)
        with cache_disabled():
            oracle = [_flash_view(run_flash_attention(design, w)) for w in FLASH_WORKLOADS]
        assert [_flash_view(run_flash_attention(design, w)) for w in FLASH_WORKLOADS] == oracle
        for workload, expected in zip(FLASH_WORKLOADS, oracle):
            warm = simulate_flash_attention(design, workload)
            assert list(warm.counters.as_dict().items()) == expected[1]


class TestPaperComparisonCounts:
    def _count_simulations(self, monkeypatch):
        calls = []
        original = IssueSimulator.simulate

        def counting(self, *args, **kwargs):
            calls.append(1)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(IssueSimulator, "simulate", counting)
        return calls

    def test_cold_comparison_simulates_once_per_entry(self, monkeypatch):
        calls = self._count_simulations(monkeypatch)
        paper_comparison()
        assert len(_table()) > 0
        assert len(calls) == len(_table())

    def test_disabled_comparison_writes_no_entries(self, monkeypatch):
        calls = self._count_simulations(monkeypatch)
        with cache_disabled():
            paper_comparison()
        assert calls
        assert len(_table()) == 0
