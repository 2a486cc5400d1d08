"""The steady-state iteration memo is invisible in every result.

Each kernel model memoizes its steady-state iteration in the
``kernels.iteration`` timing-cache namespace: the GEMM models by (model,
design fingerprint, block_m, block_n, block_k, dtype), the Virgo and
Ampere FlashAttention mappings by (model, design fingerprint, block_q,
block_kv, head_dim).  The reference is a ``cache_disabled()`` run, which
neither reads nor writes the memo.  Memoized runs on a cold cache, a warm
cache and after ``clear()`` must equal it: the canonical ``to_dict()``, the
kernel fields and the counters item for item, in first-seen key order.
"""

import dataclasses
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.report import paper_comparison
from repro.config.presets import DesignKind, gemm_design_kinds, make_design
from repro.config.soc import DataType
from repro.energy.model import EnergyTable
from repro.energy.power import make_power_report
from repro.isa.program import WarpProgram
from repro.kernels.flash_attention import (
    AmpereFlashAttentionKernel,
    FlashAttentionWorkload,
    VirgoFlashAttentionKernel,
    simulate_flash_attention,
)
from repro.kernels.gemm import (
    GemmWorkload,
    OperandDecoupledGemmKernel,
    TightlyCoupledGemmKernel,
    VirgoGemmKernel,
    kernel_for_design,
    simulate_gemm,
)
from repro.kernels.gemm.base import ITERATION_NAMESPACE
from repro.kernels.gemm.tiling import tiling_for_design
from repro.kernels.heterogeneous import design_with_unit, small_unit_config
from repro.perf import SCHEMA_VERSION, cache_disabled, timing_cache
from repro.runner import FlashAttentionRunResult, GemmRunResult
from repro.sim.stats import Counters
from repro.simt.core import VortexCore

DTYPES = (DataType.FP16, DataType.FP32)
GEMM_SHAPES = [(m, n, k) for m in (1, 8, 64, 256) for n, k in ((1024, 256), (4096, 1024))]
FLASH_WORKLOADS = [
    FlashAttentionWorkload(seq_len=1024),
    FlashAttentionWorkload(seq_len=4096),
    FlashAttentionWorkload(seq_len=4096, causal=True),
    FlashAttentionWorkload(seq_len=2048, block_q=32, head_dim=128),
]
FLASH_KINDS = (DesignKind.VIRGO, DesignKind.AMPERE)
FLASH_MAPPINGS = (VirgoFlashAttentionKernel, AmpereFlashAttentionKernel)
ITERATION_MODELS = (
    TightlyCoupledGemmKernel,
    OperandDecoupledGemmKernel,
    VirgoGemmKernel,
    *FLASH_MAPPINGS,
)


def _table():
    return timing_cache().namespace(ITERATION_NAMESPACE)


def _power(design, kernel):
    return make_power_report(
        design.name,
        kernel.counters,
        EnergyTable.for_design(design.style),
        kernel.total_cycles,
        design.soc,
    )


def _kernel_fields(kernel):
    return (
        kernel.total_cycles,
        list(kernel.counters.items()),
        dict(kernel.phase_cycles),
        dict(getattr(kernel, "resource_busy", {})),
        dict(kernel.schedule_stats),
    )


def _gemm_view(design, workload, full_expansion=False):
    """What a GEMM run reports, simulated past the timing cache."""
    kernel = simulate_gemm(design, workload, full_expansion=full_expansion)
    run = GemmRunResult(design=design, kernel=kernel, power=_power(design, kernel))
    return (
        run.to_dict(),
        _kernel_fields(kernel),
        kernel.iteration_cycles,
        kernel.retired_instructions,
    )


def _flash_view(design, workload, full_expansion=False):
    kernel = simulate_flash_attention(design, workload, full_expansion=full_expansion)
    run = FlashAttentionRunResult(design=design, kernel=kernel, power=_power(design, kernel))
    return run.to_dict(), _kernel_fields(kernel)


def _differential(views):
    """Cold, warm and post-``clear()`` memoized runs all equal the disabled run."""
    with cache_disabled():
        oracle = views()
    assert len(_table()) == 0
    timing_cache().clear()
    assert views() == oracle  # cold: later shapes replay earlier entries
    assert len(_table()) > 0
    assert views() == oracle  # warm
    timing_cache().clear()
    assert views() == oracle  # cleared


@pytest.fixture(autouse=True)
def fresh_cache():
    timing_cache().clear()
    yield
    timing_cache().clear()


class TestDifferential:
    @pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: d.value)
    @pytest.mark.parametrize("kind", gemm_design_kinds(), ids=lambda k: k.value)
    def test_gemm_shapes(self, kind, dtype):
        design = make_design(kind, dtype)
        workloads = [GemmWorkload(m, n, k, dtype) for m, n, k in GEMM_SHAPES]
        _differential(lambda: [_gemm_view(design, w) for w in workloads])

    def test_all_designs_share_one_table(self):
        """Volta and Ampere run one model: only the design tells them apart."""
        designs = [make_design(kind, DataType.FP16) for kind in gemm_design_kinds()]
        workload = GemmWorkload(64, 1024, 256)
        _differential(lambda: [_gemm_view(design, workload) for design in designs])
        assert len(_table()) == len(designs)

    def test_heterogeneous_small_unit(self):
        base = make_design(DesignKind.VIRGO, DataType.FP16)
        small = design_with_unit(base, small_unit_config(base.matrix_unit))
        workloads = [GemmWorkload(m, n, k) for m, n, k in GEMM_SHAPES] + [
            GemmWorkload.square(128),
            GemmWorkload.square(256),
        ]
        _differential(
            lambda: [_gemm_view(design, w) for design in (base, small) for w in workloads]
        )

    def test_ampere_flash(self):
        design = make_design(DesignKind.AMPERE, DataType.FP32)
        _differential(lambda: [_flash_view(design, w) for w in FLASH_WORKLOADS])
        assert len(_table()) == 2  # default blocks, and the non-default one

    def test_virgo_flash(self):
        design = make_design(DesignKind.VIRGO, DataType.FP32)
        _differential(lambda: [_flash_view(design, w) for w in FLASH_WORKLOADS])
        assert len(_table()) == 2
        assert {key[0] for key in _table()} == {"flash.virgo"}

    @pytest.mark.parametrize("kind", gemm_design_kinds(), ids=lambda k: k.value)
    def test_full_expansion(self, kind):
        design = make_design(kind, DataType.FP16)
        workloads = [GemmWorkload(64, 1024, 256), GemmWorkload.square(256)]
        _differential(
            lambda: [_gemm_view(design, w, full_expansion=True) for w in workloads]
        )

    def test_flash_full_expansion(self):
        designs = [make_design(kind, DataType.FP32) for kind in FLASH_KINDS]
        workloads = FLASH_WORKLOADS[:1] + FLASH_WORKLOADS[2:]
        _differential(
            lambda: [
                _flash_view(design, w, full_expansion=True)
                for design in designs
                for w in workloads
            ]
        )


# --------------------------------------------------------------------------- #
# Key completeness
# --------------------------------------------------------------------------- #


def _leaf_paths(value, prefix=()):
    """Field paths to every non-dataclass value of a config tree."""
    for field in dataclasses.fields(value):
        child = getattr(value, field.name)
        if dataclasses.is_dataclass(child):
            yield from _leaf_paths(child, prefix + (field.name,))
        else:
            yield prefix + (field.name,)


def _replace_leaf(value, path, leaf):
    if len(path) == 1:
        return dataclasses.replace(value, **{path[0]: leaf})
    child = getattr(value, path[0])
    return dataclasses.replace(value, **{path[0]: _replace_leaf(child, path[1:], leaf)})


def _get_leaf(value, path):
    for name in path:
        value = getattr(value, name)
    return value


def _perturbed(leaf, double):
    if isinstance(leaf, bool):
        return not leaf
    if isinstance(leaf, DataType):
        return DataType.FP32 if leaf is DataType.FP16 else DataType.FP16
    if isinstance(leaf, str):
        return leaf + "-variant"
    return leaf * 2 if double else leaf + 1


#: Leaves no kernel model accepts another value of: the integration style
#: picks the model.
FIXED_LEAVES = {"style"}
DESIGN_LEAVES = [
    path
    for path in _leaf_paths(make_design(DesignKind.VOLTA))
    if path[-1] not in FIXED_LEAVES
]


def _memo_key(simulate):
    """The one memo key a kernel simulation stores, read from the table."""
    timing_cache().clear()
    simulate()
    (key,) = _table().keys()
    return key


def _iteration_view(value):
    """A memo value with its ``Counters`` as ordered item lists."""
    return [list(item.items()) if isinstance(item, Counters) else item for item in value]


def _gemm_case(design, workload):
    kernel = kernel_for_design(design)
    tiling = tiling_for_design(design, workload)
    return (
        lambda: kernel.simulate(workload),
        lambda: _iteration_view(kernel._iteration(tiling)),
    )


def _flash_case(design, workload):
    (mapping,) = [mapping for mapping in FLASH_MAPPINGS if design.style in mapping.STYLES]
    kernel = mapping(design)
    shape = (workload.block_q, workload.block_kv, workload.head_dim)
    return (
        lambda: kernel.simulate(workload),
        lambda: _iteration_view(kernel._iteration(*shape)),
    )


def _assert_key_complete(base, perturbed):
    """Either the memo key changes, or the disabled iteration is identical."""
    (simulate_a, iterate_a), (simulate_b, iterate_b) = base, perturbed
    if _memo_key(simulate_a) != _memo_key(simulate_b):
        return
    with cache_disabled():
        assert iterate_a() == iterate_b()


@st.composite
def gemm_perturbations(draw):
    kind = draw(st.sampled_from(gemm_design_kinds()))
    dtype = draw(st.sampled_from(DTYPES))
    design = make_design(kind, dtype)
    # Small M/N/K clip the block dims, so a change of one reaches one block dim.
    dims = [draw(st.sampled_from((8, 16, 48, 256))) for _ in range(3)]
    workload = GemmWorkload(*dims, dtype)
    target = draw(st.sampled_from(("design", "block", "dtype")))
    if target == "design":
        path = draw(st.sampled_from(DESIGN_LEAVES))
        leaf = _perturbed(_get_leaf(design, path), draw(st.booleans()))
        return design, workload, _replace_leaf(design, path, leaf), workload
    if target == "block":
        axis = draw(st.integers(0, 2))
        dims[axis] = dims[axis] // 2
        return design, workload, design, GemmWorkload(*dims, dtype)
    other = DataType.FP32 if dtype is DataType.FP16 else DataType.FP16
    return design, workload, design, dataclasses.replace(workload, dtype=other)


@st.composite
def flash_perturbations(draw):
    design = make_design(draw(st.sampled_from(FLASH_KINDS)), DataType.FP32)
    workload = FlashAttentionWorkload(seq_len=1024)
    target = draw(st.sampled_from(("design", "block_q", "block_kv", "head_dim", "seq_len")))
    if target == "design":
        path = draw(st.sampled_from(DESIGN_LEAVES))
        leaf = _perturbed(_get_leaf(design, path), draw(st.booleans()))
        return design, workload, _replace_leaf(design, path, leaf), workload
    value = draw(st.sampled_from((32, 128)))
    if target == "seq_len":
        value *= 16
    return design, workload, design, dataclasses.replace(workload, **{target: value})


class TestKeyCompleteness:
    @settings(deadline=None, max_examples=120)
    @given(case=gemm_perturbations())
    def test_gemm_key_is_complete(self, case):
        design, workload, other_design, other_workload = case
        _assert_key_complete(
            _gemm_case(design, workload), _gemm_case(other_design, other_workload)
        )

    @settings(deadline=None, max_examples=100)
    @given(case=flash_perturbations())
    def test_flash_key_is_complete(self, case):
        design, workload, other_design, other_workload = case
        _assert_key_complete(
            _flash_case(design, workload), _flash_case(other_design, other_workload)
        )

    def test_gemm_shapes_differing_only_in_trip_counts_share_a_key(self):
        design = make_design(DesignKind.VOLTA, DataType.FP16)
        keys = {
            _memo_key(lambda w=w: simulate_gemm(design, w))
            for w in (GemmWorkload(256, 1024, 256), GemmWorkload(512, 4096, 1024))
        }
        assert len(keys) == 1

    @pytest.mark.parametrize("kind", FLASH_KINDS, ids=lambda k: k.value)
    def test_flash_masks_and_lengths_share_a_key(self, kind):
        design = make_design(kind, DataType.FP32)
        keys = {
            _memo_key(lambda w=w: simulate_flash_attention(design, w))
            for w in FLASH_WORKLOADS[:3]
        }
        assert len(keys) == 1


# --------------------------------------------------------------------------- #
# Lifecycle
# --------------------------------------------------------------------------- #


def _count_calls(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


def _run_mix():
    """Two GEMMs on one block shape, and one Ampere flash kernel."""
    volta = make_design(DesignKind.VOLTA, DataType.FP16)
    ampere = make_design(DesignKind.AMPERE, DataType.FP32)
    return [
        _gemm_view(volta, GemmWorkload(256, 1024, 256)),
        _gemm_view(volta, GemmWorkload(512, 1024, 256)),
        _flash_view(ampere, FlashAttentionWorkload(seq_len=2048)),
    ]


class TestLifecycle:
    def test_clear_empties_the_table(self):
        _run_mix()
        assert len(_table()) == 2
        timing_cache().clear()
        assert len(_table()) == 0

    def test_snapshot_serves_a_fresh_cache_without_building_programs(self, monkeypatch):
        expected = _run_mix()
        snapshot = pickle.loads(pickle.dumps(timing_cache().snapshot()))
        timing_cache().clear()
        timing_cache().load(snapshot)
        emitted = _count_calls(monkeypatch, WarpProgram, "emit_class")
        executed = _count_calls(monkeypatch, VortexCore, "execute")
        assert _run_mix() == expected
        assert emitted == [] and executed == []

    def test_stale_schema_snapshot_is_orphaned(self, monkeypatch):
        _run_mix()
        snapshot = timing_cache().snapshot()
        timing_cache().clear()
        timing_cache().load(dict(snapshot, schema=SCHEMA_VERSION + 1))
        assert len(_table()) == 0
        executed = _count_calls(monkeypatch, VortexCore, "execute")
        _run_mix()
        assert len(executed) == 2

    def test_memo_hits_leave_stats_unchanged(self):
        _run_mix()
        _run_mix()
        assert timing_cache().stats() == {"hits": 0, "misses": 0, "entries": 0}

    def test_cold_comparison_builds_each_key_once(self, monkeypatch):
        builds = [_count_calls(monkeypatch, model, "_iteration") for model in ITERATION_MODELS]
        paper_comparison()
        assert sum(len(calls) for calls in builds) == len(_table()) > 0
        for value in _table().values():
            assert all(isinstance(item, (int, Counters)) for item in value), value

    def test_disabled_comparison_writes_no_entries(self, monkeypatch):
        builds = _count_calls(monkeypatch, TightlyCoupledGemmKernel, "_iteration")
        with cache_disabled():
            paper_comparison()
        assert builds
        assert len(_table()) == 0
