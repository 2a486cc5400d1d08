"""Property-based tests (hypothesis) on the core data structures and invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config.soc import DataType, SharedMemoryConfig
from repro.core.accumulator import AccumulatorMemory
from repro.core.systolic_array import SystolicArray
from repro.memory.shared_memory import BankedSharedMemory
from repro.sim.resources import Resource
from repro.sim.stats import Counters
from repro.sim.taskgraph import OperationGraph
from repro.simt.occupancy import GENERATIONS, OccupancyCalculator
from repro.kernels.flash_attention import flash_attention_reference, attention_reference
from repro.kernels.gemm.base import GemmWorkload
from repro.kernels.gemm.tiling import ThreadBlockTiling


# --------------------------------------------------------------------------- #
# Counters
# --------------------------------------------------------------------------- #


@given(
    st.dictionaries(
        st.sampled_from(["a.x", "a.y", "b.z"]),
        st.floats(min_value=0, max_value=1e6, allow_nan=False),
        max_size=3,
    ),
    st.floats(min_value=0, max_value=100, allow_nan=False),
)
def test_counters_scaling_is_linear(counts, factor):
    counters = Counters(counts)
    scaled = counters.scaled(factor)
    for key, value in counts.items():
        assert scaled[key] == value * factor


@given(
    st.dictionaries(st.sampled_from(["a", "b", "c"]), st.floats(0, 1e6), max_size=3),
    st.dictionaries(st.sampled_from(["a", "b", "c"]), st.floats(0, 1e6), max_size=3),
)
def test_counters_merge_commutative_in_totals(left, right):
    a = Counters(left) + Counters(right)
    b = Counters(right) + Counters(left)
    # Floating-point addition is not associative, so compare within an ulp-scale
    # tolerance rather than exactly.
    assert a.total() == pytest.approx(b.total(), rel=1e-12)


# --------------------------------------------------------------------------- #
# Resources and scheduling
# --------------------------------------------------------------------------- #


@given(st.lists(st.tuples(st.integers(0, 1000), st.integers(0, 100)), min_size=1, max_size=30))
def test_resource_reservations_never_overlap(requests):
    resource = Resource("unit")
    intervals = []
    for ready, duration in requests:
        start, end = resource.reserve(ready, duration)
        assert start >= ready
        intervals.append((start, end))
    intervals.sort()
    for (_, prev_end), (next_start, _) in zip(intervals, intervals[1:]):
        assert next_start >= prev_end


@given(st.lists(st.integers(1, 500), min_size=1, max_size=20))
def test_chain_schedule_equals_sum(durations):
    graph = OperationGraph()
    graph.add_resource(Resource("r"))
    previous = None
    for index, duration in enumerate(durations):
        deps = [previous] if previous else []
        graph.add_operation(f"op{index}", "r", duration, deps=deps)
        previous = f"op{index}"
    assert graph.schedule().total_cycles == sum(durations)


@given(st.lists(st.integers(1, 500), min_size=1, max_size=20))
def test_independent_ops_on_two_resources_finish_at_max(durations):
    graph = OperationGraph()
    graph.add_resource(Resource("a"))
    graph.add_resource(Resource("b"))
    for index, duration in enumerate(durations):
        graph.add_operation(f"a{index}", "a", duration)
        graph.add_operation(f"b{index}", "b", duration)
    assert graph.schedule().total_cycles == sum(durations)


# --------------------------------------------------------------------------- #
# Memory system
# --------------------------------------------------------------------------- #


@given(st.lists(st.integers(0, 0x1FFFC // 4).map(lambda w: w * 4), min_size=1, max_size=8))
def test_shared_memory_mapping_in_range(addresses):
    smem = BankedSharedMemory(SharedMemoryConfig())
    for address in addresses:
        bank, subbank = smem.bank_and_subbank(address)
        assert 0 <= bank < smem.config.banks
        assert 0 <= subbank < smem.config.subbanks


@given(st.integers(1, 64), st.integers(1, 64))
def test_accumulator_roundtrip(rows, cols):
    accumulator = AccumulatorMemory(64 * 1024)
    accumulator.allocate("t", rows, cols)
    values = np.full((rows, cols), 3.5, dtype=np.float32)
    accumulator.write("t", values)
    np.testing.assert_allclose(accumulator.read("t"), values)


# --------------------------------------------------------------------------- #
# Systolic array
# --------------------------------------------------------------------------- #


@settings(deadline=None, max_examples=25)
@given(st.integers(1, 64), st.integers(1, 64), st.integers(1, 64))
def test_systolic_tile_cycles_at_least_ideal(m, n, k):
    array = SystolicArray(16, 16, dtype=DataType.FP32)
    assert array.tile_cycles(m, n, k) >= array.ideal_tile_cycles(m, n, k)


@settings(deadline=None, max_examples=20)
@given(st.integers(1, 24), st.integers(1, 24), st.integers(1, 24))
def test_systolic_functional_matches_numpy(m, k, n):
    rng = np.random.default_rng(m * 1000 + k * 10 + n)
    array = SystolicArray(32, 32, dtype=DataType.FP32)
    a = rng.standard_normal((min(m, 32), k)).astype(np.float32)
    b = rng.standard_normal((k, min(n, 32))).astype(np.float32)
    np.testing.assert_allclose(array.compute_subtile(a, b), a @ b, rtol=1e-4, atol=1e-4)


# --------------------------------------------------------------------------- #
# Occupancy
# --------------------------------------------------------------------------- #


@given(st.integers(16, 255), st.sampled_from(list(GENERATIONS)))
def test_occupancy_bounded(registers, gpu):
    calculator = OccupancyCalculator(GENERATIONS[gpu])
    result = calculator.calculate(registers, threads_per_block=256)
    assert 0.0 <= result.occupancy <= 1.0


# --------------------------------------------------------------------------- #
# GEMM tiling invariants
# --------------------------------------------------------------------------- #


@settings(deadline=None, max_examples=40)
@given(
    st.integers(1, 16).map(lambda x: 64 * x),
    st.integers(1, 16).map(lambda x: 64 * x),
    st.integers(1, 16).map(lambda x: 64 * x),
)
def test_tiling_covers_all_macs(m, n, k):
    workload = GemmWorkload(m=m, n=n, k=k)
    tiling = ThreadBlockTiling(block_m=64, block_n=64, block_k=64, workload=workload)
    covered = tiling.total_iterations * tiling.macs_per_iteration
    assert covered >= workload.macs


# --------------------------------------------------------------------------- #
# FlashAttention numerics
# --------------------------------------------------------------------------- #


@settings(deadline=None, max_examples=10)
@given(st.integers(1, 4), st.integers(1, 4))
def test_flash_attention_matches_reference(q_blocks, kv_blocks):
    rng = np.random.default_rng(q_blocks * 10 + kv_blocks)
    q = rng.standard_normal((16 * q_blocks, 32)).astype(np.float32)
    k = rng.standard_normal((16 * kv_blocks, 32)).astype(np.float32)
    v = rng.standard_normal((16 * kv_blocks, 32)).astype(np.float32)
    blocked = flash_attention_reference(q, k, v, block_q=16, block_kv=16)
    np.testing.assert_allclose(blocked, attention_reference(q, k, v), rtol=1e-4, atol=1e-4)
