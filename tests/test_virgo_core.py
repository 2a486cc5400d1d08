"""Tests for Virgo's disaggregated matrix unit: systolic array, accumulator, MMIO,
synchronizer, Gemmini unit, cluster assembly and the virgo_* API."""

import numpy as np
import pytest

from repro.config.presets import DesignKind
from repro.config.soc import DataType
from repro.core.accumulator import AccumulatorAllocationError, AccumulatorMemory
from repro.core.api import VirgoContext
from repro.core.cluster import VirgoCluster
from repro.core.gemmini import GemminiMatrixUnit
from repro.core.mmio import CommandStatus, MmioInterface, MmioRegister
from repro.core.synchronizer import ClusterSynchronizer
from repro.core.systolic_array import SystolicArray
from repro.kernels.gemm.base import GemmWorkload
from repro.runner import run_gemm
from repro.sim.stats import Counters


class TestSystolicArray:
    def test_functional_correctness(self, rng):
        array = SystolicArray(16, 16, dtype=DataType.FP32)
        a = rng.standard_normal((16, 64)).astype(np.float32)
        b = rng.standard_normal((64, 16)).astype(np.float32)
        result = array.compute_subtile(a, b)
        np.testing.assert_allclose(result, a @ b, rtol=1e-4, atol=1e-4)

    def test_accumulation(self, rng):
        array = SystolicArray(8, 8, dtype=DataType.FP32)
        a = rng.standard_normal((8, 8)).astype(np.float32)
        b = rng.standard_normal((8, 8)).astype(np.float32)
        c = rng.standard_normal((8, 8)).astype(np.float32)
        result = array.compute_subtile(a, b, accumulator=c)
        np.testing.assert_allclose(result, a @ b + c, rtol=1e-4, atol=1e-4)

    def test_oversized_subtile_rejected(self, rng):
        array = SystolicArray(8, 8)
        with pytest.raises(ValueError):
            array.compute_subtile(np.zeros((16, 8)), np.zeros((8, 8)))

    def test_fp16_quantization(self, rng):
        array = SystolicArray(16, 16, dtype=DataType.FP16)
        a = rng.standard_normal((16, 16)).astype(np.float32)
        b = rng.standard_normal((16, 16)).astype(np.float32)
        result = array.compute_subtile(a, b)
        expected = a.astype(np.float16).astype(np.float32) @ b.astype(np.float16).astype(np.float32)
        np.testing.assert_allclose(result, expected, rtol=1e-6)

    def test_subtile_pass_timing(self):
        """One 16x16 output subtile streams K=128 and pays the 30-cycle fill/drain skew."""
        array = SystolicArray(16, 16)
        assert array.tile_cycles(16, 16, 128) == 128 + 16 // 2 + 30
        assert array.tile_cycles(16, 16, 128, pipelined=False) == 128 + (128 // 16) * 30

    def test_tile_cycles_above_ideal(self):
        array = SystolicArray(16, 16)
        assert array.tile_cycles(128, 64, 128) >= array.ideal_tile_cycles(128, 64, 128)

    def test_utilization_improves_with_deeper_k(self):
        """Longer K amortizes the fill/drain skew (the scalability argument)."""
        array = SystolicArray(16, 16)

        def utilization(k):
            return array.ideal_tile_cycles(128, 64, k) / array.tile_cycles(128, 64, k)

        assert utilization(256) > utilization(32)

    def test_pipelined_faster_than_unpipelined(self):
        array = SystolicArray(16, 16)
        assert array.tile_cycles(64, 64, 128, pipelined=True) < array.tile_cycles(
            64, 64, 128, pipelined=False
        )

    def test_mac_counting(self, rng):
        array = SystolicArray(8, 8)
        counters = Counters()
        array.compute_subtile(np.zeros((8, 32)), np.zeros((32, 8)), counters=counters)
        assert counters["matrix_unit.pe.macs"] == 8 * 8 * 32


class TestAccumulatorMemory:
    def test_allocate_and_accumulate(self, rng):
        accumulator = AccumulatorMemory(32 * 1024)
        accumulator.allocate("tile", 64, 64)
        partial = rng.standard_normal((64, 64)).astype(np.float32)
        accumulator.accumulate("tile", partial)
        accumulator.accumulate("tile", partial)
        np.testing.assert_allclose(accumulator.read("tile"), 2 * partial, rtol=1e-6)

    def test_write_overwrites(self, rng):
        accumulator = AccumulatorMemory(32 * 1024)
        accumulator.allocate("tile", 8, 8)
        values = rng.standard_normal((8, 8)).astype(np.float32)
        accumulator.accumulate("tile", values)
        accumulator.write("tile", values)
        np.testing.assert_allclose(accumulator.read("tile"), values)

    def test_capacity_limit_128x64_tile_fits_32kib(self):
        """The paper's 128x64 FP32 accumulator tile exactly fills the 32 KiB SRAM."""
        accumulator = AccumulatorMemory(32 * 1024)
        accumulator.allocate("o", 128, 64)
        with pytest.raises(AccumulatorAllocationError):
            accumulator.allocate("extra", 1, 1)

    def test_free_releases_space(self):
        accumulator = AccumulatorMemory(32 * 1024)
        accumulator.allocate("a", 64, 64)
        accumulator.free("a")
        accumulator.allocate("b", 128, 64)

    def test_word_access_counting(self, rng):
        accumulator = AccumulatorMemory(32 * 1024)
        accumulator.allocate("tile", 16, 16)
        accumulator.accumulate("tile", np.ones((16, 16), dtype=np.float32))
        assert accumulator.counters["accum.read_words"] == 256
        assert accumulator.counters["accum.write_words"] == 256

    def test_access_cycles_wide_port(self):
        accumulator = AccumulatorMemory(32 * 1024, width_words=16)
        assert accumulator.access_cycles(256) == 16

    def test_double_allocation_rejected(self):
        accumulator = AccumulatorMemory(1024)
        accumulator.allocate("x", 4, 4)
        with pytest.raises(ValueError):
            accumulator.allocate("x", 4, 4)


class TestMmioInterface:
    def test_register_decode(self):
        mmio = MmioInterface(base_address=0x1F000)
        assert mmio.contains(0x1F000)
        assert not mmio.contains(0x1F000 + 4 * MmioInterface.WINDOW_WORDS)

    def test_store_latches_command_on_start(self):
        mmio = MmioInterface(base_address=0)
        mmio.store(4 * MmioRegister.DIM_M, 128)
        mmio.store(4 * MmioRegister.START, 1)
        assert mmio.status is CommandStatus.BUSY
        assert mmio.commands[0].operands[MmioRegister.DIM_M] == 128

    def test_start_while_busy_raises(self):
        mmio = MmioInterface(base_address=0)
        mmio.store(4 * MmioRegister.START, 1)
        with pytest.raises(RuntimeError):
            mmio.store(4 * MmioRegister.START, 1)

    def test_status_polling(self):
        mmio = MmioInterface(base_address=0)
        assert mmio.load(4 * MmioRegister.STATUS) == 0
        mmio.store(4 * MmioRegister.START, 1)
        assert mmio.load(4 * MmioRegister.STATUS) == 1
        mmio.complete(mmio.commands[0], cycle=100)
        assert mmio.load(4 * MmioRegister.STATUS) == 0

    def test_poll_until_done_counts_loads(self):
        mmio = MmioInterface(base_address=0)
        polls = mmio.poll_until_done(expected_busy_cycles=260, poll_interval=10)
        assert polls == 27
        assert mmio.counters["mmio.loads"] == 27

    def test_command_callback(self):
        mmio = MmioInterface(base_address=0)
        seen = []
        mmio.on_command(seen.append)
        mmio.store(4 * MmioRegister.DMA_START, 1)
        assert len(seen) == 1 and seen[0].kind == "dma"

    def test_outside_window_rejected(self):
        mmio = MmioInterface(base_address=0x1000)
        with pytest.raises(ValueError):
            mmio.store(0x0, 1)


class TestClusterSynchronizer:
    def test_barrier_releases_after_all_cores(self):
        synchronizer = ClusterSynchronizer(cores=4, release_latency=4)
        for core in range(3):
            assert synchronizer.arrive(0, core, cycle=10 + core) is None
        result = synchronizer.arrive(0, 3, cycle=20)
        assert result is not None
        assert result.release_cycle == 24
        assert result.stall_cycles[0] == 14

    def test_partial_participation(self):
        synchronizer = ClusterSynchronizer(cores=8)
        assert synchronizer.arrive(1, 0, 0, participating_cores=2) is None
        assert synchronizer.arrive(1, 1, 5, participating_cores=2) is not None

    def test_double_arrival_rejected(self):
        synchronizer = ClusterSynchronizer(cores=2)
        synchronizer.arrive(0, 0, 0)
        with pytest.raises(ValueError):
            synchronizer.arrive(0, 0, 1)

    def test_invalid_core_rejected(self):
        with pytest.raises(ValueError):
            ClusterSynchronizer(cores=2).arrive(0, 5, 0)

    def test_multiple_outstanding_barriers(self):
        synchronizer = ClusterSynchronizer(cores=2)
        synchronizer.arrive(0, 0, 0)
        synchronizer.arrive(1, 0, 0)
        assert synchronizer.outstanding == 2

    def test_counters(self):
        synchronizer = ClusterSynchronizer(cores=2)
        synchronizer.arrive(0, 0, 0)
        synchronizer.arrive(0, 1, 10)
        assert synchronizer.counters["sync.barriers_released"] == 1
        assert synchronizer.counters["sync.barrier_requests"] == 2


class TestGemminiMatrixUnit:
    def _unit(self, virgo_design):
        return GemminiMatrixUnit(virgo_design.matrix_unit, virgo_design.cluster.shared_memory)

    def test_compute_correctness_full_tile(self, virgo_design, rng):
        unit = self._unit(virgo_design)
        a = rng.standard_normal((128, 128)).astype(np.float32)
        b = rng.standard_normal((128, 64)).astype(np.float32)
        result = unit.compute(a, b)
        expected = a.astype(np.float16).astype(np.float32) @ b.astype(np.float16).astype(np.float32)
        np.testing.assert_allclose(result, expected, rtol=1e-2, atol=1e-2)

    def test_compute_with_accumulate(self, virgo_design, rng):
        unit = self._unit(virgo_design)
        a = rng.standard_normal((32, 32)).astype(np.float32)
        b = rng.standard_normal((32, 32)).astype(np.float32)
        c = rng.standard_normal((32, 32)).astype(np.float32)
        result = unit.compute(a, b, accumulate_onto=c)
        expected = (
            a.astype(np.float16).astype(np.float32) @ b.astype(np.float16).astype(np.float32) + c
        )
        np.testing.assert_allclose(result, expected, rtol=1e-2, atol=1e-2)

    def test_compute_into_named_accumulator(self, virgo_design, rng):
        unit = self._unit(virgo_design)
        a = rng.standard_normal((64, 64)).astype(np.float32)
        b = rng.standard_normal((64, 64)).astype(np.float32)
        unit.compute_into("o", a, b, accumulate=False)
        unit.compute_into("o", a, b, accumulate=True)
        expected = 2 * (
            a.astype(np.float16).astype(np.float32) @ b.astype(np.float16).astype(np.float32)
        )
        np.testing.assert_allclose(unit.accumulator.read("o"), expected, rtol=1e-2, atol=1e-2)

    def test_oversized_operation_rejected(self, virgo_design):
        unit = self._unit(virgo_design)
        with pytest.raises(ValueError):
            unit.compute(np.zeros((256, 128)), np.zeros((128, 64)))

    def test_operation_timing_bounds(self, virgo_design):
        unit = self._unit(virgo_design)
        timing = unit.operation_timing(128, 64, 128)
        ideal = 128 * 64 * 128 / unit.array.macs_per_cycle
        assert timing.total_cycles >= ideal
        assert timing.utilization(unit.array.macs_per_cycle) > 0.7

    def test_no_register_file_traffic(self, virgo_design, rng):
        """The disaggregated unit never touches the core register file."""
        unit = self._unit(virgo_design)
        counters = Counters()
        unit.compute(
            rng.standard_normal((32, 32)), rng.standard_normal((32, 32)), counters=counters
        )
        assert counters["core.issue.rf_read_words"] == 0
        assert counters["core.writeback.rf_write_words"] == 0
        assert counters["smem.matrix.read_words"] > 0

    def test_smem_footprint_reuses_b_panel(self, virgo_design):
        """B is streamed once per operation tile (the Table 4 reuse mechanism)."""
        unit = self._unit(virgo_design)
        nbytes = unit.smem_read_bytes(128, 64, 128)
        a_once = 128 * 128 * 2
        b_once = 128 * 64 * 2
        assert nbytes == a_once * (64 // 16) + b_once


class TestVirgoCluster:
    def test_cluster_assembly(self, virgo_design):
        cluster = VirgoCluster(virgo_design)
        assert len(cluster.cores) == 8
        assert len(cluster.matrix_units) == 1
        assert cluster.total_macs_per_cycle == 256

    def test_non_disaggregated_rejected(self, volta_design):
        with pytest.raises(ValueError):
            VirgoCluster(volta_design)

    def test_add_heterogeneous_unit(self, virgo_design):
        cluster = VirgoCluster(virgo_design)
        small_config = cluster.scaled_matrix_unit_config(0.5)
        cluster.add_matrix_unit("small", small_config)
        assert cluster.total_macs_per_cycle == 256 + 64
        assert len(cluster.mmio) == 2

    def test_duplicate_unit_name_rejected(self, virgo_design):
        cluster = VirgoCluster(virgo_design)
        with pytest.raises(ValueError):
            cluster.add_matrix_unit("mu0")

    def test_gather_counters_merges_components(self, virgo_design, rng):
        cluster = VirgoCluster(virgo_design)
        unit = cluster.matrix_unit()
        unit.compute_into("o", rng.standard_normal((16, 16)), rng.standard_normal((16, 16)), False)
        merged = cluster.gather_counters()
        assert merged["accum.write_words"] > 0


class TestVirgoContext:
    def test_end_to_end_small_gemm(self, virgo_design, rng):
        """Listing-1-style flow: DMA load, compute, fence, DMA store."""
        context = VirgoContext(design=virgo_design)
        a = rng.standard_normal((64, 64)).astype(np.float16)
        b = rng.standard_normal((64, 64)).astype(np.float16)
        c = np.zeros((64, 64), dtype=np.float32)
        context.global_store("A", a)
        context.global_store("B", b)
        context.global_store("C", c)
        context.shared_alloc("smem_A", (64, 64))
        context.shared_alloc("smem_B", (64, 64))

        context.virgo_dma_load("A", "smem_A")
        context.virgo_dma_load("B", "smem_B")
        context.virgo_fence()
        context.virgo_compute("smem_A", "smem_B", "acc", accumulate=False)
        context.virgo_fence()
        context.virgo_dma_store("acc", "C")

        expected = a.astype(np.float32) @ b.astype(np.float32)
        np.testing.assert_allclose(context.global_load("C"), expected, rtol=1e-2, atol=1e-1)
        assert context.elapsed_cycles() > 0

    def test_fence_waits_for_async_ops(self, virgo_design, rng):
        context = VirgoContext(design=virgo_design)
        context.global_store("A", rng.standard_normal((64, 64)))
        context.shared_alloc("smem_A", (64, 64))
        handle = context.virgo_dma_load("A", "smem_A")
        before = context.now
        waited = context.virgo_fence()
        assert context.now >= handle.end_cycle
        assert waited == handle.end_cycle - before

    def test_fence_with_no_pending_ops(self, virgo_design):
        context = VirgoContext(design=virgo_design)
        assert context.virgo_fence() == 0

    def test_async_ops_overlap(self, virgo_design, rng):
        """Two DMA loads plus a compute take less than their serial sum."""
        context = VirgoContext(design=virgo_design)
        context.global_store("A", rng.standard_normal((128, 128)))
        context.shared_alloc("smem_A", (128, 128))
        context.shared_alloc("smem_B", (128, 64))
        first = context.virgo_dma_load("A", "smem_A")
        context.virgo_compute("smem_A", "smem_B", "acc", accumulate=False)
        second = context.virgo_dma_load("A", "smem_A", rows=128, cols=128)
        context.virgo_fence()
        durations = first.duration + second.duration
        assert context.elapsed_cycles() < durations + 10000

    def test_shared_alloc_capacity_check(self, virgo_design):
        context = VirgoContext(design=virgo_design)
        with pytest.raises(ValueError):
            context.shared_alloc("huge", (1024, 1024), dtype=np.float32)

    def test_simt_elementwise(self, virgo_design, rng):
        context = VirgoContext(design=virgo_design)
        context.shared_alloc("tile", (16, 16), dtype=np.float32)
        context.shared_view("tile")[:] = 2.0
        context.simt_elementwise("tile", lambda x: x * 3.0)
        np.testing.assert_allclose(context.shared_view("tile"), 6.0)
        assert context.counters["core.fpu.ops"] > 0

    def test_threadblock_barrier_advances_time(self, virgo_design):
        context = VirgoContext(design=virgo_design)
        before = context.now
        context.threadblock_barrier()
        assert context.now >= before


class TestListingOneCrossCheck:
    def test_k_blocked_gemm_matches_numpy_and_the_kernel_model(self, virgo_design):
        """The ``virgo_*`` context and ``VirgoGemmKernel`` time one GEMM alike.

        The 128x64x512 K-blocked GEMM of ``examples/virgo_programming_api.py``
        takes 21,528 cycles through the context and 21,512 through the kernel
        model.  The final accumulator store is fenced, so the context's clock
        runs to the end of the drain, as the kernel's epilogue does.  Two
        differences remain:

        * per-step synchronization: the context's barrier release (4 cycles)
          plus command issue (2 each) undercut the kernel's 30-cycle
          ``SYNC_OVERHEAD_CYCLES``, 104 cycles over the 4 K steps;
        * the prologue load is one DMA descriptor per operand, each paying
          the programming latency, 120 cycles more than the kernel's single
          prologue transfer.

        The net gap is 16 cycles, 0.07%; the bound is 1%.
        """
        rng = np.random.default_rng(11)
        m, n, k, block_k = 128, 64, 512, 128
        a = rng.standard_normal((m, k)).astype(np.float16)
        b = rng.standard_normal((k, n)).astype(np.float16)
        context = VirgoContext(design=virgo_design)
        context.global_store("A", a)
        context.global_store("B", b)
        context.global_store("C", np.zeros((m, n), dtype=np.float32))
        for half in (0, 1):
            context.shared_alloc(f"smem_A{half}", (m, block_k))
            context.shared_alloc(f"smem_B{half}", (block_k, n))
        context.virgo_dma_load("A", "smem_A0", col=0, rows=m, cols=block_k)
        context.virgo_dma_load("B", "smem_B0", row=0, rows=block_k, cols=n)
        context.virgo_fence()
        steps = k // block_k
        for step in range(steps):
            consume, produce = step % 2, (step + 1) % 2
            context.virgo_compute(
                f"smem_A{consume}", f"smem_B{consume}", "acc", accumulate=step > 0
            )
            if step + 1 < steps:
                offset = (step + 1) * block_k
                context.virgo_dma_load("A", f"smem_A{produce}", col=offset, rows=m, cols=block_k)
                context.virgo_dma_load("B", f"smem_B{produce}", row=offset, rows=block_k, cols=n)
            context.virgo_fence()
            context.threadblock_barrier()
        context.virgo_dma_store("acc", "C")
        context.virgo_fence()

        expected = a.astype(np.float32) @ b.astype(np.float32)
        np.testing.assert_allclose(context.global_load("C"), expected, rtol=1e-4, atol=1e-3)

        kernel_cycles = run_gemm(DesignKind.VIRGO, GemmWorkload(m=m, n=n, k=k)).total_cycles
        assert abs(context.elapsed_cycles() - kernel_cycles) <= 0.01 * kernel_cycles
