"""Tests for the memory system: DRAM, shared memory, its interconnect, DMA."""

import pytest

from repro.config.soc import DmaConfig, DramConfig, SharedMemoryConfig
from repro.kernels.gemm.volta_gemm import TightlyCoupledGemmKernel
from repro.memory.dma import DmaDirection, DmaEngine
from repro.memory.dram import DramChannel
from repro.memory.interconnect import RequestBundle, SharedMemoryInterconnect
from repro.memory.shared_memory import BankConflictError, BankedSharedMemory
from repro.sim.stats import Counters


class TestDram:
    def test_transfer_cycles_bandwidth_bound(self):
        dram = DramChannel(DramConfig(bandwidth_bytes_per_cycle=32, latency_cycles=100))
        assert dram.transfer_cycles(3200) == 100 + 100
        assert dram.transfer_cycles(3200, include_latency=False) == 100

    def test_zero_bytes(self):
        dram = DramChannel(DramConfig())
        assert dram.transfer_cycles(0) == 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            DramChannel(DramConfig()).transfer_cycles(-1)


class TestBankedSharedMemory:
    def _smem(self, subbanks=8):
        return BankedSharedMemory(SharedMemoryConfig(subbanks=subbanks))

    def test_bank_mapping_matches_figure3(self):
        """Bank 1 starts at 0x08000 for the 128 KiB / 4-bank configuration."""
        smem = self._smem()
        assert smem.bank_and_subbank(0x00000)[0] == 0
        assert smem.bank_and_subbank(0x08000)[0] == 1
        assert smem.bank_and_subbank(0x18000)[0] == 3

    def test_subbank_interleaving(self):
        smem = self._smem()
        assert smem.bank_and_subbank(0x0)[1] == 0
        assert smem.bank_and_subbank(0x4)[1] == 1
        assert smem.bank_and_subbank(0x20)[1] == 0  # wraps after 8 subbanks

    def test_out_of_range_rejected(self):
        with pytest.raises(BankConflictError):
            self._smem().bank_and_subbank(0x20000)

    def test_streaming_cycles(self):
        smem = self._smem()
        assert smem.streaming_cycles(128, ports=4) == 1
        assert smem.streaming_cycles(0) == 0

    def test_counters_track_requesters(self):
        smem = self._smem()
        smem.record_bulk(8, is_write=False, requester="core")
        smem.record_bulk(32, is_write=False, requester="matrix")
        assert smem.counters["smem.core.read_words"] == 2
        assert smem.counters["smem.matrix.read_words"] == 8
        assert smem.counters["smem.total_words"] == 10

    def test_streaming_rejects_negative_size(self):
        with pytest.raises(ValueError, match="non-negative"):
            self._smem().streaming_cycles(-1)

    def test_streaming_ports_capped_at_bank_count(self):
        smem = self._smem()
        banks = smem.config.banks
        assert smem.streaming_cycles(4096, ports=64) == smem.streaming_cycles(4096, ports=banks)
        assert smem.streaming_cycles(4096, ports=0) == smem.streaming_cycles(4096, ports=1)

    def test_reset_clears_counters(self):
        smem = self._smem()
        smem.record_bulk(64, is_write=True, requester="dma")
        smem.reset()
        assert smem.counters["smem.dma.write_words"] == 0
        assert len(smem.counters) == 0


class TestInterconnect:
    def test_matrix_request_priority(self):
        smem = BankedSharedMemory(SharedMemoryConfig())
        interconnect = SharedMemoryInterconnect(smem)
        bundle = RequestBundle(
            simt_read_addresses=[0x0, 0x4],
            matrix_reads=[(0x0, 32)],
        )
        result = interconnect.arbitrate(bundle)
        assert result.matrix_requests_served == 1
        assert result.simt_retries == 2  # same bank as the matrix read

    def test_disjoint_banks_no_retries(self):
        smem = BankedSharedMemory(SharedMemoryConfig())
        interconnect = SharedMemoryInterconnect(smem)
        bundle = RequestBundle(
            simt_read_addresses=[0x8000, 0x8004],
            matrix_reads=[(0x0, 32)],
        )
        result = interconnect.arbitrate(bundle)
        assert result.simt_retries == 0

    def test_separate_read_write_paths(self):
        smem = BankedSharedMemory(SharedMemoryConfig())
        interconnect = SharedMemoryInterconnect(smem)
        bundle = RequestBundle(
            simt_write_addresses=[0x0],
            matrix_reads=[(0x0, 32)],
        )
        result = interconnect.arbitrate(bundle)
        assert result.simt_retries == 0  # writes use a separate path

    def test_consecutive_lane_words_are_conflict_free(self):
        """Eight lanes on consecutive words hit eight subbanks in one access."""
        smem = BankedSharedMemory(SharedMemoryConfig())
        result = SharedMemoryInterconnect(smem).arbitrate(
            RequestBundle(simt_read_addresses=[lane * 4 for lane in range(8)])
        )
        assert result.simt_words_served == 8 and result.simt_retries == 0
        assert result.cycles == smem.config.access_latency
        assert smem.counters["smem.core.read_words"] == 8

    def test_same_subbank_lanes_serialize(self):
        smem = BankedSharedMemory(SharedMemoryConfig())
        stride = smem.config.subbanks * smem.config.word_bytes
        result = SharedMemoryInterconnect(smem).arbitrate(
            RequestBundle(simt_read_addresses=[lane * stride for lane in range(4)])
        )
        assert result.simt_retries == 0
        assert result.cycles == smem.config.access_latency + 3

    def test_wide_read_of_one_bank_width_takes_one_access(self):
        smem = BankedSharedMemory(SharedMemoryConfig())
        result = SharedMemoryInterconnect(smem).arbitrate(
            RequestBundle(matrix_reads=[(0x0, smem.config.bank_width_bytes)])
        )
        assert result.cycles == smem.config.access_latency
        assert smem.counters["smem.matrix.read_words"] == smem.config.subbanks

    def test_wide_read_beyond_bank_width_takes_another_cycle(self):
        smem = BankedSharedMemory(SharedMemoryConfig())
        result = SharedMemoryInterconnect(smem).arbitrate(
            RequestBundle(matrix_writes=[(0x0, 2 * smem.config.bank_width_bytes)])
        )
        assert result.cycles == smem.config.access_latency + 1
        assert smem.counters["smem.matrix.write_words"] == 2 * smem.config.subbanks

    def test_retried_lanes_add_rounds_and_accumulate(self):
        smem = BankedSharedMemory(SharedMemoryConfig())
        interconnect = SharedMemoryInterconnect(smem)
        bundle = RequestBundle(
            simt_read_addresses=[lane * 4 for lane in range(9)],
            matrix_reads=[(0x0, 32)],
        )
        result = interconnect.arbitrate(bundle)
        assert result.simt_retries == 9 and result.simt_words_served == 0
        # Nine retried lanes need two extra rounds over eight subbanks.
        assert result.cycles == smem.config.access_latency + 2
        interconnect.arbitrate(bundle)
        assert interconnect.total_rounds == 2
        assert interconnect.total_retries == 18

    def test_empty_bundle(self):
        smem = BankedSharedMemory(SharedMemoryConfig())
        result = SharedMemoryInterconnect(smem).arbitrate(RequestBundle())
        assert result.cycles == 0

    def test_concurrent_stream_stretching(self):
        smem = BankedSharedMemory(SharedMemoryConfig())
        interconnect = SharedMemoryInterconnect(smem)
        no_stretch = interconnect.concurrent_stream_cycles(1000, 1000, duration_hint=1000)
        assert no_stretch == 1000
        stretched = interconnect.concurrent_stream_cycles(200_000, 200_000, duration_hint=1000)
        assert stretched > 1000


class TestDmaEngine:
    def _dma(self):
        dram = DramChannel(DramConfig())
        smem = BankedSharedMemory(SharedMemoryConfig())
        return DmaEngine(DmaConfig(), dram, smem)

    def test_transfer_cycles_include_programming(self):
        dma = self._dma()
        assert dma.transfer_cycles(0) == dma.config.program_latency
        assert dma.transfer_cycles(3200) > 100

    def test_execute_counts_traffic(self):
        dma = self._dma()
        counters = Counters()
        dma.execute(DmaDirection.GLOBAL_TO_SHARED, 4096, counters)
        assert counters["dma.bytes"] == 4096
        assert counters["dram.bytes"] == 4096
        assert dma.shared_memory.counters["smem.dma.write_words"] == 1024

    def test_execute_returns_the_timed_descriptor(self):
        dma = self._dma()
        transfer = dma.execute(DmaDirection.ACCUM_TO_GLOBAL, 4096, Counters())
        assert transfer.direction is DmaDirection.ACCUM_TO_GLOBAL
        assert transfer.nbytes == 4096
        assert transfer.cycles == dma.transfer_cycles(4096)

    def test_accumulator_store_direction(self):
        dma = self._dma()
        counters = Counters()
        dma.execute(DmaDirection.ACCUM_TO_GLOBAL, 1024, counters)
        assert counters["accum.read_words"] == 256

    def test_only_a_design_with_dma_builds_an_engine(self, volta_design, ampere_design):
        assert TightlyCoupledGemmKernel(volta_design).dma is None
        assert isinstance(TightlyCoupledGemmKernel(ampere_design).dma, DmaEngine)

    def test_effective_bandwidth(self):
        dma = self._dma()
        transfer = dma.execute(DmaDirection.GLOBAL_TO_SHARED, 32 * 1024, Counters())
        assert 0 < transfer.nbytes / transfer.cycles <= dma.config.bytes_per_cycle
