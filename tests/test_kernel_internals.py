"""Tests for the GEMM kernel internals: instruction streams, iteration structure,
per-design kernel classes and their scheduling behaviour."""

import pytest

from repro.config.presets import DesignKind, make_design
from repro.isa.instructions import OpClass
from repro.kernels.gemm import (
    GemmWorkload,
    OperandDecoupledGemmKernel,
    TightlyCoupledGemmKernel,
    VirgoGemmKernel,
    kernel_for_design,
)
from repro.kernels.gemm.instruction_streams import (
    core_coupled_iteration_streams,
    virgo_iteration_streams,
)
from repro.kernels.gemm.tiling import tiling_for_design
from repro.tensorcore.hopper import HopperTensorCore
from repro.tensorcore.volta import VoltaTensorCore


@pytest.fixture
def workload():
    return GemmWorkload.square(512)


def _volta_streams(design, tiling):
    sequence = VoltaTensorCore(design.matrix_unit).hmma_sequence()
    return core_coupled_iteration_streams(design, tiling, sequence.as_instructions())


def _hopper_streams(design, tiling):
    unit = HopperTensorCore(design.matrix_unit, design.cluster.shared_memory)
    return core_coupled_iteration_streams(design, tiling, unit.instruction_sequence())


class TestVoltaStreams:
    def _streams(self, design, workload):
        return _volta_streams(design, tiling_for_design(design, workload))

    def test_copy_loop_only_without_dma(self, volta_design, ampere_design, workload):
        volta = self._streams(volta_design, workload)
        ampere = self._streams(ampere_design, workload)
        volta_classes = volta.compute_warp.count_by_class()
        ampere_classes = ampere.compute_warp.count_by_class()
        assert volta_classes.get(OpClass.LOAD_GLOBAL, 0) > 0
        assert ampere_classes.get(OpClass.LOAD_GLOBAL, 0) == 0

    def test_ampere_leader_programs_dma(self, ampere_design, workload):
        streams = self._streams(ampere_design, workload)
        leader_classes = streams.leader_extra.count_by_class()
        assert leader_classes.get(OpClass.DMA_PROGRAM, 0) > 0

    def test_hmma_instructions_present(self, volta_design, workload):
        streams = self._streams(volta_design, workload)
        classes = streams.compute_warp.count_by_class()
        # Two tile ops per warp, 16 steps each.
        assert classes[OpClass.HMMA_STEP] == 2 * 16
        assert classes[OpClass.HMMA_SET] == 2 * 4

    def test_barrier_terminates_iteration(self, volta_design, workload):
        streams = self._streams(volta_design, workload)
        assert streams.compute_warp.instructions[-1].op_class is OpClass.VX_BAR

    def test_tile_ops_cover_cluster_share(self, volta_design, workload):
        tiling = tiling_for_design(volta_design, workload)
        streams = self._streams(volta_design, workload)
        cluster_tile_ops = tiling.macs_per_iteration // volta_design.matrix_unit.tile_macs
        assert streams.tile_ops_per_core * volta_design.cluster.cores == cluster_tile_ops


class TestHopperStreams:
    def test_two_instructions_per_tile_op(self, hopper_design, workload):
        tiling = tiling_for_design(hopper_design, workload)
        streams = _hopper_streams(hopper_design, tiling)
        classes = streams.compute_warp.count_by_class()
        assert classes[OpClass.WGMMA_INIT] == classes[OpClass.WGMMA_WAIT]
        assert classes.get(OpClass.LOAD_SHARED, 0) == 0  # operands come from SMEM directly

    def test_far_fewer_instructions_than_volta(self, volta_design, hopper_design, workload):
        volta_tiling = tiling_for_design(volta_design, workload)
        hopper_tiling = tiling_for_design(hopper_design, workload)
        volta_streams = _volta_streams(volta_design, volta_tiling)
        hopper_streams = _hopper_streams(hopper_design, hopper_tiling)
        # Normalize by the MACs each iteration covers.
        volta_per_mac = (
            volta_streams.instructions_per_core()
            * volta_design.cluster.cores
            / volta_tiling.macs_per_iteration
        )
        hopper_per_mac = (
            hopper_streams.instructions_per_core()
            * hopper_design.cluster.cores
            / hopper_tiling.macs_per_iteration
        )
        assert hopper_per_mac < volta_per_mac / 5


class TestVirgoStreams:
    def test_leader_drives_mmio_and_dma(self, virgo_design, workload):
        tiling = tiling_for_design(virgo_design, workload)
        streams = virgo_iteration_streams(virgo_design, tiling)
        leader = streams.leader_extra.count_by_class()
        assert leader[OpClass.MMIO_STORE] >= 6
        assert leader[OpClass.DMA_PROGRAM] >= 4
        assert leader[OpClass.MMIO_POLL] >= 1

    def test_workers_only_synchronize(self, virgo_design, workload):
        tiling = tiling_for_design(virgo_design, workload)
        streams = virgo_iteration_streams(virgo_design, tiling)
        worker = streams.compute_warp.count_by_class()
        assert worker[OpClass.VX_BAR] == 1
        assert OpClass.HMMA_STEP not in worker
        assert OpClass.LOAD_SHARED not in worker


class TestKernelDispatch:
    def test_kernel_for_design(self):
        assert isinstance(
            kernel_for_design(make_design(DesignKind.VOLTA)), TightlyCoupledGemmKernel
        )
        assert isinstance(
            kernel_for_design(make_design(DesignKind.AMPERE)), TightlyCoupledGemmKernel
        )
        assert isinstance(
            kernel_for_design(make_design(DesignKind.HOPPER)), OperandDecoupledGemmKernel
        )
        assert isinstance(kernel_for_design(make_design(DesignKind.VIRGO)), VirgoGemmKernel)

    def test_wrong_design_rejected(self):
        with pytest.raises(ValueError):
            VirgoGemmKernel(make_design(DesignKind.VOLTA))
        with pytest.raises(ValueError):
            OperandDecoupledGemmKernel(make_design(DesignKind.VIRGO))
        with pytest.raises(ValueError):
            TightlyCoupledGemmKernel(make_design(DesignKind.HOPPER))


class TestSchedulingBehaviour:
    def test_ampere_overlaps_dma_with_compute(self):
        """With identical compute streams, the DMA-equipped design finishes sooner."""
        volta = TightlyCoupledGemmKernel(make_design(DesignKind.VOLTA)).simulate(
            GemmWorkload.square(256)
        )
        ampere = TightlyCoupledGemmKernel(make_design(DesignKind.AMPERE)).simulate(
            GemmWorkload.square(256)
        )
        assert ampere.total_cycles < volta.total_cycles

    def test_phase_cycles_reported(self):
        result = VirgoGemmKernel(make_design(DesignKind.VIRGO)).simulate(GemmWorkload.square(256))
        assert set(result.phase_cycles) >= {"dma", "compute", "epilogue"}
        assert result.phase_cycles["compute"] > result.phase_cycles["epilogue"]

    def test_virgo_dma_fully_hidden(self):
        """In steady state the DMA stream is shorter than the compute stream."""
        result = VirgoGemmKernel(make_design(DesignKind.VIRGO)).simulate(GemmWorkload.square(1024))
        assert result.phase_cycles["dma"] < result.phase_cycles["compute"]

    def test_iteration_cycles_exposed(self):
        result = OperandDecoupledGemmKernel(make_design(DesignKind.HOPPER)).simulate(
            GemmWorkload.square(256)
        )
        assert result.iteration_cycles > 0
        assert result.total_cycles >= result.iteration_cycles
