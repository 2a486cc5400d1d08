"""Tests for the configuration dataclasses and design presets (Table 2)."""

import pytest

from repro.config.presets import DesignKind, all_designs, gemm_design_kinds, make_design
from repro.config.soc import (
    DataType,
    DesignConfig,
    IntegrationStyle,
    MatrixUnitConfig,
    RegisterFileConfig,
    SharedMemoryConfig,
    SoCConfig,
)
from repro.energy.power import PowerReport
from repro.tensorcore.dot_product_unit import DotProductUnit


class TestDataType:
    def test_fp16_is_two_bytes(self):
        assert DataType.FP16.bytes == 2

    def test_fp32_is_four_bytes(self):
        assert DataType.FP32.bytes == 4


class TestRegisterFileConfig:
    def test_total_bytes(self):
        config = RegisterFileConfig()
        assert config.total_bytes == 16 * 1024

    def test_bytes_per_warp_matches_paper(self):
        """8 KB of FP registers across 8 warps gives the paper's 1 KiB slice."""
        config = RegisterFileConfig()
        assert config.bytes_per_warp(8) == 1024

    def test_bytes_per_warp_rejects_zero_warps(self):
        with pytest.raises(ValueError):
            RegisterFileConfig().bytes_per_warp(0)


class TestSharedMemoryConfig:
    def test_bank_width(self):
        config = SharedMemoryConfig(subbanks=8)
        assert config.bank_width_bytes == 32

    def test_peak_bandwidth(self):
        config = SharedMemoryConfig(banks=4, subbanks=8)
        assert config.peak_bytes_per_cycle == 128

    def test_scaled_banking_doubles_subbanks(self, all_design_configs):
        """Volta and Ampere get the paper's 2x subbanking (Section 6.1.3)."""
        smem = {kind: d.cluster.shared_memory for kind, d in all_design_configs.items()}
        base = smem[DesignKind.VIRGO]
        assert smem[DesignKind.HOPPER] == base
        for kind in (DesignKind.VOLTA, DesignKind.AMPERE):
            assert smem[kind].subbanks == 2 * base.subbanks
            assert smem[kind].peak_bytes_per_cycle == 2 * base.peak_bytes_per_cycle


class TestMatrixUnitConfig:
    def test_volta_tile_macs(self):
        unit = make_design(DesignKind.VOLTA).matrix_unit
        assert unit.tile_macs == 8 * 8 * 16

    def test_hmma_steps_per_tile_volta(self):
        """1024 MACs at 32 MAC/cycle and 2 cycles/step -> 16 step instructions."""
        unit = make_design(DesignKind.VOLTA).matrix_unit
        assert unit.hmma_steps_per_tile == 16

    def test_operand_bytes_per_tile(self):
        unit = make_design(DesignKind.VOLTA).matrix_unit
        assert unit.operand_bytes_per_tile == 2 * (8 * 16 + 16 * 8)

    def test_accumulator_bytes_are_fp32(self):
        unit = make_design(DesignKind.VOLTA).matrix_unit
        assert unit.accumulator_bytes_per_tile == 4 * 8 * 8

    def test_tile_cycles_ideal(self):
        """Hopper's dot-product units finish a tile at full MAC throughput."""
        unit = make_design(DesignKind.HOPPER).matrix_unit
        dpu = DotProductUnit(macs_per_cycle=unit.macs_per_cycle, dtype=unit.dtype)
        cycles = dpu.cycles_for_tile(unit.tile_m, unit.tile_n, unit.tile_k)
        assert cycles == unit.tile_macs / unit.macs_per_cycle == 128


class TestPresets:
    def test_all_four_designs_exist(self):
        designs = all_designs()
        assert len(designs) == 4

    def test_design_names(self, all_design_configs):
        names = {design.name for design in all_design_configs.values()}
        assert names == {"Volta-style", "Ampere-style", "Hopper-style", "Virgo"}

    def test_equal_macs_per_cluster(self, all_design_configs):
        """All designs have 256 FP16 MACs per cluster (fair comparison)."""
        macs = {d.cluster.total_macs_per_cycle for d in all_design_configs.values()}
        assert macs == {256}

    def test_volta_has_no_dma(self, volta_design):
        assert not volta_design.has_dma

    def test_ampere_has_dma(self, ampere_design):
        assert ampere_design.has_dma

    def test_hopper_reads_operands_from_shared_memory(self, hopper_design):
        assert hopper_design.style is IntegrationStyle.OPERAND_DECOUPLED

    def test_virgo_is_fully_disaggregated(self, virgo_design):
        assert virgo_design.style is IntegrationStyle.DISAGGREGATED

    def test_virgo_single_unit_per_cluster(self, virgo_design):
        assert virgo_design.cluster.matrix_units == 1

    def test_core_coupled_one_unit_per_core(self, volta_design, hopper_design):
        assert volta_design.cluster.matrix_units == volta_design.cluster.cores
        assert hopper_design.cluster.matrix_units == hopper_design.cluster.cores

    def test_tile_sizes_match_paper(self, all_design_configs):
        tiles = {
            kind: (config.matrix_unit.tile_m, config.matrix_unit.tile_n, config.matrix_unit.tile_k)
            for kind, config in all_design_configs.items()
        }
        assert tiles[DesignKind.VOLTA] == (8, 8, 16)
        assert tiles[DesignKind.AMPERE] == (8, 8, 16)
        assert tiles[DesignKind.HOPPER] == (16, 16, 32)
        assert tiles[DesignKind.VIRGO] == (128, 64, 128)

    def test_hopper_has_four_cores(self, hopper_design):
        assert hopper_design.cluster.cores == 4

    def test_volta_has_eight_cores(self, volta_design):
        assert volta_design.cluster.cores == 8

    def test_virgo_accumulator_is_32kib(self, virgo_design):
        assert virgo_design.matrix_unit.accumulator_bytes == 32 * 1024

    def test_fp32_presets_halve_macs(self):
        fp32 = make_design(DesignKind.VOLTA, DataType.FP32)
        assert fp32.matrix_unit.macs_per_cycle == 16

    def test_virgo_fp32_systolic_array(self):
        fp32 = make_design(DesignKind.VIRGO, DataType.FP32)
        assert (fp32.matrix_unit.systolic_rows, fp32.matrix_unit.systolic_cols) == (8, 8)

    def test_gemm_design_kinds_order(self):
        assert gemm_design_kinds() == [
            DesignKind.VOLTA,
            DesignKind.AMPERE,
            DesignKind.HOPPER,
            DesignKind.VIRGO,
        ]

    def test_display_names(self):
        assert DesignKind.VIRGO.display_name == "Virgo"
        assert DesignKind.HOPPER.display_name == "Hopper-style"


class TestValidation:
    def test_validate_accepts_presets(self, all_design_configs):
        for design in all_design_configs.values():
            design.validate()

    def test_core_coupled_unit_count_mismatch_rejected(self, hopper_design):
        from dataclasses import replace

        bad_cluster = replace(hopper_design.soc.cluster, matrix_units=2)
        bad = replace(hopper_design, soc=replace(hopper_design.soc, cluster=bad_cluster))
        with pytest.raises(ValueError):
            bad.validate()


class TestSoCConfig:
    def test_clock_period(self):
        """A cycle of the 400 MHz SoC clock lasts 2.5 ns in the power report."""
        soc = SoCConfig(clock_mhz=400.0)
        report = PowerReport("test", cycles=4000, clock_mhz=soc.clock_mhz,
                             energy_by_component_fj={})
        assert report.runtime_seconds == pytest.approx(4000 * 2.5e-9)

    def test_peak_matrix_tflops(self, virgo_design):
        # 256 MACs * 2 FLOP * 400 MHz = 0.2048 TFLOP/s
        soc = virgo_design.soc
        assert 2 * soc.total_macs_per_cycle * soc.clock_mhz * 1e6 / 1e12 == pytest.approx(0.2048)
