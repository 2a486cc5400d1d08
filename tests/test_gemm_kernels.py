"""Tests for the GEMM kernel models: tiling, reuse (Table 4), functional numerics,
timing results (Table 3) and instruction-count comparisons (Section 6.1.1)."""

import numpy as np
import pytest

from repro.config.soc import DataType
from repro.config.presets import DesignKind, make_design
from repro.kernels.gemm import (
    GemmWorkload,
    gemm_functional,
    reference_gemm,
    simulate_gemm,
    smem_footprint_table,
    smem_read_footprint_bytes,
    tiling_for_design,
)
from repro.kernels.gemm.base import ideal_mac_cycles
from repro.kernels.gemm.reuse import reuse_extents


class TestWorkload:
    def test_square_constructor(self):
        workload = GemmWorkload.square(256)
        assert (workload.m, workload.n, workload.k) == (256, 256, 256)
        assert workload.macs == 256**3
        assert workload.flops == 2 * 256**3

    def test_invalid_dimensions_rejected(self):
        with pytest.raises(ValueError):
            GemmWorkload(m=0, n=1, k=1)

    def test_byte_accounting(self, all_design_configs):
        """A one-block GEMM reads its FP16 operands and writes its FP32 result once."""
        workload = GemmWorkload(m=128, n=64, k=32)
        for design in all_design_configs.values():
            counters = simulate_gemm(design, workload).counters
            assert counters["dram.bytes"] == 2 * (128 * 32 + 32 * 64) + 4 * 128 * 64


class TestTiling:
    def test_virgo_tiling_matches_operation_tile(self, virgo_design):
        tiling = tiling_for_design(virgo_design, GemmWorkload.square(1024))
        assert (tiling.block_m, tiling.block_n, tiling.block_k) == (128, 64, 128)
        assert tiling.output_tiles == 8 * 16
        assert tiling.k_iterations == 8

    def test_baseline_tiling_same_output_tile(self, hopper_design):
        tiling = tiling_for_design(hopper_design, GemmWorkload.square(1024))
        assert (tiling.block_m, tiling.block_n) == (128, 64)
        assert tiling.block_k == 32

    def test_tiling_clamped_to_small_problems(self, virgo_design):
        tiling = tiling_for_design(virgo_design, GemmWorkload.square(64))
        assert tiling.block_m == 64 and tiling.block_n == 64

    def test_double_buffered_footprint_fits_shared_memory(self, all_design_configs):
        workload = GemmWorkload.square(1024)
        for design in all_design_configs.values():
            tiling = tiling_for_design(design, workload)
            assert tiling.fits_in_shared_memory(design, double_buffered=True)

    def test_iteration_macs_cover_workload(self, virgo_design):
        workload = GemmWorkload.square(512)
        tiling = tiling_for_design(virgo_design, workload)
        assert tiling.total_iterations * tiling.macs_per_iteration == workload.macs


class TestTable4Reuse:
    def test_footprints_match_paper(self):
        """Table 4: 6 MiB / 4 MiB / 2.25 MiB for the 256^3 GEMM."""
        workload = GemmWorkload.square(256)
        volta = smem_read_footprint_bytes(make_design(DesignKind.VOLTA), workload)
        hopper = smem_read_footprint_bytes(make_design(DesignKind.HOPPER), workload)
        virgo = smem_read_footprint_bytes(make_design(DesignKind.VIRGO), workload)
        assert volta / 2**20 == pytest.approx(6.0, rel=0.05)
        assert hopper / 2**20 == pytest.approx(4.0, rel=0.05)
        assert virgo / 2**20 == pytest.approx(2.25, rel=0.05)

    def test_normalization_matches_paper(self):
        """Normalized footprints 2.67 : 1.78 : 1.00."""
        designs = {
            "Tightly-coupled": make_design(DesignKind.VOLTA),
            "Operand-decoupled": make_design(DesignKind.HOPPER),
            "Disaggregated": make_design(DesignKind.VIRGO),
        }
        table = smem_footprint_table(designs, GemmWorkload.square(256))
        assert table["Tightly-coupled"]["normalized"] == pytest.approx(2.67, rel=0.02)
        assert table["Operand-decoupled"]["normalized"] == pytest.approx(1.78, rel=0.02)
        assert table["Disaggregated"]["normalized"] == pytest.approx(1.0)

    def test_fragment_sizes(self):
        assert reuse_extents(make_design(DesignKind.VOLTA)).fragment_rows == 8
        assert reuse_extents(make_design(DesignKind.HOPPER)).fragment_rows == 16
        assert reuse_extents(make_design(DesignKind.VIRGO)).fragment_rows == 16

    def test_ampere_same_as_volta(self):
        workload = GemmWorkload.square(256)
        assert smem_read_footprint_bytes(
            make_design(DesignKind.AMPERE), workload
        ) == smem_read_footprint_bytes(make_design(DesignKind.VOLTA), workload)


class TestFunctionalGemm:
    @pytest.mark.parametrize("kind", list(DesignKind))
    def test_matches_reference(self, kind, rng):
        design = make_design(kind)
        a = rng.standard_normal((64, 64)).astype(np.float32)
        b = rng.standard_normal((64, 64)).astype(np.float32)
        result = gemm_functional(design, a, b)
        np.testing.assert_allclose(result, reference_gemm(a, b), rtol=1e-2, atol=1e-2)

    def test_rectangular_gemm_on_virgo(self, virgo_design, rng):
        a = rng.standard_normal((256, 128)).astype(np.float32)
        b = rng.standard_normal((128, 192)).astype(np.float32)
        result = gemm_functional(virgo_design, a, b)
        np.testing.assert_allclose(result, reference_gemm(a, b), rtol=1e-2, atol=1e-1)

    def test_misaligned_size_rejected_for_tensor_cores(self, volta_design, rng):
        a = rng.standard_normal((60, 60))
        b = rng.standard_normal((60, 60))
        with pytest.raises(ValueError):
            gemm_functional(volta_design, a, b)


class TestGemmTiming:
    @pytest.fixture(scope="class")
    def results(self):
        sizes = (256, 512, 1024)
        return {
            (kind, size): simulate_gemm(kind, size)
            for kind in DesignKind
            for size in sizes
        }

    def test_utilization_ordering_matches_paper(self, results):
        """Table 3 ordering: Virgo >= Hopper > Ampere > Volta at every size."""
        for size in (256, 512, 1024):
            volta = results[(DesignKind.VOLTA, size)].mac_utilization
            ampere = results[(DesignKind.AMPERE, size)].mac_utilization
            hopper = results[(DesignKind.HOPPER, size)].mac_utilization
            virgo = results[(DesignKind.VIRGO, size)].mac_utilization
            assert virgo >= hopper > ampere > volta, f"size {size}"

    def test_utilization_increases_with_size(self, results):
        """Larger GEMMs amortize overheads for every design."""
        for kind in DesignKind:
            assert (
                results[(kind, 1024)].mac_utilization
                >= results[(kind, 256)].mac_utilization - 0.02
            )

    def test_utilization_within_paper_band(self, results):
        """Measured utilization within +/- 12 percentage points of the paper."""
        paper = {
            (DesignKind.VOLTA, 256): 25.6,
            (DesignKind.VOLTA, 512): 30.3,
            (DesignKind.VOLTA, 1024): 30.3,
            (DesignKind.AMPERE, 256): 37.5,
            (DesignKind.AMPERE, 512): 45.6,
            (DesignKind.AMPERE, 1024): 52.3,
            (DesignKind.HOPPER, 256): 60.5,
            (DesignKind.HOPPER, 512): 72.8,
            (DesignKind.HOPPER, 1024): 77.0,
            (DesignKind.VIRGO, 256): 66.1,
            (DesignKind.VIRGO, 512): 77.9,
            (DesignKind.VIRGO, 1024): 86.5,
        }
        for key, expected in paper.items():
            measured = results[key].mac_utilization_percent
            assert abs(measured - expected) <= 12.0, (key, measured, expected)

    def test_total_cycles_exceed_ideal(self, results):
        for result in results.values():
            assert result.total_cycles >= result.ideal_mac_cycles

    def test_virgo_instruction_collapse(self, results):
        """Section 6.1.1: Virgo retires ~0.5% of Volta's and ~8% of Hopper's instructions."""
        for size in (512, 1024):
            virgo = results[(DesignKind.VIRGO, size)].retired_instructions
            volta = results[(DesignKind.VOLTA, size)].retired_instructions
            hopper = results[(DesignKind.HOPPER, size)].retired_instructions
            assert virgo / volta < 0.02
            assert virgo / hopper < 0.20

    def test_counters_populated(self, results):
        result = results[(DesignKind.VIRGO, 256)]
        assert result.counters["matrix_unit.pe.macs"] == pytest.approx(256**3)
        assert result.counters["dram.bytes"] > 0

    def test_macs_counted_exactly_for_all_designs(self, results):
        for kind in DesignKind:
            result = results[(kind, 256)]
            assert result.counters["matrix_unit.pe.macs"] == pytest.approx(256**3, rel=0.01)

    def test_ideal_mac_cycles(self):
        design = make_design(DesignKind.VIRGO)
        assert ideal_mac_cycles(design, GemmWorkload.square(256)) == pytest.approx(65536)

    def test_volta_dominated_by_core_energy(self, results):
        """Figure 9: the Vortex core dominates the tightly-coupled designs' energy."""
        from repro.energy.breakdown import soc_breakdown
        from repro.energy.model import EnergyTable

        result = results[(DesignKind.VOLTA, 512)]
        breakdown = soc_breakdown("volta", result.counters, EnergyTable())
        assert breakdown.dominant_component() == "Vortex Core"

    def test_rectangular_workload_supported(self):
        result = simulate_gemm(DesignKind.VIRGO, GemmWorkload(m=512, n=256, k=128))
        assert result.total_cycles > 0
        assert result.mac_utilization > 0.3

    def test_fp32_configs_simulate(self):
        result = simulate_gemm(DesignKind.VIRGO, 256, DataType.FP32)
        assert result.mac_utilization > 0.3
