"""Tests for the heterogeneous multi-matrix-unit experiment (Section 6.3)."""

import pytest

from repro.config.presets import virgo
from repro.config.soc import DataType
from repro.kernels.heterogeneous import (
    HeterogeneousResult,
    heterogeneous_summary,
    simulate_heterogeneous,
    small_unit_config,
)


@pytest.fixture(scope="module")
def result() -> HeterogeneousResult:
    return simulate_heterogeneous()


class TestHeterogeneous:
    def test_total_capacity(self, result):
        """A full 16x16 unit plus a half-size 8x8 unit share the cluster."""
        assert result.total_macs_per_cycle == 256 + 64
        assert result.small_macs_per_cycle == 64

    def test_small_unit_halves_the_mesh_and_tiles(self):
        small = small_unit_config(virgo().matrix_unit)
        assert (small.systolic_rows, small.systolic_cols, small.macs_per_cycle) == (8, 8, 64)
        assert (small.tile_m, small.tile_n, small.tile_k) == (64, 32, 64)
        assert small.accumulator_bytes == 16 * 1024

    def test_parallel_faster_than_serial(self, result):
        assert result.parallel_cycles < result.serial_cycles
        assert result.parallel_speedup > 1.2

    def test_parallel_utilization_close_to_serial(self, result):
        """Section 6.3: running both GEMMs in parallel preserves utilization."""
        assert abs(result.parallel_utilization - result.serial_utilization) < 0.15

    def test_utilizations_in_band(self, result):
        assert 0.45 <= result.parallel_utilization <= 0.80
        assert 0.45 <= result.serial_utilization <= 0.85

    def test_power_per_flop_increase_is_minimal(self, result):
        """Section 6.3: only a small power/FLOP overhead when run in parallel (paper 4.3%)."""
        increase = result.power_per_flop_increase()
        assert 0.0 <= increase < 0.10

    def test_summary_keys(self, result):
        summary = heterogeneous_summary(result)
        assert set(summary) == {
            "parallel_utilization_percent",
            "serial_utilization_percent",
            "power_per_flop_increase_percent",
            "parallel_speedup",
        }

    def test_custom_sizes(self):
        small = simulate_heterogeneous(large_size=128, small_size=64)
        assert small.large_cycles > small.small_cycles

    def test_requires_disaggregated_design(self, volta_design):
        with pytest.raises(ValueError):
            simulate_heterogeneous(base_design=volta_design)

    def test_fp32_base_design(self):
        result = simulate_heterogeneous(base_design=virgo(DataType.FP32))
        assert result.total_macs_per_cycle == 64 + 16
