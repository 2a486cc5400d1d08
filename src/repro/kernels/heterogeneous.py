"""Multiple heterogeneous matrix units in one cluster (Section 6.3).

Virgo's disaggregation and parameterized memory system allow several,
differently-sized matrix units to share a cluster.  The paper's showcase runs
a 256x256x256 GEMM on a full-size (16x16) unit concurrently with a
128x128x128 GEMM on a half-size (8x8) unit, and reports that the combined MAC
utilization when run in parallel (59.5%) is essentially the same as when the
two GEMMs run back to back (59.7%), with only a 4.3% increase in power per
FLOP -- i.e. the shared memory system absorbs the concurrent streams.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict

from repro.config.soc import DataType, DesignConfig, IntegrationStyle, MatrixUnitConfig
from repro.config.presets import virgo
from repro.core.gemmini import GemminiMatrixUnit
from repro.energy.model import EnergyTable
from repro.kernels.gemm.base import GemmWorkload
from repro.kernels.gemm.virgo_gemm import VirgoGemmKernel
from repro.sim.stats import Counters


def small_unit_config(base: MatrixUnitConfig) -> MatrixUnitConfig:
    """A unit with a mesh half the size of ``base``'s in each dimension."""
    rows = max(1, base.systolic_rows // 2)
    cols = max(1, base.systolic_cols // 2)
    return replace(
        base,
        systolic_rows=rows,
        systolic_cols=cols,
        macs_per_cycle=rows * cols,
        tile_m=max(rows, base.tile_m // 2),
        tile_n=max(cols, base.tile_n // 2),
        tile_k=max(rows, base.tile_k // 2),
        accumulator_bytes=max(8 * 1024, base.accumulator_bytes // 2),
    )


def small_unit_stride(design: DesignConfig) -> int:
    """Every ``stride``-th small job rides the half-size unit of ``design``.

    The stride is the full unit's throughput over the small one's, plus one,
    so both units draw down a pool of independent small jobs (MoE experts,
    a decode batch's requests) concurrently: with the default 4x capacity
    ratio, one job in five.
    """
    large = design.matrix_unit.macs_per_cycle
    small = max(1, small_unit_config(design.matrix_unit).macs_per_cycle)
    return max(2, round(large / small) + 1)


def design_with_unit(base: DesignConfig, unit: MatrixUnitConfig) -> DesignConfig:
    cluster = replace(base.soc.cluster, matrix_unit=unit, matrix_units=1)
    return replace(base, soc=replace(base.soc, cluster=cluster))


@dataclass
class HeterogeneousResult:
    """Parallel-vs-serial comparison of two GEMMs on two matrix units."""

    large_workload: GemmWorkload
    small_workload: GemmWorkload
    large_cycles: int
    small_cycles: int
    serial_cycles: int
    parallel_cycles: int
    total_macs_per_cycle: int
    small_macs_per_cycle: int
    serial_energy_fj: int
    parallel_energy_fj: int

    @property
    def total_macs(self) -> int:
        return self.large_workload.macs + self.small_workload.macs

    @property
    def serial_utilization(self) -> float:
        """Utilization when the two GEMMs run back to back.

        Each GEMM only exercises its own unit while it runs, so the serial
        utilization is the MAC-cycle-weighted utilization of the two runs
        (the paper's 59.7%), not the fraction of both units' combined
        capacity over the summed runtime.
        """
        large_macs_per_cycle = self.total_macs_per_cycle - self.small_macs_per_cycle
        capacity_cycles = (
            self.large_cycles * large_macs_per_cycle
            + self.small_cycles * self.small_macs_per_cycle
        )
        return self.total_macs / capacity_cycles if capacity_cycles else 0.0

    @property
    def parallel_utilization(self) -> float:
        ideal = self.total_macs / float(self.total_macs_per_cycle)
        return ideal / self.parallel_cycles if self.parallel_cycles else 0.0

    @property
    def parallel_speedup(self) -> float:
        return self.serial_cycles / self.parallel_cycles if self.parallel_cycles else 0.0

    def power_per_flop_increase(self) -> float:
        """Relative increase of (active power / FLOP rate) of parallel vs serial.

        Energy per FLOP is runtime-independent, so the ratio reduces to the
        parallel-to-serial energy ratio; the interconnect contention events
        added in the parallel case are what make it exceed 1.
        """
        if self.serial_energy_fj == 0:
            return 0.0
        return self.parallel_energy_fj / self.serial_energy_fj - 1.0


def simulate_heterogeneous(
    large_size: int = 256,
    small_size: int = 128,
    base_design: DesignConfig | None = None,
) -> HeterogeneousResult:
    """Run the Section 6.3 experiment: two GEMMs on two differently-sized units."""
    base = base_design or virgo(DataType.FP16)
    if base.style is not IntegrationStyle.DISAGGREGATED:
        raise ValueError("heterogeneous matrix units require the disaggregated design")

    large_unit = base.matrix_unit
    small_unit = small_unit_config(large_unit)

    large_design = design_with_unit(base, large_unit)
    small_design = design_with_unit(base, small_unit)

    large_workload = GemmWorkload.square(large_size)
    small_workload = GemmWorkload.square(small_size)

    large_result = VirgoGemmKernel(large_design).simulate(large_workload)
    small_result = VirgoGemmKernel(small_design).simulate(small_workload)

    serial_cycles = large_result.total_cycles + small_result.total_cycles

    # Parallel execution: the two units proceed independently except for
    # contention on the shared-memory banks and the single DMA engine.  The
    # combined operand-streaming demand is compared against the shared-memory
    # peak bandwidth; any excess stretches the longer of the two kernels.
    smem = base.cluster.shared_memory
    large_demand = _streaming_demand(large_design, large_result.total_cycles, large_workload)
    small_demand = _streaming_demand(small_design, small_result.total_cycles, small_workload)
    overlap_cycles = min(large_result.total_cycles, small_result.total_cycles)
    combined = large_demand + small_demand
    contention = max(1.0, combined / smem.peak_bytes_per_cycle)
    parallel_cycles = int(
        max(large_result.total_cycles, small_result.total_cycles)
        + overlap_cycles * (contention - 1.0)
    )

    serial_energy, parallel_energy = _energies(
        base, large_result.counters, small_result.counters, contention
    )

    return HeterogeneousResult(
        large_workload=large_workload,
        small_workload=small_workload,
        large_cycles=large_result.total_cycles,
        small_cycles=small_result.total_cycles,
        serial_cycles=serial_cycles,
        parallel_cycles=parallel_cycles,
        total_macs_per_cycle=large_unit.macs_per_cycle + small_unit.macs_per_cycle,
        small_macs_per_cycle=small_unit.macs_per_cycle,
        serial_energy_fj=serial_energy,
        parallel_energy_fj=parallel_energy,
    )


def _streaming_demand(design: DesignConfig, cycles: int, workload: GemmWorkload) -> float:
    """Average shared-memory bytes/cycle the kernel's matrix unit consumes."""
    unit = design.matrix_unit
    matrix_unit = GemminiMatrixUnit(unit, design.cluster.shared_memory)
    tiles = unit.tile_count(workload.m, workload.n, workload.k)
    total_bytes = tiles * matrix_unit.smem_read_bytes(
        min(unit.tile_m, workload.m), min(unit.tile_n, workload.n), min(unit.tile_k, workload.k)
    )
    return total_bytes / float(max(1, cycles))


def _energies(
    design: DesignConfig,
    large_counters: Counters,
    small_counters: Counters,
    contention: float,
) -> tuple:
    """Serial and parallel energy; contention adds interconnect retry traffic."""
    table = EnergyTable.for_design(design.style)
    combined = large_counters + small_counters
    serial_energy = table.energy_femtojoules(combined)

    parallel_counters = combined.copy()
    # Bank conflicts in the parallel case re-issue a fraction of the matrix
    # units' shared-memory reads and add arbitration activity in the
    # interconnect, which is what the paper's 4.3% power/FLOP increase covers.
    # A retry re-reads whole words and re-issues whole descriptors.
    retry_fraction = min(0.25, max(0.0, contention - 1.0) + 0.03)
    extra_words = math.ceil(combined.get("smem.matrix.read_words") * retry_fraction)
    parallel_counters.add("smem.matrix.read_words", extra_words)
    parallel_counters.add("dma.descriptors", math.ceil(combined.get("dma.descriptors") * 0.05))
    parallel_energy = table.energy_femtojoules(parallel_counters)
    return serial_energy, parallel_energy


def heterogeneous_summary(result: HeterogeneousResult) -> Dict[str, float]:
    """Headline numbers matching the Section 6.3 narrative."""
    return {
        "parallel_utilization_percent": 100.0 * result.parallel_utilization,
        "serial_utilization_percent": 100.0 * result.serial_utilization,
        "power_per_flop_increase_percent": 100.0 * result.power_per_flop_increase(),
        "parallel_speedup": result.parallel_speedup,
    }
