"""Ablation studies of Virgo's individual design choices.

The paper attributes Virgo's efficiency to three mechanisms -- larger
operation granularity (fewer instructions), operand offloading from the
register file, and the dedicated accumulator memory -- plus the unified
(single-instance) unit's data reuse.  These ablations isolate each mechanism
by constructing intermediate design points and re-running the GEMM models:

* :func:`granularity_ablation` -- sweep the Virgo operation-tile size and show
  utilization and core-energy falling as tiles shrink (instruction overhead
  returns).
* :func:`accumulator_placement_ablation` -- charge the accumulator traffic to
  register-file-class storage instead of the private SRAM and report the
  energy difference (the Section 3.2.2 argument).
* :func:`unified_unit_ablation` -- split the cluster-level unit into per-core
  units of the same aggregate throughput and report the shared-memory read
  footprint increase (the Table 4 mechanism).
* :func:`async_interface_ablation` -- serialize the DMA with compute
  (no double buffering) to quantify what the asynchronous interface and
  software pipelining buy (Section 4.1).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List

from repro.config.presets import DesignKind, make_design, virgo
from repro.config.soc import DataType, DesignConfig
from repro.energy.model import EnergyEventSpec, EnergyTable
from repro.kernels.gemm import GemmWorkload, VirgoGemmKernel, smem_read_footprint_bytes
from repro.kernels.gemm.tiling import tiling_for_design
from repro.memory.dma import DmaEngine
from repro.memory.dram import DramChannel


def _virgo_with_tile(base: DesignConfig, tile_m: int, tile_n: int, tile_k: int) -> DesignConfig:
    unit = replace(base.matrix_unit, tile_m=tile_m, tile_n=tile_n, tile_k=tile_k)
    cluster = replace(base.soc.cluster, matrix_unit=unit)
    return replace(base, soc=replace(base.soc, cluster=cluster))


def granularity_ablation(size: int = 512) -> List[Dict[str, float]]:
    """Shrink Virgo's operation tile and watch utilization / instructions degrade."""
    base = virgo()
    workload = GemmWorkload.square(size)
    results = []
    for factor in (1, 2, 4):
        tile_m = max(base.matrix_unit.systolic_rows, base.matrix_unit.tile_m // factor)
        tile_n = max(base.matrix_unit.systolic_cols, base.matrix_unit.tile_n // factor)
        tile_k = max(base.matrix_unit.systolic_rows, base.matrix_unit.tile_k // factor)
        design = _virgo_with_tile(base, tile_m, tile_n, tile_k)
        result = VirgoGemmKernel(design).simulate(workload)
        results.append(
            {
                "tile": f"{tile_m}x{tile_n}x{tile_k}",
                "mac_utilization_percent": result.mac_utilization_percent,
                "retired_instructions": float(result.retired_instructions),
                "mmio_commands": result.counters.get("mmio.commands"),
            }
        )
    return results


def accumulator_placement_ablation(size: int = 512) -> Dict[str, float]:
    """Energy cost of keeping accumulators in RF-class storage vs the private SRAM.

    The counters of a Virgo GEMM run are re-priced with the accumulator
    accesses charged at register-file energy (multi-banked, SIMT-ported)
    instead of the single-banked SRAM, which is exactly the difference the
    dedicated accumulator memory makes.  The variant is Virgo's own table
    with those two prices replaced, so every other event costs the same.
    """
    result = VirgoGemmKernel(virgo()).simulate(GemmWorkload.square(size))
    sram_table = EnergyTable.for_design(result.design.style)
    rf_priced = sram_table.with_prices(
        {
            "accum.read_words": EnergyEventSpec("accumulator", 1200),
            "accum.write_words": EnergyEventSpec("accumulator", 1500),
        }
    )
    sram_energy = sram_table.energy_femtojoules(result.counters)
    rf_energy = rf_priced.energy_femtojoules(result.counters)
    return {
        "accumulator_in_sram_uj": sram_energy / 1e9,
        "accumulator_in_rf_class_storage_uj": rf_energy / 1e9,
        "energy_increase_percent": 100.0 * (rf_energy / sram_energy - 1.0),
    }


def unified_unit_ablation(size: int = 256) -> Dict[str, float]:
    """Shared-memory footprint of the unified unit vs per-core units (Table 4)."""
    workload = GemmWorkload.square(size)
    unified = smem_read_footprint_bytes(make_design(DesignKind.VIRGO), workload)
    per_core = smem_read_footprint_bytes(make_design(DesignKind.HOPPER), workload)
    return {
        "unified_mib": unified / 2**20,
        "per_core_mib": per_core / 2**20,
        "footprint_increase_percent": 100.0 * (per_core / unified - 1.0),
    }


def async_interface_ablation(size: int = 512) -> Dict[str, float]:
    """Utilization with and without overlapping the DMA behind the matrix unit.

    The synchronous variant issues the DMA and waits for it before every
    matrix operation (no double buffering), which is what a blocking command
    interface would force.  The difference is the benefit of Section 4.1's
    asynchronous interface plus Section 4.4.2's software pipelining.
    """
    design = virgo()
    workload = GemmWorkload.square(size)
    pipelined = VirgoGemmKernel(design).simulate(workload)

    tiling = tiling_for_design(design, workload)
    dram = DramChannel(design.soc.dram)
    dma = DmaEngine(design.cluster.dma, dram)
    dma_cycles = dma.transfer_cycles(tiling.input_bytes_per_iteration)
    # Serial: every iteration pays DMA then compute back to back.
    serial_cycles = tiling.total_iterations * (pipelined.iteration_cycles + dma_cycles)
    serial_cycles += tiling.output_tiles * dma.transfer_cycles(tiling.output_tile_bytes)
    serial_utilization = 100.0 * pipelined.ideal_mac_cycles / serial_cycles
    return {
        "asynchronous_utilization_percent": pipelined.mac_utilization_percent,
        "synchronous_utilization_percent": serial_utilization,
        "speedup_from_async_pipelining": serial_cycles / pipelined.total_cycles,
    }


def run_all_ablations() -> Dict[str, object]:
    """Convenience bundle used by the ablation benchmark."""
    return {
        "granularity": granularity_ablation(),
        "accumulator_placement": accumulator_placement_ablation(),
        "unified_unit": unified_unit_ablation(),
        "async_interface": async_interface_ablation(),
    }
