"""SoC area model (Figure 7).

Area is estimated from per-component densities representative of a 16 nm
process: SRAM macros (caches, shared memory, accumulator) are charged per
kilobyte, the flop-array L1 the paper calls out is charged a flop-array
density, logic blocks (cores, matrix units, DMA, interconnect) are charged
per functional unit.  As with energy, absolute um^2 will not match the
paper's PDK results; the comparison of interest is the relative ranking:
Virgo's SoC area is within a few percent of both the Volta-style and
Hopper-style designs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.config.soc import DesignConfig, IntegrationStyle

#: Area densities in um^2.
SRAM_UM2_PER_KB = 6_000.0
FLOP_ARRAY_UM2_PER_KB = 30_000.0  # the L1 is synthesized as flop arrays (Section 5.3)
UM2_PER_SIMT_LANE = 36_000.0
UM2_PER_WARP_SLOT = 6_000.0
UM2_PER_FP16_MAC = 1_400.0
UM2_PER_OPERAND_BUFFER_KB = 8_000.0
UM2_PER_DMA = 60_000.0
UM2_PER_SMEM_INTERCONNECT_PORT = 9_000.0
UM2_MMIO_AND_SYNC = 25_000.0


@dataclass
class AreaModel:
    """Computes the component-wise area of one design."""

    design: DesignConfig

    def breakdown_um2(self) -> Dict[str, float]:
        """Area per Figure 7 component group, in um^2."""
        soc = self.design.soc
        cluster = soc.cluster
        core = cluster.core

        l2_area = SRAM_UM2_PER_KB * soc.l2.size_bytes / 1024.0
        l1_area = cluster.cores * FLOP_ARRAY_UM2_PER_KB * (
            (core.l1i.size_bytes + core.l1d.size_bytes) / 1024.0
        )
        smem_area = SRAM_UM2_PER_KB * cluster.shared_memory.size_bytes / 1024.0
        smem_area += UM2_PER_SMEM_INTERCONNECT_PORT * (
            cluster.shared_memory.banks * cluster.shared_memory.subbanks
        )

        core_area = cluster.cores * (
            UM2_PER_SIMT_LANE * core.lanes
            + UM2_PER_WARP_SLOT * core.warps
            + SRAM_UM2_PER_KB * core.register_file.total_bytes / 1024.0
        )

        unit = cluster.matrix_unit
        matrix_area = cluster.matrix_units * (
            UM2_PER_FP16_MAC * unit.macs_per_cycle
            + UM2_PER_OPERAND_BUFFER_KB * unit.operand_buffer_bytes / 1024.0
        )
        accum_area = cluster.matrix_units * SRAM_UM2_PER_KB * unit.accumulator_bytes / 1024.0

        dma_area = UM2_PER_DMA if self.design.has_dma else 0.0
        other_area = UM2_MMIO_AND_SYNC if self.design.style is IntegrationStyle.DISAGGREGATED else 0.0

        return {
            "L2 Cache": l2_area,
            "L1 Cache": l1_area,
            "Shared Mem": smem_area,
            "Vortex Core": core_area,
            "Accum Mem": accum_area,
            "Matrix Unit": matrix_area,
            "DMA & Other": dma_area + other_area,
        }

    def total_um2(self) -> float:
        return sum(self.breakdown_um2().values())


def soc_area_breakdown(design: DesignConfig) -> Dict[str, float]:
    """Convenience wrapper returning the Figure 7 breakdown for ``design``."""
    return AreaModel(design).breakdown_um2()
