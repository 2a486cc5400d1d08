"""Component-wise energy/power breakdowns matching the paper's figures.

Three views are provided:

* :func:`soc_breakdown` -- Figure 9 grouping (L2, L1, shared memory, Vortex
  core, accumulator memory, matrix unit, DMA & other).
* :func:`core_breakdown` -- Figure 10 grouping (issue, ALU, FPU, LSU,
  writeback, other) plus the accumulator and matrix unit for comparison.
* :func:`matrix_unit_breakdown` -- Figure 11 grouping (PEs, operand buffer,
  result buffer, SMEM interface, accumulator memory, control).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.energy.model import EnergyTable
from repro.sim.stats import Counters


@dataclass
class EnergyBreakdown:
    """A labelled energy decomposition in whole femtojoules."""

    label: str
    parts_fj: Dict[str, int]

    @property
    def total_fj(self) -> int:
        return sum(self.parts_fj.values())

    @property
    def parts_pj(self) -> Dict[str, float]:
        return {key: value / 1e3 for key, value in self.parts_fj.items()}

    def parts_uj(self) -> Dict[str, float]:
        return {key: value / 1e9 for key, value in self.parts_fj.items()}

    def dominant_component(self) -> str:
        if not self.parts_fj:
            return ""
        return max(self.parts_fj, key=lambda key: self.parts_fj[key])


#: Figure 9 component order.
SOC_GROUPS = {
    "l2": "L2 Cache",
    "l1": "L1 Cache",
    "shared_memory": "Shared Mem",
    "core": "Vortex Core",
    "accumulator": "Accum Mem",
    "matrix_unit": "Matrix Unit",
    "dma_other": "DMA & Other",
}

#: Figure 10 component order.
CORE_GROUPS = {
    "core.issue": "Core: Issue",
    "core.alu": "Core: ALU",
    "core.fpu": "Core: FPU",
    "core.lsu": "Core: LSU",
    "core.writeback": "Core: Writeback",
    "core.other": "Core: Other",
}

#: Figure 11 component order.
MATRIX_GROUPS = {
    "matrix_unit.pe": "PEs",
    "matrix_unit.operand_buffer": "Operand Buffer",
    "matrix_unit.result_buffer": "Result Buffer",
    "matrix_unit.smem_interface": "SMEM Interface",
    "matrix_unit.control": "Control",
}


def soc_breakdown(label: str, counters: Counters, table: EnergyTable) -> EnergyBreakdown:
    """SoC-level breakdown (Figure 9): core sub-groups fold into "Vortex Core"."""
    energy = table.energy_by_component(counters)
    parts: Dict[str, int] = {name: 0 for name in SOC_GROUPS.values()}
    for component, value in energy.items():
        if component.startswith("core."):
            parts[SOC_GROUPS["core"]] += value
        elif component.startswith("matrix_unit."):
            parts[SOC_GROUPS["matrix_unit"]] += value
        elif component in SOC_GROUPS:
            parts[SOC_GROUPS[component]] += value
        elif component == "dram":
            continue  # off-chip
        else:
            parts[SOC_GROUPS["dma_other"]] += value
    return EnergyBreakdown(label=label, parts_fj=parts)


def core_breakdown(label: str, counters: Counters, table: EnergyTable) -> EnergyBreakdown:
    """Core-level breakdown (Figure 10), with accumulator/matrix unit appended."""
    energy = table.energy_by_component(counters)
    parts: Dict[str, int] = {name: 0 for name in CORE_GROUPS.values()}
    parts["Accum Mem"] = 0
    parts["Matrix Unit"] = 0
    for component, value in energy.items():
        if component in CORE_GROUPS:
            parts[CORE_GROUPS[component]] += value
        elif component == "accumulator":
            parts["Accum Mem"] += value
        elif component.startswith("matrix_unit."):
            parts["Matrix Unit"] += value
    return EnergyBreakdown(label=label, parts_fj=parts)


def matrix_unit_breakdown(label: str, counters: Counters, table: EnergyTable) -> EnergyBreakdown:
    """Matrix-unit internal breakdown (Figure 11)."""
    energy = table.energy_by_component(counters)
    parts: Dict[str, int] = {name: 0 for name in MATRIX_GROUPS.values()}
    parts["Accum Mem"] = 0
    for component, value in energy.items():
        if component in MATRIX_GROUPS:
            parts[MATRIX_GROUPS[component]] += value
        elif component == "accumulator":
            parts["Accum Mem"] += value
    return EnergyBreakdown(label=label, parts_fj=parts)
