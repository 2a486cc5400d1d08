"""Event-based energy, active power, and area models (16 nm representative)."""

from repro.energy.model import EnergyTable, EnergyEventSpec
from repro.energy.power import PowerReport
from repro.energy.breakdown import (
    soc_breakdown,
    core_breakdown,
    matrix_unit_breakdown,
    EnergyBreakdown,
)
from repro.energy.area import AreaModel, soc_area_breakdown

__all__ = [
    "EnergyTable",
    "EnergyEventSpec",
    "PowerReport",
    "soc_breakdown",
    "core_breakdown",
    "matrix_unit_breakdown",
    "EnergyBreakdown",
    "AreaModel",
    "soc_area_breakdown",
]
