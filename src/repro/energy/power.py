"""Active power and energy computation.

The paper reports *active* power: nominal SoC power minus idle power, so only
switching activity matters.  Our event-energy model produces exactly that --
it only charges events that occur -- so active power is total event energy
divided by runtime, and active energy is the event energy itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.config.soc import SoCConfig
from repro.energy.model import EnergyTable
from repro.sim.stats import Counters


@dataclass
class PowerReport:
    """Active power/energy of one kernel run on one design.

    Energy is held in whole femtojoules; the properties and :meth:`to_dict`
    convert it once, at the report boundary.
    """

    design_name: str
    cycles: int
    clock_mhz: float
    energy_by_component_fj: Dict[str, int]

    @property
    def runtime_seconds(self) -> float:
        if self.clock_mhz <= 0:
            raise ValueError("clock frequency must be positive")
        return self.cycles / (self.clock_mhz * 1e6)

    @property
    def total_energy_fj(self) -> int:
        return sum(self.energy_by_component_fj.values())

    @property
    def total_energy_pj(self) -> float:
        return self.total_energy_fj / 1e3

    @property
    def total_energy_uj(self) -> float:
        return self.total_energy_fj / 1e9

    @property
    def total_energy_mj(self) -> float:
        return self.total_energy_fj / 1e12

    @property
    def active_power_mw(self) -> float:
        if self.cycles == 0:
            return 0.0
        # pJ / s = 1e-12 W; report mW.
        return self.total_energy_fj / 1e3 / self.runtime_seconds * 1e-12 * 1e3

    def energy_by_component_uj(self) -> Dict[str, float]:
        return {key: value / 1e9 for key, value in self.energy_by_component_fj.items()}

    def to_dict(self) -> Dict[str, object]:
        """Canonical JSON-ready encoding of the power/energy report."""
        return {
            "design": self.design_name,
            "cycles": self.cycles,
            "clock_mhz": self.clock_mhz,
            "active_power_mw": self.active_power_mw,
            "active_energy_uj": self.total_energy_uj,
            "energy_by_component_uj": self.energy_by_component_uj(),
        }


def make_power_report(
    design_name: str,
    counters: Counters,
    table: EnergyTable,
    cycles: int,
    soc: SoCConfig,
) -> PowerReport:
    """Bundle the component-wise energy and runtime into a :class:`PowerReport`."""
    by_component = table.energy_by_component(counters)
    return PowerReport(
        design_name=design_name,
        cycles=cycles,
        clock_mhz=soc.clock_mhz,
        energy_by_component_fj=by_component,
    )
