"""High-level experiment runners: one call per kernel/design combination.

These wrap the kernel timing models together with the energy/power models and
return result objects carrying everything the tables and figures need:
cycles, MAC utilization, component-wise energy, active power, instruction
counts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, Iterable, Union

from repro.config.soc import DataType, DesignConfig
from repro.config.presets import DesignKind, gemm_design_kinds, make_design
from repro.energy.breakdown import (
    EnergyBreakdown,
    core_breakdown,
    matrix_unit_breakdown,
    soc_breakdown,
)
from repro.energy.model import EnergyTable
from repro.energy.power import PowerReport, make_power_report
from repro.kernels.flash_attention import (
    FlashAttentionResult,
    FlashAttentionWorkload,
    simulate_flash_attention,
)
from repro.kernels.gemm import GemmKernelResult, GemmWorkload, simulate_gemm
from repro.obs import phase
from repro.perf import timing_cache
from repro.sim.stats import Counters


@dataclass
class GemmRunResult:
    """A GEMM kernel simulation bundled with its energy/power analysis."""

    design: DesignConfig
    kernel: GemmKernelResult
    power: PowerReport

    @property
    def design_name(self) -> str:
        return self.design.name

    @property
    def total_cycles(self) -> int:
        return self.kernel.total_cycles

    @property
    def mac_utilization(self) -> float:
        return self.kernel.mac_utilization

    @property
    def mac_utilization_percent(self) -> float:
        return self.kernel.mac_utilization_percent

    @property
    def active_power_mw(self) -> float:
        return self.power.active_power_mw

    @property
    def active_energy_uj(self) -> float:
        return self.power.total_energy_uj

    @property
    def retired_instructions(self) -> int:
        return self.kernel.retired_instructions

    @property
    def counters(self) -> Counters:
        return self.kernel.counters

    def soc_breakdown(self) -> EnergyBreakdown:
        return soc_breakdown(self.design.name, self.kernel.counters, self._table())

    def core_breakdown(self) -> EnergyBreakdown:
        return core_breakdown(self.design.name, self.kernel.counters, self._table())

    def matrix_unit_breakdown(self) -> EnergyBreakdown:
        return matrix_unit_breakdown(self.design.name, self.kernel.counters, self._table())

    def _table(self) -> EnergyTable:
        return EnergyTable.for_design(self.design.style)

    def to_dict(self) -> Dict[str, object]:
        """Canonical JSON-ready encoding, as the CLI prints it."""
        return {
            "kind": "gemm",
            "design": self.design_name,
            "workload": self.kernel.workload.name,
            "dtype": self.kernel.workload.dtype.value,
            "total_cycles": self.total_cycles,
            "mac_utilization_percent": self.mac_utilization_percent,
            "active_power_mw": self.active_power_mw,
            "active_energy_uj": self.active_energy_uj,
            "retired_instructions": self.retired_instructions,
        }


@dataclass
class FlashAttentionRunResult:
    """A FlashAttention-3 simulation bundled with its energy/power analysis."""

    design: DesignConfig
    kernel: FlashAttentionResult
    power: PowerReport

    @property
    def design_name(self) -> str:
        return self.design.name

    @property
    def total_cycles(self) -> int:
        return self.kernel.total_cycles

    @property
    def mac_utilization_percent(self) -> float:
        return self.kernel.mac_utilization_percent

    @property
    def active_power_mw(self) -> float:
        return self.power.active_power_mw

    @property
    def active_energy_uj(self) -> float:
        return self.power.total_energy_uj

    def soc_breakdown(self) -> EnergyBreakdown:
        table = EnergyTable.for_design(self.design.style)
        return soc_breakdown(self.design.name, self.kernel.counters, table)

    def to_dict(self) -> Dict[str, object]:
        """Canonical JSON-ready encoding, as the CLI prints it."""
        workload = self.kernel.workload
        return {
            "kind": "flash_attention",
            "design": self.design_name,
            "seq_len": workload.seq_len,
            "head_dim": workload.head_dim,
            "heads": workload.heads,
            "total_cycles": self.total_cycles,
            "mac_utilization_percent": self.mac_utilization_percent,
            "active_power_mw": self.active_power_mw,
            "active_energy_uj": self.active_energy_uj,
        }


def to_json(result, indent: int | None = 2) -> str:
    """Serialize any run result exposing ``to_dict()`` to a JSON string."""
    return json.dumps(result.to_dict(), indent=indent, sort_keys=True)


def _resolve(design: Union[DesignKind, DesignConfig], dtype: DataType) -> DesignConfig:
    if isinstance(design, DesignKind):
        return make_design(design, dtype)
    return design


def run_gemm(
    design: Union[DesignKind, DesignConfig],
    size: Union[int, GemmWorkload],
    dtype: DataType = DataType.FP16,
) -> GemmRunResult:
    """Simulate a GEMM and compute its power/energy on one design.

    Results are memoized in the process-wide timing cache (:mod:`repro.perf`)
    keyed by the design and workload content; repeated invocations of the
    same shape return the same (shared, treat-as-immutable) result object.
    """
    config = _resolve(design, dtype)
    workload = size if isinstance(size, GemmWorkload) else GemmWorkload.square(size, dtype)

    def compute() -> GemmRunResult:
        with phase("simulate.gemm", design=config.name, workload=workload.name):
            kernel_result = simulate_gemm(config, workload, dtype)
            table = EnergyTable.for_design(config.style)
            power = make_power_report(
                config.name, kernel_result.counters, table, kernel_result.total_cycles, config.soc
            )
            return GemmRunResult(design=config, kernel=kernel_result, power=power)

    cache = timing_cache()
    return cache.get_or_compute(cache.key("gemm", config, {"workload": workload}), compute)


def run_all_gemm_designs(
    size: int,
    dtype: DataType = DataType.FP16,
    designs: Iterable[DesignKind] | None = None,
) -> Dict[DesignKind, GemmRunResult]:
    """Run one GEMM size across all four evaluated designs (Table 3 / Figure 8)."""
    kinds = list(designs) if designs is not None else gemm_design_kinds()
    return {kind: run_gemm(kind, size, dtype) for kind in kinds}


def run_flash_attention(
    design: Union[DesignKind, DesignConfig],
    workload: FlashAttentionWorkload | None = None,
) -> FlashAttentionRunResult:
    """Simulate FlashAttention-3 and compute power/energy (Virgo or Ampere-style).

    Results are memoized in the process-wide timing cache (:mod:`repro.perf`);
    see :func:`run_gemm`.
    """
    workload = workload or FlashAttentionWorkload()
    config = make_design(design, DataType.FP32) if isinstance(design, DesignKind) else design

    def compute() -> FlashAttentionRunResult:
        with phase(
            "simulate.flash",
            design=config.name,
            seq_len=workload.seq_len,
            heads=workload.heads,
        ):
            kernel_result = simulate_flash_attention(config, workload)
            table = EnergyTable.for_design(config.style)
            power = make_power_report(
                config.name, kernel_result.counters, table, kernel_result.total_cycles, config.soc
            )
            return FlashAttentionRunResult(design=config, kernel=kernel_result, power=power)

    cache = timing_cache()
    return cache.get_or_compute(cache.key("flash", config, {"workload": workload}), compute)
