"""High-level experiment runners: one call per kernel/design combination.

These wrap the kernel timing models together with the energy/power models and
return result objects carrying everything the tables and figures need:
cycles, MAC utilization, component-wise energy, active power, instruction
counts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Type, TypeVar, Union

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
from repro.kernels.flash_attention import FlashAttentionWorkload, simulate_flash_attention
from repro.kernels.gemm import GemmWorkload, simulate_gemm
from repro.kernels.gemm.base import KernelResult
from repro.obs import phase
from repro.perf import timing_cache
from repro.sim.stats import Counters

R = TypeVar("R", bound="KernelRunResult")


@dataclass
class KernelRunResult:
    """A kernel simulation bundled with its energy/power analysis."""

    design: DesignConfig
    kernel: KernelResult
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
    def counters(self) -> Counters:
        return self.kernel.counters

    def soc_breakdown(self) -> EnergyBreakdown:
        return soc_breakdown(self.design.name, self.kernel.counters, self._table())

    def _table(self) -> EnergyTable:
        return EnergyTable.for_design(self.design.style)


@dataclass
class GemmRunResult(KernelRunResult):
    """A GEMM kernel simulation bundled with its energy/power analysis."""

    @property
    def retired_instructions(self) -> int:
        return self.kernel.retired_instructions

    def core_breakdown(self) -> EnergyBreakdown:
        return core_breakdown(self.design.name, self.kernel.counters, self._table())

    def matrix_unit_breakdown(self) -> EnergyBreakdown:
        return matrix_unit_breakdown(self.design.name, self.kernel.counters, self._table())

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
class FlashAttentionRunResult(KernelRunResult):
    """A FlashAttention-3 simulation bundled with its energy/power analysis."""

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


def _priced_run(
    kind: str,
    design: Union[DesignKind, DesignConfig],
    dtype: DataType,
    workload: object,
    result_type: Type[R],
    simulate: Callable[[DesignConfig], KernelResult],
    phase_args: Callable[[], Dict[str, object]],
) -> R:
    """Simulate one kernel on ``design`` (a preset in ``dtype`` for a kind),
    price its counters and cache the run.

    The run is memoized in the process-wide timing cache (:mod:`repro.perf`)
    keyed by ``kind``, the design and the workload content; repeated
    invocations of the same shape return the same (shared, treat-as-immutable)
    result object.  Only a miss simulates, under the ``simulate.<kind>``
    phase with the design name and ``phase_args()``.
    """
    config = make_design(design, dtype) if isinstance(design, DesignKind) else design

    def compute() -> R:
        with phase(f"simulate.{kind}", design=config.name, **phase_args()):
            kernel_result = simulate(config)
            power = make_power_report(
                config.name,
                kernel_result.counters,
                EnergyTable.for_design(config.style),
                kernel_result.total_cycles,
                config.soc,
            )
            return result_type(design=config, kernel=kernel_result, power=power)

    cache = timing_cache()
    return cache.get_or_compute(cache.key(kind, config, {"workload": workload}), compute)


def run_gemm(
    design: Union[DesignKind, DesignConfig],
    size: Union[int, GemmWorkload],
    dtype: DataType = DataType.FP16,
) -> GemmRunResult:
    """Simulate a GEMM and compute its power/energy on one design (memoized)."""
    workload = size if isinstance(size, GemmWorkload) else GemmWorkload.square(size, dtype)
    return _priced_run(
        "gemm",
        design,
        dtype,
        workload,
        GemmRunResult,
        lambda config: simulate_gemm(config, workload, dtype),
        lambda: {"workload": workload.name},
    )


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
    """Simulate FlashAttention-3 and compute power/energy (Virgo or Ampere-style, memoized)."""
    workload = workload or FlashAttentionWorkload()
    return _priced_run(
        "flash",
        design,
        DataType.FP32,
        workload,
        FlashAttentionRunResult,
        lambda config: simulate_flash_attention(config, workload),
        lambda: {"seq_len": workload.seq_len, "heads": workload.heads},
    )
