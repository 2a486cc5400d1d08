"""Tiled GEMM kernels: timing/energy models per design plus functional kernels."""

from __future__ import annotations

from typing import Union

from repro.config.soc import DataType, DesignConfig, IntegrationStyle
from repro.config.presets import DesignKind, make_design
from repro.kernels.gemm.base import (
    GEMM_SIZES,
    GemmKernelResult,
    GemmWorkload,
    ideal_mac_cycles,
)
from repro.kernels.gemm.tiling import ThreadBlockTiling, tiling_for_design
from repro.kernels.gemm.reuse import (
    ReuseExtents,
    reuse_extents,
    smem_read_footprint_bytes,
    smem_footprint_table,
)
from repro.kernels.gemm.functional import (
    gemm_functional,
    gemm_tightly_coupled,
    gemm_operand_decoupled,
    gemm_disaggregated,
    reference_gemm,
)
from repro.kernels.gemm.volta_gemm import TightlyCoupledGemmKernel
from repro.kernels.gemm.hopper_gemm import OperandDecoupledGemmKernel
from repro.kernels.gemm.virgo_gemm import VirgoGemmKernel

__all__ = [
    "GEMM_SIZES",
    "GemmKernelResult",
    "GemmWorkload",
    "ThreadBlockTiling",
    "tiling_for_design",
    "ideal_mac_cycles",
    "ReuseExtents",
    "reuse_extents",
    "smem_read_footprint_bytes",
    "smem_footprint_table",
    "gemm_functional",
    "gemm_tightly_coupled",
    "gemm_operand_decoupled",
    "gemm_disaggregated",
    "reference_gemm",
    "TightlyCoupledGemmKernel",
    "OperandDecoupledGemmKernel",
    "VirgoGemmKernel",
    "simulate_gemm",
    "kernel_for_design",
]


def kernel_for_design(design: DesignConfig):
    """Instantiate the design-appropriate GEMM kernel model."""
    if design.style in (IntegrationStyle.TIGHTLY_COUPLED, IntegrationStyle.TIGHTLY_COUPLED_DMA):
        return TightlyCoupledGemmKernel(design)
    if design.style is IntegrationStyle.OPERAND_DECOUPLED:
        return OperandDecoupledGemmKernel(design)
    return VirgoGemmKernel(design)


def simulate_gemm(
    design: Union[DesignKind, DesignConfig],
    size: Union[int, GemmWorkload],
    dtype: DataType = DataType.FP16,
    full_expansion: bool = False,
) -> GemmKernelResult:
    """Simulate a square (or explicit) GEMM on one design and return the result.

    ``full_expansion=True`` materializes every tile operation on the
    operation graph instead of scheduling the tile loop in closed form; the
    two paths produce bit-identical results and differ only in cost.
    """
    if isinstance(design, DesignKind):
        design = make_design(design, dtype)
    workload = size if isinstance(size, GemmWorkload) else GemmWorkload.square(size, dtype)
    kernel = kernel_for_design(design)
    return kernel.simulate(workload, full_expansion=full_expansion)
