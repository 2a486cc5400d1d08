"""Preset design configurations for the four evaluated GPU designs (Table 2).

All presets share the same SoC substrate (one cluster, 128 KB shared memory,
512 KB L2, 400 MHz) and, importantly, the same number of MAC units per
cluster (256 FP16 MACs / 128 FP32 MACs) so that comparisons isolate the
integration style rather than raw compute capacity -- exactly the
"fair comparison" constraint the paper imposes.
"""

from __future__ import annotations

import enum
from dataclasses import replace
from typing import Dict, List

from repro.config.soc import (
    ClusterConfig,
    CoreConfig,
    DataType,
    DesignConfig,
    IntegrationStyle,
    MatrixUnitConfig,
    SharedMemoryConfig,
    SoCConfig,
)


class DesignKind(enum.Enum):
    """Shorthand names for the evaluated design points."""

    VOLTA = "volta"
    AMPERE = "ampere"
    HOPPER = "hopper"
    VIRGO = "virgo"

    @property
    def display_name(self) -> str:
        return {
            DesignKind.VOLTA: "Volta-style",
            DesignKind.AMPERE: "Ampere-style",
            DesignKind.HOPPER: "Hopper-style",
            DesignKind.VIRGO: "Virgo",
        }[self]


def _base_core() -> CoreConfig:
    return CoreConfig()


def _base_shared_memory(subbanks: int = 8) -> SharedMemoryConfig:
    return SharedMemoryConfig(subbanks=subbanks)


def volta_style(dtype: DataType = DataType.FP16) -> DesignConfig:
    """Tightly-coupled matrix unit fed from the register file, no DMA.

    Eight cores per cluster, one 32-MAC (FP16) tensor core per core, tile
    size 8x8x16, operands and accumulators staged through the register file.
    The shared memory uses the 2x more aggressive banking the paper applies
    to keep the tensor cores from being bandwidth-bound (Section 6.1.3).
    """
    macs = 32 if dtype is DataType.FP16 else 16
    unit = MatrixUnitConfig(
        dtype=dtype,
        macs_per_cycle=macs,
        tile_m=8,
        tile_n=8,
        tile_k=16 if dtype is DataType.FP16 else 8,
        cycles_per_step=2,
        accumulator_bytes=0,
        operand_buffer_bytes=512,
    )
    cluster = ClusterConfig(
        cores=8,
        core=_base_core(),
        shared_memory=_base_shared_memory(subbanks=16),
        matrix_unit=unit,
        matrix_units=8,
    )
    return DesignConfig(
        name="Volta-style",
        style=IntegrationStyle.TIGHTLY_COUPLED,
        soc=SoCConfig(cluster=cluster),
    )


def ampere_style(dtype: DataType = DataType.FP16) -> DesignConfig:
    """Volta-style tightly-coupled unit plus a cluster DMA engine."""
    return replace(
        volta_style(dtype), name="Ampere-style", style=IntegrationStyle.TIGHTLY_COUPLED_DMA
    )


def hopper_style(dtype: DataType = DataType.FP16) -> DesignConfig:
    """Operand-decoupled matrix unit sourcing operands from shared memory.

    Four cores per cluster, one 64-MAC (FP16) unit per core, tile size
    16x16x32, asynchronous wgmma-like interface, accumulators still in the
    register file.  A DMA engine is present, as in the paper.
    """
    macs = 64 if dtype is DataType.FP16 else 32
    unit = MatrixUnitConfig(
        dtype=dtype,
        macs_per_cycle=macs,
        tile_m=16,
        tile_n=16,
        tile_k=32 if dtype is DataType.FP16 else 16,
        cycles_per_step=1,
        accumulator_bytes=0,
        operand_buffer_bytes=2 * 1024,
    )
    cluster = ClusterConfig(
        cores=4,
        core=_base_core(),
        shared_memory=_base_shared_memory(subbanks=8),
        matrix_unit=unit,
        matrix_units=4,
    )
    return DesignConfig(
        name="Hopper-style",
        style=IntegrationStyle.OPERAND_DECOUPLED,
        soc=SoCConfig(cluster=cluster),
    )


def virgo(dtype: DataType = DataType.FP16) -> DesignConfig:
    """Virgo: a single disaggregated matrix unit per cluster.

    A Gemmini-style 16x16 (FP16) systolic array with a private 32 KB
    accumulator SRAM, controlled over MMIO and fed directly from the
    cluster shared memory.  The operation tile exposed to software is
    128x64x128.
    """
    if dtype is DataType.FP16:
        rows = cols = 16
        tile_m, tile_n, tile_k = 128, 64, 128
    else:
        rows = cols = 8
        tile_m, tile_n, tile_k = 64, 64, 64
    unit = MatrixUnitConfig(
        dtype=dtype,
        macs_per_cycle=rows * cols,
        tile_m=tile_m,
        tile_n=tile_n,
        tile_k=tile_k,
        systolic_rows=rows,
        systolic_cols=cols,
        accumulator_bytes=32 * 1024,
        operand_buffer_bytes=4 * 1024,
    )
    cluster = ClusterConfig(
        cores=8,
        core=_base_core(),
        shared_memory=_base_shared_memory(subbanks=8),
        matrix_unit=unit,
        matrix_units=1,
    )
    return DesignConfig(
        name="Virgo",
        style=IntegrationStyle.DISAGGREGATED,
        soc=SoCConfig(cluster=cluster),
    )


_FACTORIES = {
    DesignKind.VOLTA: volta_style,
    DesignKind.AMPERE: ampere_style,
    DesignKind.HOPPER: hopper_style,
    DesignKind.VIRGO: virgo,
}


def make_design(kind: DesignKind, dtype: DataType = DataType.FP16) -> DesignConfig:
    """Build the preset :class:`DesignConfig` for ``kind``."""
    design = _FACTORIES[kind](dtype)
    design.validate()
    return design


def all_designs(dtype: DataType = DataType.FP16) -> Dict[DesignKind, DesignConfig]:
    """All four evaluated design points, keyed by :class:`DesignKind`."""
    return {kind: make_design(kind, dtype) for kind in DesignKind}


def gemm_design_kinds() -> List[DesignKind]:
    """Design kinds compared in the GEMM evaluation (Table 3, Figures 8-11)."""
    return [DesignKind.VOLTA, DesignKind.AMPERE, DesignKind.HOPPER, DesignKind.VIRGO]
