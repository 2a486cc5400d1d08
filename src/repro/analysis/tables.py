"""Regeneration of the paper's tables (1 through 4)."""

from __future__ import annotations

from typing import Dict, Iterable, Sequence

from repro.config.soc import DataType
from repro.config.presets import DesignKind, all_designs, gemm_design_kinds, make_design
from repro.kernels.gemm import GEMM_SIZES, GemmWorkload, smem_footprint_table
from repro.runner import run_gemm
from repro.simt.occupancy import (
    GENERATIONS,
    TABLE1_REGISTER_USAGE,
    table1_occupancies,
)


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """Render a plain-text table (fixed-width columns)."""
    rows = [list(map(str, row)) for row in rows]
    widths = [len(header) for header in headers]
    for row in rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = []
    header_line = "  ".join(header.ljust(widths[i]) for i, header in enumerate(headers))
    lines.append(header_line)
    lines.append("  ".join("-" * width for width in widths))
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def table1_scaling_trends() -> Dict[str, Dict[str, float]]:
    """Table 1: GPU generation scaling trends and CUTLASS kernel occupancy.

    Throughput scaling and MACs-per-Tensor-Core come from the generation
    specs; register usage is the paper's profiled value; occupancy is
    recomputed with the register-file occupancy calculator.
    """
    occupancies = table1_occupancies()
    table: Dict[str, Dict[str, float]] = {}
    for gpu, spec in GENERATIONS.items():
        occupancy = occupancies[gpu]
        table[gpu] = {
            "tensor_fp16_tflops_rel": spec.tensor_fp16_tflops_rel,
            "cuda_fp32_tflops_rel": spec.cuda_fp32_tflops_rel,
            "tensor_cores_rel": spec.tensor_cores_rel,
            "macs_per_tensor_core": spec.macs_per_tensor_core,
            "register_usage": TABLE1_REGISTER_USAGE[gpu],
            "occupancy_percent": 100.0 * occupancy.occupancy,
            "limiting_factor": occupancy.limiting_factor,
        }
    return table


def table2_hardware_configuration() -> Dict[str, Dict[str, object]]:
    """Table 2: hardware configuration of the evaluated designs."""
    designs = all_designs()
    table: Dict[str, Dict[str, object]] = {}
    for kind, design in designs.items():
        cluster = design.cluster
        unit = design.matrix_unit
        table[kind.display_name] = {
            "cores_per_cluster": cluster.cores,
            "warps_per_core": cluster.core.warps,
            "lanes_per_warp": cluster.core.lanes,
            "shared_memory_kib": cluster.shared_memory.size_bytes // 1024,
            "smem_banks": cluster.shared_memory.banks,
            "smem_subbanks": cluster.shared_memory.subbanks,
            "l2_kib": design.soc.l2.size_bytes // 1024,
            "matrix_units": cluster.matrix_units,
            "macs_per_unit_fp16": unit.macs_per_cycle,
            "macs_per_cluster": cluster.total_macs_per_cycle,
            "tile": f"{unit.tile_m}x{unit.tile_n}x{unit.tile_k}",
            "has_dma": design.has_dma,
            "accumulator_kib": unit.accumulator_bytes // 1024,
        }
    return table


def table3_mac_utilization(
    sizes: Sequence[int] = GEMM_SIZES,
    designs: Sequence[DesignKind] | None = None,
) -> Dict[str, Dict[int, float]]:
    """Table 3: MAC utilization (%) of the GEMM kernel across designs and sizes."""
    kinds = list(designs) if designs is not None else gemm_design_kinds()
    table: Dict[str, Dict[int, float]] = {}
    for kind in kinds:
        row: Dict[int, float] = {}
        for size in sizes:
            row[size] = run_gemm(kind, size).mac_utilization_percent
        table[kind.display_name] = row
    return table


def table4_smem_footprint(size: int = 256) -> Dict[str, Dict[str, float]]:
    """Table 4: shared-memory read footprint of the 256^3 GEMM per design."""
    designs = {
        "Tightly-coupled": make_design(DesignKind.VOLTA),
        "Operand-decoupled": make_design(DesignKind.HOPPER),
        "Disaggregated": make_design(DesignKind.VIRGO),
    }
    workload = GemmWorkload.square(size, DataType.FP16)
    return smem_footprint_table(designs, workload)
