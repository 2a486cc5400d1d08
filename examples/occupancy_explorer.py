#!/usr/bin/env python3
"""Occupancy explorer: why core-coupled matrix units hit a register-pressure wall.

Regenerates Table 1's occupancy column from the paper's reported register
usage and sweeps register usage per thread to show how quickly occupancy
collapses -- the motivation for decoupling operand and accumulator storage
from the register file.

Run with:  python examples/occupancy_explorer.py
"""

from __future__ import annotations

from repro.analysis.tables import format_table
from repro.simt.occupancy import (
    GENERATIONS,
    TABLE1_REGISTER_USAGE,
    OccupancyCalculator,
    max_tile_for_register_space,
)
from repro.config.soc import CoreConfig, DataType, RegisterFileConfig


def table1() -> None:
    print("== Table 1: CUTLASS GEMM kernels on datacenter GPUs ==")
    headers = ["GPU", "Tensor FP16 (rel)", "regs/thread", "occupancy %", "limited by"]
    rows = []
    for gpu, spec in GENERATIONS.items():
        calculator = OccupancyCalculator(spec)
        result = calculator.calculate(TABLE1_REGISTER_USAGE[gpu], threads_per_block=256)
        rows.append(
            [
                gpu,
                f"{spec.tensor_fp16_tflops_rel:.1f}x",
                str(TABLE1_REGISTER_USAGE[gpu]),
                f"{100 * result.occupancy:.1f}",
                result.limiting_factor,
            ]
        )
    print(format_table(headers, rows))


def sweep() -> None:
    print("\n== Occupancy vs register usage (A100-class SM, 256-thread blocks) ==")
    calculator = OccupancyCalculator(GENERATIONS["A100"])
    headers = ["regs/thread", "resident warps", "occupancy %"]
    rows = []
    for registers in (32, 64, 96, 128, 168, 192, 224, 255):
        result = calculator.calculate(registers, threads_per_block=256)
        rows.append([str(registers), str(result.warps_per_sm), f"{100 * result.occupancy:.1f}"])
    print(format_table(headers, rows))


def tile_limits() -> None:
    # The default core's FP register file, privatized across its warps.
    slice_bytes = RegisterFileConfig().bytes_per_warp(CoreConfig().warps)
    print(
        f"\n== Largest matrix tile a {slice_bytes // 1024} KiB per-warp register "
        "slice supports =="
    )
    headers = ["integration style", "operands in RF", "accumulator in RF", "max tile (m,n,k)"]
    rows = [
        ["Tightly-coupled (Volta/Ampere)", "yes", "yes",
         str(max_tile_for_register_space(slice_bytes, DataType.FP16, True, True))],
        ["Operand-decoupled (Hopper)", "no", "yes",
         str(max_tile_for_register_space(slice_bytes, DataType.FP16, False, True))],
        ["Disaggregated (Virgo)", "no", "no", "limited only by shared/accumulator memory"],
    ]
    print(format_table(headers, rows))


def main() -> None:
    table1()
    sweep()
    tile_limits()


if __name__ == "__main__":
    main()
