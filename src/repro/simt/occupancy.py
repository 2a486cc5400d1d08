"""Warp occupancy calculator (reproduces Table 1's occupancy statistics).

Table 1 of the paper reports register usage and warp occupancy of CUTLASS
GEMM kernels on V100/A100/H100.  Those numbers were profiled on real GPUs;
here we implement the standard CUDA occupancy calculation -- warps resident
per SM limited by the register file, shared memory and the warp slot count --
and feed it the paper's reported per-thread register usage to regenerate the
occupancy column analytically.

It also holds the Section 5.1 tile derivation: the largest matrix-unit tile
whose operands and accumulator fit in one warp's register slice.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.config.soc import DataType


@dataclass(frozen=True)
class GpuGenerationSpec:
    """Resources of one streaming multiprocessor of a datacenter GPU."""

    name: str
    registers_per_sm: int = 65536
    max_warps_per_sm: int = 64
    max_threads_per_block: int = 1024
    shared_memory_per_sm: int = 164 * 1024
    threads_per_warp: int = 32
    register_allocation_granularity: int = 256
    tensor_fp16_tflops_rel: float = 1.0
    cuda_fp32_tflops_rel: float = 1.0
    tensor_cores_rel: float = 1.0
    macs_per_tensor_core: int = 64


#: SM resources and relative throughput scaling for the GPUs in Table 1.
GENERATIONS: Dict[str, GpuGenerationSpec] = {
    "V100": GpuGenerationSpec(
        name="V100",
        max_warps_per_sm=64,
        shared_memory_per_sm=96 * 1024,
        tensor_fp16_tflops_rel=1.0,
        cuda_fp32_tflops_rel=1.0,
        tensor_cores_rel=1.0,
        macs_per_tensor_core=64,
    ),
    "A100": GpuGenerationSpec(
        name="A100",
        max_warps_per_sm=64,
        shared_memory_per_sm=164 * 1024,
        tensor_fp16_tflops_rel=2.5,
        cuda_fp32_tflops_rel=1.2,
        tensor_cores_rel=0.7,
        macs_per_tensor_core=256,
    ),
    "H100": GpuGenerationSpec(
        name="H100",
        max_warps_per_sm=64,
        shared_memory_per_sm=228 * 1024,
        tensor_fp16_tflops_rel=7.9,
        cuda_fp32_tflops_rel=4.3,
        tensor_cores_rel=0.8,
        macs_per_tensor_core=512,
    ),
}

#: Per-thread register usage of the CUTLASS kernels profiled in Table 1.
TABLE1_REGISTER_USAGE: Dict[str, int] = {"V100": 224, "A100": 221, "H100": 168}

#: Threads per block of the profiled CUTLASS kernels (one per architecture).
TABLE1_THREADS_PER_BLOCK: Dict[str, int] = {"V100": 256, "A100": 256, "H100": 384}


@dataclass(frozen=True)
class OccupancyResult:
    """Outcome of the occupancy calculation for one kernel on one GPU."""

    gpu: str
    registers_per_thread: int
    warps_per_sm: int
    max_warps_per_sm: int
    limiting_factor: str

    @property
    def occupancy(self) -> float:
        """Resident warps as a fraction of the SM's warp slots."""
        return self.warps_per_sm / float(self.max_warps_per_sm)


class OccupancyCalculator:
    """Standard register/shared-memory/warp-slot occupancy calculation."""

    def __init__(self, spec: GpuGenerationSpec) -> None:
        self.spec = spec

    def _registers_per_warp(self, registers_per_thread: int) -> int:
        raw = registers_per_thread * self.spec.threads_per_warp
        granule = self.spec.register_allocation_granularity
        return ((raw + granule - 1) // granule) * granule

    def warps_limited_by_registers(self, registers_per_thread: int) -> int:
        if registers_per_thread <= 0:
            return self.spec.max_warps_per_sm
        per_warp = self._registers_per_warp(registers_per_thread)
        return max(0, self.spec.registers_per_sm // per_warp)

    def warps_limited_by_shared_memory(
        self, shared_memory_per_block: int, warps_per_block: int
    ) -> int:
        if shared_memory_per_block <= 0:
            return self.spec.max_warps_per_sm
        blocks = self.spec.shared_memory_per_sm // shared_memory_per_block
        return blocks * warps_per_block

    def calculate(
        self,
        registers_per_thread: int,
        threads_per_block: int = 256,
        shared_memory_per_block: int = 0,
    ) -> OccupancyResult:
        """Compute resident warps per SM and the limiting resource."""
        if threads_per_block <= 0:
            raise ValueError("threads_per_block must be positive")
        warps_per_block = max(1, threads_per_block // self.spec.threads_per_warp)

        limits = {
            "warp_slots": self.spec.max_warps_per_sm,
            "registers": self.warps_limited_by_registers(registers_per_thread),
            "shared_memory": self.warps_limited_by_shared_memory(
                shared_memory_per_block, warps_per_block
            ),
        }
        # Resident warps come in whole thread blocks.
        feasible_blocks = min(limit // warps_per_block for limit in limits.values())
        warps = feasible_blocks * warps_per_block
        limiting = min(limits, key=lambda key: limits[key] // warps_per_block)
        return OccupancyResult(
            gpu=self.spec.name,
            registers_per_thread=registers_per_thread,
            warps_per_sm=warps,
            max_warps_per_sm=self.spec.max_warps_per_sm,
            limiting_factor=limiting,
        )


def table1_occupancies() -> Dict[str, OccupancyResult]:
    """Occupancy of the Table 1 CUTLASS kernels, computed from register usage."""
    results: Dict[str, OccupancyResult] = {}
    for gpu, spec in GENERATIONS.items():
        calculator = OccupancyCalculator(spec)
        results[gpu] = calculator.calculate(
            registers_per_thread=TABLE1_REGISTER_USAGE[gpu],
            threads_per_block=TABLE1_THREADS_PER_BLOCK[gpu],
        )
    return results


class RegisterAllocationError(Exception):
    """Raised when an allocation does not fit in the per-warp register space."""


def max_tile_for_register_space(
    bytes_per_warp: int,
    dtype: DataType,
    operands_in_register_file: bool,
    accumulator_in_register_file: bool,
) -> Tuple[int, int, int]:
    """Largest square-ish (m, n, k) tile that fits in a warp's register slice.

    This reproduces the paper's tile-size derivations (Section 5.1): with 1 KiB
    of per-warp FP register space, a tightly-coupled unit fits two 8x16 FP16
    operands plus an 8x8 FP32 accumulator (tile 8x8x16); an operand-decoupled
    unit, which only keeps the accumulator in registers, fits a 16x16 FP32
    accumulator (tile 16x16x32 with k = 2 * m).

    The search assumes m == n and k == 2 * m, doubling m until the footprint
    no longer fits.
    """
    if bytes_per_warp <= 0:
        raise ValueError("bytes_per_warp must be positive")
    accum_bytes_per_elem = 4  # accumulators are FP32 in all designs
    best = (0, 0, 0)
    m = 1
    while m <= 1024:
        n = m
        k = 2 * m
        footprint = 0
        if operands_in_register_file:
            footprint += dtype.bytes * (m * k + k * n)
        if accumulator_in_register_file:
            footprint += accum_bytes_per_elem * m * n
        if footprint <= bytes_per_warp:
            best = (m, n, k)
            m *= 2
        else:
            break
    if best == (0, 0, 0):
        raise RegisterAllocationError(
            f"no tile fits in {bytes_per_warp} B of per-warp register space"
        )
    return best
