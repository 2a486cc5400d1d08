"""Thread-block tiling of the GEMM output space (Section 4.4.1).

All designs use the same two-level tiling the paper describes: the output
space is partitioned into thread-block tiles cached in shared memory, and
each design's matrix unit consumes them in its own operation granularity
(8x8x16 warp tiles for Volta/Ampere, 16x16x32 for Hopper, the whole
128x64x128 thread-block tile for Virgo).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.config.soc import DesignConfig, IntegrationStyle
from repro.kernels.gemm.base import GemmWorkload


@dataclass(frozen=True)
class ThreadBlockTiling:
    """Loop structure of a tiled GEMM on one cluster."""

    block_m: int
    block_n: int
    block_k: int
    workload: GemmWorkload

    def __post_init__(self) -> None:
        if self.block_m <= 0 or self.block_n <= 0 or self.block_k <= 0:
            raise ValueError("tile dimensions must be positive")

    @property
    def output_tiles(self) -> int:
        """Thread-block output tiles covering the (M, N) space."""
        tiles_m = -(-self.workload.m // self.block_m)
        tiles_n = -(-self.workload.n // self.block_n)
        return tiles_m * tiles_n

    @property
    def k_iterations(self) -> int:
        """K-loop steps per output tile."""
        return -(-self.workload.k // self.block_k)

    @property
    def total_iterations(self) -> int:
        """Steady-state iterations over the whole GEMM (all clusters combined)."""
        return self.output_tiles * self.k_iterations

    def output_tiles_per_cluster(self, clusters: int) -> int:
        """Output tiles each cluster processes when the SoC has ``clusters`` clusters.

        The (M, N) output space is divided equally across clusters
        (Section 4.4.1); the slowest cluster determines the runtime, so the
        timing models schedule the ceiling share.
        """
        if clusters <= 0:
            raise ValueError("the SoC must have at least one cluster")
        return -(-self.output_tiles // clusters)

    @property
    def iteration_shape(self) -> Tuple[int, int, int, str]:
        """What one K iteration reads of the tiling: block dims and dtype.

        The workload's M, N and K only set trip counts, so they are absent:
        GEMMs that share this shape share one iteration memo entry.
        """
        return (self.block_m, self.block_n, self.block_k, self.workload.dtype.value)

    @property
    def macs_per_iteration(self) -> int:
        return self.block_m * self.block_n * self.block_k

    @property
    def a_tile_bytes(self) -> int:
        return self.block_m * self.block_k * self.workload.dtype.bytes

    @property
    def b_tile_bytes(self) -> int:
        return self.block_k * self.block_n * self.workload.dtype.bytes

    @property
    def input_bytes_per_iteration(self) -> int:
        return self.a_tile_bytes + self.b_tile_bytes

    @property
    def output_tile_bytes(self) -> int:
        """FP32 output tile written back once per output tile."""
        return 4 * self.block_m * self.block_n

    def shared_memory_footprint(self, double_buffered: bool = True) -> int:
        """Bytes of shared memory the kernel needs resident."""
        factor = 2 if double_buffered else 1
        return factor * self.input_bytes_per_iteration

    def fits_in_shared_memory(self, design: DesignConfig, double_buffered: bool = True) -> bool:
        return (
            self.shared_memory_footprint(double_buffered)
            <= design.cluster.shared_memory.size_bytes
        )


def tiling_for_design(design: DesignConfig, workload: GemmWorkload) -> ThreadBlockTiling:
    """The thread-block tiling each design uses for the evaluated GEMMs.

    Virgo's thread-block tile is the matrix unit's operation tile
    (128x64x128).  The core-coupled baselines use the same 128x64 output
    tile (so shared-memory data reuse is comparable) but step K at their own
    matrix-operation depth.
    """
    unit = design.matrix_unit
    if design.style is IntegrationStyle.DISAGGREGATED:
        block_m, block_n, block_k = unit.tile_m, unit.tile_n, unit.tile_k
    else:
        block_m, block_n = 128, 64
        block_k = unit.tile_k
    block_m = min(block_m, workload.m)
    block_n = min(block_n, workload.n)
    block_k = min(block_k, workload.k)
    return ThreadBlockTiling(block_m=block_m, block_n=block_n, block_k=block_k, workload=workload)
