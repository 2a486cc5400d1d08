"""Hardware configuration dataclasses for the evaluated GPU designs.

The values mirror Table 2 of the Virgo paper.  Every component model in the
package is parameterized by these dataclasses, so alternative design points
(more cores, different bank counts, larger systolic arrays) can be explored
by constructing a modified :class:`DesignConfig`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class DataType(enum.Enum):
    """Numeric data types supported by the matrix units."""

    FP16 = "fp16"
    FP32 = "fp32"

    @property
    def bytes(self) -> int:
        """Size of one element in bytes."""
        return 2 if self is DataType.FP16 else 4


class IntegrationStyle(enum.Enum):
    """How the matrix unit is integrated with the SIMT core (Section 2.5)."""

    TIGHTLY_COUPLED = "tightly_coupled"          # Volta-style
    TIGHTLY_COUPLED_DMA = "tightly_coupled_dma"  # Ampere-style
    OPERAND_DECOUPLED = "operand_decoupled"      # Hopper-style
    DISAGGREGATED = "disaggregated"              # Virgo


@dataclass(frozen=True)
class RegisterFileConfig:
    """Per-core register file, SIMT-privatized across warps."""

    int_bytes: int = 8 * 1024
    fp_bytes: int = 8 * 1024

    @property
    def total_bytes(self) -> int:
        return self.int_bytes + self.fp_bytes

    def bytes_per_warp(self, warps_per_core: int) -> int:
        """Register space privatized to one warp (used for tile sizing)."""
        if warps_per_core <= 0:
            raise ValueError("warps_per_core must be positive")
        return self.fp_bytes // warps_per_core


@dataclass(frozen=True)
class CacheConfig:
    """A cache's capacity (Table 2).

    No cache is simulated: the area model reads ``size_bytes``, its only
    field, which also feeds the design fingerprint.
    """

    size_bytes: int


@dataclass(frozen=True)
class DramConfig:
    """Off-chip main memory channel."""

    bandwidth_bytes_per_cycle: float = 32.0
    latency_cycles: int = 100
    #: HBM capacity available for resident KV-cache state.  The serving
    #: control plane (``repro.workloads.control``) bounds admission against
    #: this budget; the default is generous enough that it never binds on the
    #: trace zoo unless a tighter budget is passed explicitly.
    hbm_capacity_bytes: int = 8 * 1024 ** 3


@dataclass(frozen=True)
class SharedMemoryConfig:
    """Cluster-level shared memory with two-dimensional banking (Section 3.2.1)."""

    size_bytes: int = 128 * 1024
    banks: int = 4
    subbanks: int = 8
    word_bytes: int = 4
    access_latency: int = 2

    @property
    def bank_width_bytes(self) -> int:
        """Width of a single wide (matrix-unit) access to one bank."""
        return self.subbanks * self.word_bytes

    @property
    def peak_bytes_per_cycle(self) -> int:
        """Aggregate read bandwidth across all banks."""
        return self.banks * self.bank_width_bytes


@dataclass(frozen=True)
class DmaConfig:
    """Cluster DMA engine for global <-> shared memory transfers.

    Whether a design has one follows from its style
    (:attr:`DesignConfig.has_dma`).
    """

    bytes_per_cycle: float = 32.0
    program_latency: int = 20


@dataclass(frozen=True)
class MatrixUnitConfig:
    """Configuration of one matrix unit instance.

    For core-coupled designs (Volta/Ampere/Hopper style) one instance exists
    per SIMT core; for Virgo a single instance exists per cluster.
    """

    dtype: DataType = DataType.FP16
    macs_per_cycle: int = 32
    tile_m: int = 8
    tile_n: int = 8
    tile_k: int = 16
    # Systolic-array geometry; only meaningful for the disaggregated unit.
    systolic_rows: int = 16
    systolic_cols: int = 16
    accumulator_bytes: int = 32 * 1024
    operand_buffer_bytes: int = 2 * 1024
    # Timing of the instruction-driven units (Volta/Ampere): cycles per HMMA
    # step instruction.
    cycles_per_step: int = 2

    @property
    def hmma_steps_per_tile(self) -> int:
        """HMMA step instructions needed per tile operation (Volta/Ampere).

        Each step occupies the dot-product units for ``cycles_per_step``
        cycles at ``macs_per_cycle`` MACs/cycle, so the step count follows
        from the tile's total MAC count.
        """
        return max(1, -(-self.tile_macs // (self.macs_per_cycle * self.cycles_per_step)))

    @property
    def tile_macs(self) -> int:
        """MAC operations in one tile-granular operation."""
        return self.tile_m * self.tile_n * self.tile_k

    def tile_count(self, m: int, n: int, k: int) -> int:
        """Tile operations that cover an (m, n, k) GEMM, partial tiles included."""
        return -(-m // self.tile_m) * -(-n // self.tile_n) * -(-k // self.tile_k)

    @property
    def operand_bytes_per_tile(self) -> int:
        """Bytes of A and B operand data consumed by one tile operation."""
        elem = self.dtype.bytes
        return elem * (self.tile_m * self.tile_k + self.tile_k * self.tile_n)

    @property
    def accumulator_bytes_per_tile(self) -> int:
        """Bytes of accumulator (C) data produced by one tile operation.

        Accumulators are always kept at FP32 precision, matching both the
        Tensor Core and Gemmini behaviour.
        """
        return 4 * self.tile_m * self.tile_n


@dataclass(frozen=True)
class CoreConfig:
    """A Vortex-like SIMT core."""

    warps: int = 8
    lanes: int = 8
    register_file: RegisterFileConfig = field(default_factory=RegisterFileConfig)
    l1i: CacheConfig = field(default_factory=lambda: CacheConfig(size_bytes=16 * 1024))
    l1d: CacheConfig = field(default_factory=lambda: CacheConfig(size_bytes=16 * 1024))


@dataclass(frozen=True)
class ClusterConfig:
    """A SIMT core cluster (Streaming Multiprocessor / Compute Unit analogue)."""

    cores: int = 8
    core: CoreConfig = field(default_factory=CoreConfig)
    shared_memory: SharedMemoryConfig = field(default_factory=SharedMemoryConfig)
    dma: DmaConfig = field(default_factory=DmaConfig)
    matrix_unit: MatrixUnitConfig = field(default_factory=MatrixUnitConfig)
    # Number of matrix unit instances in the cluster.  For core-coupled
    # styles this equals ``cores``; for Virgo it is typically 1.
    matrix_units: int = 8

    @property
    def total_macs_per_cycle(self) -> int:
        return self.matrix_units * self.matrix_unit.macs_per_cycle


@dataclass(frozen=True)
class SoCConfig:
    """Whole-SoC configuration: clusters, L2 and DRAM."""

    clusters: int = 1
    cluster: ClusterConfig = field(default_factory=ClusterConfig)
    l2: CacheConfig = field(default_factory=lambda: CacheConfig(size_bytes=512 * 1024))
    dram: DramConfig = field(default_factory=DramConfig)
    clock_mhz: float = 400.0

    @property
    def total_macs_per_cycle(self) -> int:
        return self.clusters * self.cluster.total_macs_per_cycle


@dataclass(frozen=True)
class DesignConfig:
    """A named design point: an SoC configuration plus its integration style."""

    name: str
    style: IntegrationStyle
    soc: SoCConfig

    def __hash__(self) -> int:
        """The generated field-tuple hash, computed once and pinned.

        Timing-cache keys hash the design on every kernel lookup, and the
        generated hash walks the whole nested config tree each time.  The
        instance is frozen, so the pinned value is the generated one.
        """
        cached = self.__dict__.get("_design_hash")
        if cached is None:
            cached = hash((self.name, self.style, self.soc))
            object.__setattr__(self, "_design_hash", cached)
        return cached

    def __setstate__(self, state: dict) -> None:
        # Unpickle without the pin: string hashes differ between processes
        # (``PYTHONHASHSEED``), so a pin written by another process is wrong.
        self.__dict__.update(state)
        self.__dict__.pop("_design_hash", None)

    @property
    def cluster(self) -> ClusterConfig:
        return self.soc.cluster

    @property
    def matrix_unit(self) -> MatrixUnitConfig:
        return self.soc.cluster.matrix_unit

    @property
    def has_dma(self) -> bool:
        return self.style is not IntegrationStyle.TIGHTLY_COUPLED

    def validate(self) -> None:
        """Raise ``ValueError`` for internally inconsistent configurations."""
        cluster = self.soc.cluster
        if cluster.cores <= 0:
            raise ValueError("cluster must have at least one core")
        if cluster.matrix_units <= 0:
            raise ValueError("cluster must have at least one matrix unit")
        if self.style is IntegrationStyle.DISAGGREGATED:
            if cluster.matrix_unit.systolic_rows <= 0 or cluster.matrix_unit.systolic_cols <= 0:
                raise ValueError("disaggregated unit requires a systolic array geometry")
        else:
            if cluster.matrix_units != cluster.cores:
                raise ValueError(
                    "core-coupled designs must have one matrix unit per core "
                    f"(got {cluster.matrix_units} units for {cluster.cores} cores)"
                )
