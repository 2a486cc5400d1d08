"""Common GEMM workload and result types shared by all design-specific kernels."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Tuple, TypeVar

from repro.config.soc import DataType, DesignConfig
from repro.perf import design_fingerprint, memoized
from repro.sim.stats import Counters

T = TypeVar("T")

#: Namespace of the steady-state iteration memo inside the timing cache.
ITERATION_NAMESPACE = "kernels.iteration"


def memoized_iteration(
    model: str, design: DesignConfig, shape: Tuple, compute: Callable[[], T]
) -> T:
    """One kernel model's steady-state iteration, computed once per shape.

    Many kernels share an iteration: a GEMM's M, N and K set only its trip
    counts, and every FlashAttention sequence length runs the same KV-tile
    iteration.  The entry is keyed by the ``model`` name, the design's
    content fingerprint and ``shape``, which must hold everything else the
    iteration reads (block dims, dtype, ...).  The value must be plain data
    (cycles, counts, per-iteration ``Counters``), never warp programs; it
    is shared, so callers scale it and never mutate it.
    """
    return memoized(
        ITERATION_NAMESPACE, lambda: (model, design_fingerprint(design), *shape), compute
    )


@dataclass(frozen=True)
class GemmWorkload:
    """A C = A x B GEMM problem (C is MxN, A is MxK, B is KxN)."""

    m: int
    n: int
    k: int
    dtype: DataType = DataType.FP16

    def __post_init__(self) -> None:
        if self.m <= 0 or self.n <= 0 or self.k <= 0:
            raise ValueError("GEMM dimensions must be positive")

    @property
    def macs(self) -> int:
        return self.m * self.n * self.k

    @property
    def flops(self) -> int:
        return 2 * self.macs

    @property
    def name(self) -> str:
        return f"{self.m}x{self.n}x{self.k}"

    @classmethod
    def square(cls, size: int, dtype: DataType = DataType.FP16) -> "GemmWorkload":
        return cls(m=size, n=size, k=size, dtype=dtype)


#: GEMM sizes evaluated in the paper (Table 3, Figure 8).
GEMM_SIZES = (256, 512, 1024)


@dataclass
class KernelResult:
    """Outcome of simulating one kernel on one design.

    ``phase_cycles`` holds the busy cycles per operation kind and
    ``schedule_stats`` the operation-graph size bookkeeping of the schedule
    executor: ``executed_operations`` (materialized),
    ``extrapolated_operations`` (covered by the closed form or steady-state
    compression) and their ``operation_count``.  Both are diagnostic and
    never serialized.
    """

    design: DesignConfig
    #: The GemmWorkload or FlashAttentionWorkload simulated.
    workload: Any
    total_cycles: int
    ideal_mac_cycles: float
    counters: Counters
    phase_cycles: Dict[str, int] = field(default_factory=dict)
    schedule_stats: Dict[str, int] = field(default_factory=dict)

    @property
    def mac_utilization(self) -> float:
        """MAC hardware utilization: ideal MAC cycles over achieved cycles."""
        if self.total_cycles <= 0:
            return 0.0
        return min(1.0, self.ideal_mac_cycles / self.total_cycles)

    @property
    def mac_utilization_percent(self) -> float:
        return 100.0 * self.mac_utilization


@dataclass
class GemmKernelResult(KernelResult):
    """Outcome of simulating one GEMM kernel on one design."""

    retired_instructions: int = 0
    iteration_cycles: int = 0
    #: Busy cycles per scheduler resource ("matrix"/"compute", "dma").
    resource_busy: Dict[str, int] = field(default_factory=dict)


def ideal_mac_cycles(design: DesignConfig, workload: GemmWorkload) -> float:
    """Cycles the SoC's MAC arrays would need at 100% utilization.

    Accounts for every cluster in the SoC, so multi-cluster configurations
    report utilization against their full aggregate throughput.
    """
    macs_per_cycle = design.soc.total_macs_per_cycle
    return workload.macs / float(macs_per_cycle)
