"""Virgo's cluster-level disaggregated matrix unit (the paper's contribution).

The subpackage contains the Gemmini-style systolic array (functional +
timing), its private accumulator memory, the MMIO command interface the SIMT
cores drive it through, the cluster-wide synchronizer, the cluster assembly,
and the ``virgo_*`` programming API of Section 4.3.
"""

from repro.core.systolic_array import SystolicArray
from repro.core.accumulator import AccumulatorMemory
from repro.core.mmio import MmioInterface, MmioRegister, CommandStatus
from repro.core.gemmini import GemminiMatrixUnit, MatrixOperation
from repro.core.synchronizer import ClusterSynchronizer, BarrierResult
from repro.core.cluster import VirgoCluster
from repro.core.api import VirgoContext, AsyncHandle

__all__ = [
    "SystolicArray",
    "AccumulatorMemory",
    "MmioInterface",
    "MmioRegister",
    "CommandStatus",
    "GemminiMatrixUnit",
    "MatrixOperation",
    "ClusterSynchronizer",
    "BarrierResult",
    "VirgoCluster",
    "VirgoContext",
    "AsyncHandle",
]
