"""Virgo's low-level programming API (Section 4.3).

The API mirrors the paper's kernel interface:

* ``virgo_dma_load`` / ``virgo_dma_store`` -- asynchronous DMA tile copies
  between global memory, shared memory and the accumulator memory;
* ``virgo_compute`` -- asynchronously kick off a matrix multiply-accumulate
  on the cluster matrix unit, reading tiles from shared memory;
* ``virgo_fence`` -- block the calling warp until the selected outstanding
  asynchronous operations complete (modelled as MMIO busy polling);
* ``threadblock_barrier`` -- the cluster-wide synchronizer barrier.

The :class:`VirgoContext` executes operations *functionally* (numpy tiles in
named global/shared buffers) and *temporally* (each asynchronous operation is
scheduled on its hardware resource, so the context tracks the cycle at which
the issuing warp, the DMA engine and each matrix unit are next free).  This
dual role lets the same kernel code verify numerics and produce the cycle
and energy statistics the evaluation needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.config.soc import DesignConfig
from repro.core.cluster import VirgoCluster
from repro.memory.dma import DmaDirection
from repro.sim.resources import Resource
from repro.sim.stats import Counters


@dataclass
class AsyncHandle:
    """Tracks one outstanding asynchronous operation."""

    kind: str
    start_cycle: int
    end_cycle: int
    description: str = ""

    @property
    def duration(self) -> int:
        return self.end_cycle - self.start_cycle


@dataclass
class _Buffer:
    data: np.ndarray
    location: str  # "global", "shared", "accumulator"


class VirgoContext:
    """Functional + timing execution context for Virgo kernels."""

    def __init__(self, design: Optional[DesignConfig] = None, cluster: Optional[VirgoCluster] = None) -> None:
        if cluster is None:
            if design is None:
                from repro.config.presets import virgo as virgo_preset

                design = virgo_preset()
            cluster = VirgoCluster(design)
        self.cluster = cluster
        self.design = cluster.design
        self.counters = Counters()
        self.now = 0
        self._buffers: Dict[str, _Buffer] = {}
        self._pending: List[AsyncHandle] = []
        self._dma_resource = Resource("dma")
        self._matrix_resources = {
            name: Resource(f"matrix.{name}") for name in cluster.matrix_units
        }
        self.fence_poll_cycles = 0
        self.fence_count = 0

    # ------------------------------------------------------------------ #
    # Buffer management (functional state)
    # ------------------------------------------------------------------ #

    def global_store(self, name: str, data: np.ndarray) -> None:
        """Place a matrix in global memory."""
        self._buffers[name] = _Buffer(data=np.array(data), location="global")

    def global_load(self, name: str) -> np.ndarray:
        buffer = self._get(name)
        return buffer.data.copy()

    def shared_alloc(self, name: str, shape, dtype=np.float16) -> None:
        """Allocate a shared-memory tile buffer."""
        total_bytes = int(np.prod(shape)) * np.dtype(dtype).itemsize
        if total_bytes > self.design.cluster.shared_memory.size_bytes:
            raise ValueError(
                f"tile {name!r} of {total_bytes} B exceeds the "
                f"{self.design.cluster.shared_memory.size_bytes} B shared memory"
            )
        self._buffers[name] = _Buffer(data=np.zeros(shape, dtype=dtype), location="shared")

    def shared_view(self, name: str) -> np.ndarray:
        buffer = self._get(name)
        if buffer.location != "shared":
            raise ValueError(f"{name!r} is not a shared-memory buffer")
        return buffer.data

    def _get(self, name: str) -> _Buffer:
        if name not in self._buffers:
            raise KeyError(f"unknown buffer {name!r}")
        return self._buffers[name]

    # ------------------------------------------------------------------ #
    # Asynchronous operations
    # ------------------------------------------------------------------ #

    def virgo_dma_load(
        self,
        src: str,
        dst: str,
        row: int = 0,
        col: int = 0,
        rows: Optional[int] = None,
        cols: Optional[int] = None,
    ) -> AsyncHandle:
        """Asynchronously copy a tile of global buffer ``src`` into shared ``dst``."""
        source = self._get(src)
        dest = self._get(dst)
        if source.location != "global" or dest.location != "shared":
            raise ValueError("virgo_dma_load copies from a global buffer to a shared buffer")
        rows = rows if rows is not None else dest.data.shape[0]
        cols = cols if cols is not None else dest.data.shape[1]
        tile = source.data[row : row + rows, col : col + cols]
        dest.data[:rows, :cols] = tile.astype(dest.data.dtype)

        nbytes = rows * cols * dest.data.dtype.itemsize
        transfer = self.cluster.dma.execute(DmaDirection.GLOBAL_TO_SHARED, nbytes, self.counters)
        return self._issue_async("dma", self._dma_resource, transfer.cycles, f"load {src}->{dst}")

    def virgo_dma_store(
        self,
        src: str,
        dst: str,
        row: int = 0,
        col: int = 0,
    ) -> AsyncHandle:
        """Asynchronously copy a shared or accumulator tile back to global memory."""
        source = self._get(src)
        dest = self._get(dst)
        if dest.location != "global":
            raise ValueError("virgo_dma_store writes to a global buffer")
        tile = source.data
        rows, cols = tile.shape
        dest.data[row : row + rows, col : col + cols] = tile.astype(dest.data.dtype)

        nbytes = rows * cols * 4
        direction = (
            DmaDirection.ACCUM_TO_GLOBAL
            if source.location == "accumulator"
            else DmaDirection.SHARED_TO_GLOBAL
        )
        transfer = self.cluster.dma.execute(direction, nbytes, self.counters)
        return self._issue_async("dma", self._dma_resource, transfer.cycles, f"store {src}->{dst}")

    def virgo_compute(
        self,
        a: str,
        b: str,
        dst: str,
        accumulate: bool = True,
        unit: str = "mu0",
    ) -> AsyncHandle:
        """Asynchronously run ``dst (+)= a @ b`` on the cluster matrix unit.

        ``a`` and ``b`` name shared-memory tiles; ``dst`` names an
        accumulator-memory tile which is created on first use.
        """
        a_tile = self.shared_view(a)
        b_tile = self.shared_view(b)
        matrix_unit = self.cluster.matrix_unit(unit)

        result = matrix_unit.compute_into(dst, a_tile, b_tile, accumulate, counters=self.counters)
        self._buffers[dst] = _Buffer(data=result, location="accumulator")

        # Programming the unit costs a few MMIO stores from the issuing warp.
        mmio = self.cluster.mmio[unit]
        for _ in range(6):
            mmio.store(mmio.base_address, 1)
        self.counters.add("core.issue.instructions", 6)
        self.counters.add("core.lsu.requests", 6)

        timing = matrix_unit.operation_timing(a_tile.shape[0], b_tile.shape[1], a_tile.shape[1])
        return self._issue_async(
            "matrix", self._matrix_resources[unit], timing.total_cycles, f"compute {dst}"
        )

    def _issue_async(
        self, kind: str, resource: Resource, duration: int, description: str
    ) -> AsyncHandle:
        start, end = resource.reserve(self.now, duration)
        handle = AsyncHandle(kind=kind, start_cycle=start, end_cycle=end, description=description)
        self._pending.append(handle)
        # Issuing an asynchronous command costs the warp a couple of cycles.
        self.now += 2
        return handle

    # ------------------------------------------------------------------ #
    # Synchronization
    # ------------------------------------------------------------------ #

    def virgo_fence(self, most_recent: int = 0) -> int:
        """Block until outstanding asynchronous operations complete.

        ``most_recent=0`` waits for all pending operations (matching the
        paper's ``virgo_fence(0)``); ``most_recent=n`` waits only for the n
        most recently issued operations.  Returns the number of cycles the
        warp spent polling.
        """
        if not self._pending:
            return 0
        if most_recent <= 0:
            targets = list(self._pending)
        else:
            targets = self._pending[-most_recent:]
        finish = max(handle.end_cycle for handle in targets)
        waited = max(0, finish - self.now)
        if waited:
            polls = self.cluster.mmio["mu0"].poll_until_done(waited)
            self.counters.add("core.issue.instructions", polls)
        self.fence_poll_cycles += waited
        self.fence_count += 1
        self.now = max(self.now, finish)
        self._pending = [handle for handle in self._pending if handle.end_cycle > self.now]
        return waited

    def threadblock_barrier(self, barrier_id: int = 0) -> None:
        """Cluster-wide barrier across all cores (Section 3.3)."""
        synchronizer = self.cluster.synchronizer
        result = None
        for core_id in range(self.cluster.design.cluster.cores):
            result = synchronizer.arrive(barrier_id + self._barrier_epoch(), core_id, self.now)
        if result is not None:
            self.now = max(self.now, result.release_cycle)
        self.counters.add("core.issue.instructions", self.cluster.design.cluster.cores)

    def _barrier_epoch(self) -> int:
        return 1000 * len(self.cluster.synchronizer.completed)

    # ------------------------------------------------------------------ #
    # SIMT-side compute (post-processing on the cores)
    # ------------------------------------------------------------------ #

    def simt_elementwise(self, name: str, func, flops_per_element: int = 1) -> AsyncHandle:
        """Run an element-wise SIMT computation over a shared/accumulator tile.

        ``func`` is applied functionally; the duration models the cluster's
        SIMD FPU throughput across all cores.
        """
        buffer = self._get(name)
        buffer.data = func(buffer.data).astype(buffer.data.dtype)
        elements = buffer.data.size
        cluster = self.design.cluster
        flops = elements * flops_per_element
        throughput = cluster.cores * cluster.core.lanes  # FP ops per cycle
        duration = max(1, int(flops / throughput))
        # Events are whole: a partly used FLOP or instruction counts as one.
        self.counters.add("core.fpu.ops", math.ceil(flops))
        self.counters.add("core.issue.instructions", math.ceil(flops / cluster.core.lanes))
        handle = AsyncHandle(
            kind="simt", start_cycle=self.now, end_cycle=self.now + duration, description=name
        )
        self.now += duration
        return handle

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #

    def elapsed_cycles(self) -> int:
        return self.now

    def gather_counters(self) -> Counters:
        merged = self.cluster.gather_counters()
        merged.merge(self.counters)
        return merged
