"""Off-chip DRAM channel model.

A single bandwidth-limited channel with a fixed access latency.  The GEMM and
FlashAttention kernels use it (behind the L2) to bound how fast operand tiles
can stream on chip; the energy model charges per-byte access energy.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config.soc import DramConfig


@dataclass
class DramChannel:
    """Bandwidth/latency model of the main-memory channel."""

    config: DramConfig

    def transfer_cycles(self, nbytes: int, include_latency: bool = True) -> int:
        """Cycles to move ``nbytes`` across the channel.

        The fixed access latency is charged once per transfer (it pipelines
        with the streaming portion of large transfers on real hardware, so
        only bulk transfers should set ``include_latency``).
        """
        if nbytes < 0:
            raise ValueError("transfer size must be non-negative")
        if nbytes == 0:
            return 0
        streaming = int(-(-nbytes // self.config.bandwidth_bytes_per_cycle))
        latency = self.config.latency_cycles if include_latency else 0
        return latency + streaming

    @property
    def peak_bytes_per_cycle(self) -> float:
        return self.config.bandwidth_bytes_per_cycle
