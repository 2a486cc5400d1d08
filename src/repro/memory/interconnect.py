"""Cluster-local shared-memory interconnect (Figure 3).

The interconnect arbitrates between the narrow per-lane SIMT requests and the
wide matrix-unit requests arriving at the shared-memory banks each cycle.  It
models two of the paper's three design choices:

* **Unified request sizes** -- wide requests are split into word-sized
  sub-requests distributed across the subbanks of one bank and served in a
  single cycle; when SIMT and matrix requests hit the same bank in the same
  round, the wider matrix request wins (so the matrix unit runs at full
  throughput) and the SIMT request retries next round.
* **Separate read and write paths** -- reads and writes to different banks do
  not conflict, supporting producer/consumer double buffering.

The third, the paper's **unaligned SIMT filter** that serializes unaligned
lanes through one port before the crossbar, is not modelled:
:meth:`SharedMemoryInterconnect.arbitrate` rounds each lane's address down
to its word, so lanes at bytes 1, 5, 9, 13 arbitrate exactly as lanes at 0,
4, 8, 12 do.  Modelling the filter belongs with wiring this module into the
kernels' timing (the fidelity item in ``ROADMAP.md``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.memory.shared_memory import BankedSharedMemory


@dataclass
class RequestBundle:
    """Requests presented to the interconnect in one arbitration round."""

    #: Per-lane byte addresses of narrow (4 B) SIMT requests.
    simt_read_addresses: Sequence[int] = field(default_factory=tuple)
    simt_write_addresses: Sequence[int] = field(default_factory=tuple)
    #: (address, nbytes) wide requests from matrix units.
    matrix_reads: Sequence[Tuple[int, int]] = field(default_factory=tuple)
    matrix_writes: Sequence[Tuple[int, int]] = field(default_factory=tuple)

    @property
    def empty(self) -> bool:
        return not (
            self.simt_read_addresses
            or self.simt_write_addresses
            or self.matrix_reads
            or self.matrix_writes
        )


@dataclass
class ArbitrationResult:
    """Outcome of arbitrating one bundle."""

    cycles: int
    matrix_requests_served: int
    simt_words_served: int
    simt_retries: int


class SharedMemoryInterconnect:
    """Arbitration model between SIMT lanes and matrix units at the banks."""

    def __init__(self, shared_memory: BankedSharedMemory) -> None:
        self.shared_memory = shared_memory
        self.total_rounds = 0
        self.total_retries = 0

    def _bank_of_wide(self, address: int) -> int:
        bank, _ = self.shared_memory.bank_and_subbank(address)
        return bank

    def arbitrate(self, bundle: RequestBundle) -> ArbitrationResult:
        """Serve one round of requests and report the cycles it takes.

        Matrix requests claim their banks first; SIMT lanes whose bank is
        claimed by a matrix request of the same direction retry in follow-up
        cycles.  Reads and writes use separate paths and therefore separate
        bank-claim sets.
        """
        if bundle.empty:
            return ArbitrationResult(0, 0, 0, 0)
        config = self.shared_memory.config
        cycles = config.access_latency
        matrix_served = 0

        claimed: Dict[str, set] = {"read": set(), "write": set()}
        for direction, requests in (("read", bundle.matrix_reads), ("write", bundle.matrix_writes)):
            for address, nbytes in requests:
                bank = self._bank_of_wide(address)
                words = -(-nbytes // config.word_bytes)
                bank_cycles = -(-words // config.subbanks)
                cycles = max(cycles, config.access_latency + bank_cycles - 1)
                claimed[direction].add(bank)
                matrix_served += 1
                self.shared_memory.record_bulk(nbytes, direction == "write", requester="matrix")

        simt_words = 0
        retries = 0
        for direction, addresses in (
            ("read", bundle.simt_read_addresses),
            ("write", bundle.simt_write_addresses),
        ):
            per_subbank: Dict[Tuple[int, int], int] = {}
            for address in addresses:
                aligned = (address // config.word_bytes) * config.word_bytes
                bank, subbank = self.shared_memory.bank_and_subbank(aligned)
                if bank in claimed[direction]:
                    retries += 1
                    continue
                per_subbank[(bank, subbank)] = per_subbank.get((bank, subbank), 0) + 1
                simt_words += 1
            if per_subbank:
                conflict_serialization = max(per_subbank.values()) - 1
                cycles = max(cycles, config.access_latency + conflict_serialization)
                self.shared_memory.record_bulk(
                    simt_words * config.word_bytes, direction == "write", requester="core"
                )
        # Retried lanes are served in extra back-to-back rounds.
        if retries:
            extra_rounds = -(-retries // max(1, config.subbanks))
            cycles += extra_rounds

        self.total_rounds += 1
        self.total_retries += retries
        return ArbitrationResult(
            cycles=cycles,
            matrix_requests_served=matrix_served,
            simt_words_served=simt_words,
            simt_retries=retries,
        )

    def concurrent_stream_cycles(
        self,
        matrix_bytes: int,
        simt_bytes: int,
        duration_hint: int,
    ) -> int:
        """Cycles for sustained concurrent matrix and SIMT streaming.

        Used by the kernel schedulers to inflate phase durations when the
        matrix unit and the cores stream from the shared memory at the same
        time.  With enough banks (double buffering places producer and
        consumer tiles in different banks) there is no interference; when the
        aggregate demand exceeds the peak bandwidth the phase stretches.
        """
        config = self.shared_memory.config
        peak = config.peak_bytes_per_cycle
        demand_per_cycle = (matrix_bytes + simt_bytes) / max(1, duration_hint)
        if demand_per_cycle <= peak:
            return duration_hint
        return int(duration_hint * demand_per_cycle / peak)
