"""Cluster shared memory with two-dimensional banking (Section 3.2.1).

The shared memory is partitioned into ``banks`` x ``subbanks`` word-wide SRAM
macros.  Word addresses interleave across subbanks first, then across banks:
a wide matrix-unit access of ``subbanks * 4`` bytes lands on all subbanks of
one bank in a single cycle, while the narrow 4-byte accesses of SIMT lanes
spread across subbanks.  Wide requests are prioritized when both arrive at
the same bank (Section 3.2.1, "unified request sizes").

The model holds no data: the functional kernels keep theirs in numpy arrays.
It maps addresses to banks (for the interconnect's arbitration), times bulk
streams (for the DMA engine) and counts word accesses per requester for the
energy model.
"""

from __future__ import annotations

from typing import Tuple

from repro.config.soc import SharedMemoryConfig
from repro.sim.stats import Counters


class BankConflictError(Exception):
    """Raised when an address falls outside the shared memory."""


class BankedSharedMemory:
    """Address-mapping and timing model of the banked cluster shared memory."""

    def __init__(self, config: SharedMemoryConfig) -> None:
        self.config = config
        self.counters = Counters()

    # ------------------------------------------------------------------ #
    # Address mapping
    # ------------------------------------------------------------------ #

    @property
    def num_words(self) -> int:
        return self.config.size_bytes // self.config.word_bytes

    def _check(self, address: int) -> None:
        if address < 0 or address + self.config.word_bytes > self.config.size_bytes:
            raise BankConflictError(
                f"address {address:#x} outside shared memory of {self.config.size_bytes} bytes"
            )

    def bank_and_subbank(self, address: int) -> Tuple[int, int]:
        """Map a byte address to its (bank, subbank) pair.

        Consecutive words interleave across the subbanks of one bank; the
        bank changes every ``bank_size`` bytes (matching Figure 3, where bank
        1 starts at 0x08000 for a 128 KiB / 4-bank configuration).
        """
        self._check(address)
        word = address // self.config.word_bytes
        words_per_bank = self.num_words // self.config.banks
        bank = word // words_per_bank
        subbank = word % self.config.subbanks
        return bank, subbank

    # ------------------------------------------------------------------ #
    # Timing
    # ------------------------------------------------------------------ #

    def streaming_cycles(self, nbytes: int, ports: int = 1) -> int:
        """Cycles to stream ``nbytes`` using ``ports`` banks concurrently."""
        if nbytes < 0:
            raise ValueError("size must be non-negative")
        if nbytes == 0:
            return 0
        ports = max(1, min(ports, self.config.banks))
        bytes_per_cycle = ports * self.config.bank_width_bytes
        return max(1, int(-(-nbytes // bytes_per_cycle)))

    # ------------------------------------------------------------------ #
    # Energy accounting
    # ------------------------------------------------------------------ #

    def record_bulk(self, nbytes: int, is_write: bool, requester: str) -> None:
        """Account a bulk transfer (DMA or matrix-unit streaming) without timing."""
        words = -(-nbytes // self.config.word_bytes)
        direction = "write" if is_write else "read"
        self.counters.add(f"smem.{requester}.{direction}_words", words)
        self.counters.add("smem.total_words", words)

    def reset(self) -> None:
        self.counters = Counters()
