#!/usr/bin/env python3
"""Programming Virgo with the low-level virgo_* API (Section 4.3, Listing 1).

The example writes a small K-blocked GEMM the way a Virgo kernel would:
asynchronous DMA loads double-buffered in shared memory, asynchronous matrix
operations accumulating in the unit's accumulator memory, fences and
cluster-wide barriers for ordering -- then verifies the result against numpy
and reports the cycle/energy accounting the context collected.

Run with:  python examples/virgo_programming_api.py
"""

from __future__ import annotations

import json

import numpy as np

from repro.config.presets import virgo
from repro.core.api import VirgoContext
from repro.energy.model import EnergyTable
from repro.energy.power import make_power_report


def main() -> None:
    rng = np.random.default_rng(11)
    m, n, k = 128, 64, 512
    block_k = 128

    a = rng.standard_normal((m, k)).astype(np.float16)
    b = rng.standard_normal((k, n)).astype(np.float16)
    c = np.zeros((m, n), dtype=np.float32)

    design = virgo()
    context = VirgoContext(design=design)
    context.global_store("A", a)
    context.global_store("B", b)
    context.global_store("C", c)
    # Double-buffered shared-memory tiles (producer/consumer halves).
    for half in (0, 1):
        context.shared_alloc(f"smem_A{half}", (m, block_k))
        context.shared_alloc(f"smem_B{half}", (block_k, n))

    # Prologue: load the first K tile.
    context.virgo_dma_load("A", "smem_A0", col=0, rows=m, cols=block_k)
    context.virgo_dma_load("B", "smem_B0", row=0, rows=block_k, cols=n)
    context.virgo_fence()

    for iteration in range(k // block_k):
        consume, produce = iteration % 2, (iteration + 1) % 2
        # Kick off the asynchronous matrix operation on the consumed buffers.
        context.virgo_compute(
            f"smem_A{consume}", f"smem_B{consume}", "acc", accumulate=iteration > 0
        )
        # Overlap: prefetch the next K tile into the other buffer half.
        if iteration + 1 < k // block_k:
            offset = (iteration + 1) * block_k
            context.virgo_dma_load("A", f"smem_A{produce}", col=offset, rows=m, cols=block_k)
            context.virgo_dma_load("B", f"smem_B{produce}", row=offset, rows=block_k, cols=n)
        context.virgo_fence()
        context.threadblock_barrier()

    # The store is asynchronous too: fence it, so the clock runs to the end
    # of the accumulator drain.
    context.virgo_dma_store("acc", "C")
    context.virgo_fence()

    expected = a.astype(np.float32) @ b.astype(np.float32)
    error = np.abs(context.global_load("C") - expected).max()
    counters = context.gather_counters()
    report = make_power_report(
        design.name,
        counters,
        EnergyTable.for_design(design.style),
        context.elapsed_cycles(),
        design.soc,
    )

    print("== virgo_* API GEMM (128x64x512, K blocked by 128) ==")
    print(f"  max |error| vs numpy reference: {error:.3e}")
    print(f"  simulated cycles:               {context.elapsed_cycles():,}")
    print(f"  fence polling cycles:           {context.fence_poll_cycles:,} "
          f"across {context.fence_count} fences")
    print(f"  active energy estimate:         {report.total_energy_uj:.2f} uJ")
    print(f"  shared-memory words touched:    {int(counters['smem.total_words']):,}")
    print("\n  power report (canonical to_dict() encoding):")
    print(json.dumps(report.to_dict(), indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
