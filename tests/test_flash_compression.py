"""Flash-attention steady-state compression must be bit-identical to full expansion.

Mirror of ``tests/test_schedule_compression.py`` for the fused attention
kernels: the (Q tile, KV tile) software pipeline now schedules through
``repro.kernels.gemm.schedule_loops.execute_flash_loop``, which either
materializes every pipe/sync/prologue/epilogue operation on the taskgraph
(``full_expansion=True``) or executes warm-up plus one steady-state period
on the max-plus engine and extrapolates the rest.  The compressed path is
the default and must agree with the expanded oracle exactly -- cycles,
per-phase cycles and the serialized ``to_dict()`` encoding -- across both
evaluated designs, including the golden configuration pinned under
``tests/goldens/``.
"""

import json

import pytest

from differential import assert_byte_identical

from repro.config.presets import DesignKind
from repro.kernels.flash_attention import (
    FlashAttentionWorkload,
    simulate_flash_attention,
)
from repro.kernels.gemm.schedule_loops import (
    FlashLoopSpec,
    FlashPipe,
    execute_flash_loop,
)
from repro.runner import run_flash_attention

FLASH_DESIGNS = [DesignKind.VIRGO, DesignKind.AMPERE]

#: The golden config (the paper's seq 1024 / head dim 64 default) plus the
#: corners: short sequences below one Q tile, non-divisible tile edges,
#: multi-head batches and the long-sequence regime compression targets.
WORKLOADS = [
    FlashAttentionWorkload(),  # tests/goldens/flash_virgo_default.json
    FlashAttentionWorkload(seq_len=32),
    FlashAttentionWorkload(seq_len=192, block_q=64, block_kv=64),
    FlashAttentionWorkload(seq_len=512, head_dim=128),
    FlashAttentionWorkload(seq_len=1000, block_q=96, block_kv=80),
    FlashAttentionWorkload(seq_len=2048, heads=8),
    FlashAttentionWorkload(seq_len=8192),
]


def _workload_id(workload: FlashAttentionWorkload) -> str:
    return f"s{workload.seq_len}d{workload.head_dim}h{workload.heads}"


class TestCompressedEqualsExpanded:
    @pytest.mark.parametrize("design", FLASH_DESIGNS, ids=lambda kind: kind.value)
    @pytest.mark.parametrize("workload", WORKLOADS, ids=_workload_id)
    def test_bit_identical_results(self, design, workload):
        compressed = simulate_flash_attention(design, workload)
        expanded = simulate_flash_attention(design, workload, full_expansion=True)
        assert compressed.total_cycles == expanded.total_cycles
        assert compressed.phase_cycles == expanded.phase_cycles
        assert compressed.ideal_mac_cycles == expanded.ideal_mac_cycles
        assert compressed.counters.as_dict() == expanded.counters.as_dict()
        # Same coverage, different materialization.
        assert (
            compressed.schedule_stats["operation_count"]
            == expanded.schedule_stats["operation_count"]
        )
        assert expanded.schedule_stats["extrapolated_operations"] == 0

    @pytest.mark.parametrize("design", FLASH_DESIGNS, ids=lambda kind: kind.value)
    def test_golden_config_to_dict_byte_identical(self, design):
        """The serialized encoding of the golden config must not depend on
        which scheduling path produced it."""
        workload = FlashAttentionWorkload()
        compressed = run_flash_attention(design, workload).to_dict()
        expanded_kernel = simulate_flash_attention(
            design, workload, full_expansion=True
        )
        # Rebuild the run encoding around the expanded kernel result.
        assert compressed["total_cycles"] == expanded_kernel.total_cycles
        assert compressed["mac_utilization_percent"] == pytest.approx(
            expanded_kernel.mac_utilization_percent
        )
        assert_byte_identical(
            compressed,
            run_flash_attention(design, workload),
            context="flash run encoding stability",
        )


class TestConstantOperationGraph:
    """The default path must stay O(1) in ``heads x q_tiles x kv_tiles``."""

    @pytest.mark.parametrize("design", FLASH_DESIGNS, ids=lambda kind: kind.value)
    def test_executed_operations_independent_of_sequence_length(self, design):
        small = simulate_flash_attention(design, FlashAttentionWorkload(seq_len=1024))
        large = simulate_flash_attention(design, FlashAttentionWorkload(seq_len=16384))
        assert (
            small.schedule_stats["executed_operations"]
            == large.schedule_stats["executed_operations"]
        )
        assert small.schedule_stats["executed_operations"] < 100
        assert large.schedule_stats["operation_count"] > 100_000
        assert (
            large.schedule_stats["extrapolated_operations"]
            > small.schedule_stats["extrapolated_operations"]
        )


class TestFlashLoopSpec:
    def test_rejects_duplicate_pipe_kinds(self):
        with pytest.raises(ValueError, match="distinct"):
            FlashLoopSpec(
                iterations=4,
                pipes=(
                    FlashPipe(kind="matrix", resource="matrix", cycles=10),
                    FlashPipe(kind="matrix", resource="simt", cycles=5),
                ),
            )

    def test_rejects_empty_pipes(self):
        with pytest.raises(ValueError, match="at least one pipe"):
            FlashLoopSpec(iterations=4, pipes=())

    def test_slowest_pipe_paces_the_loop(self):
        spec = FlashLoopSpec(
            iterations=100,
            pipes=(
                FlashPipe(kind="matrix", resource="matrix", cycles=70),
                FlashPipe(kind="softmax", resource="simt", cycles=30),
            ),
            sync_cycles=5,
            prologue_cycles=11,
            epilogue_cycles=3,
            epilogue_count=4,
        )
        compressed = execute_flash_loop(spec)
        expanded = execute_flash_loop(spec, full_expansion=True)
        assert compressed.total_cycles == expanded.total_cycles
        assert compressed.total_cycles == 11 + 100 * (70 + 5) + 4 * 3
        assert compressed.kind_cycles == expanded.kind_cycles
        assert compressed.resource_busy == expanded.resource_busy
        assert compressed.executed_operations < expanded.executed_operations

    def test_prologue_and_stores_occupy_dma_and_sync_its_own(self):
        pipes = (
            FlashPipe(kind="matrix", resource="matrix", cycles=70),
            FlashPipe(kind="softmax", resource="simt", cycles=30),
        )
        spec = FlashLoopSpec(
            iterations=100,
            pipes=pipes,
            sync_cycles=5,
            prologue_cycles=11,
            epilogue_cycles=3,
            epilogue_count=4,
        )
        assert spec.resources() == ("matrix", "simt", "sync", "dma")
        for full_expansion in (False, True):
            busy = execute_flash_loop(spec, full_expansion=full_expansion).resource_busy
            assert busy == {"matrix": 7000, "simt": 3000, "sync": 500, "dma": 11 + 4 * 3}
        stores_only = FlashLoopSpec(
            iterations=10, pipes=pipes[:1], sync_cycles=5, epilogue_cycles=3, epilogue_count=2
        )
        assert stores_only.resources() == ("matrix", "sync", "dma")
        no_dma = FlashLoopSpec(iterations=10, pipes=pipes[:1], sync_cycles=5)
        assert no_dma.resources() == ("matrix", "sync")
