"""Masked-attention exactness: differential harness and mask-count oracle.

The timing model claims masked attention work is *exact* -- no 0.5
approximation anywhere in the attention path.  This suite proves it from
two independent directions:

* a **brute-force numpy oracle** builds the actual boolean mask (causal,
  causal-with-history, sliding-window, block-diagonal varlen), counts
  surviving elements and visited tiles, and checks the closed-form integer
  arithmetic in :mod:`repro.kernels.masking` against it, element for
  element, across a hypothesis-drawn shape space;
* a **schedule differential** runs every masked shape through both flash
  executors -- steady-state compressed vs ``full_expansion=True`` -- on
  both mappings (Virgo, Ampere-style) and across tile configurations, and
  requires byte-identical results, plus a compression-ratio guard so the
  masked path keeps the O(#segments) cost contract.

The oracle here is deliberately an independent implementation (dense
numpy, no shared helpers) so a bug in the closed forms cannot hide in a
shared formula.
"""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config.presets import DesignKind
from repro.kernels.flash_attention import (
    FlashAttentionWorkload,
    simulate_flash_attention,
)
from repro.kernels.gemm.schedule_loops import (
    FlashLoopSpec,
    FlashPipe,
    FlashSegment,
    execute_flash_loop,
)
from repro.kernels.masking import (
    allowed_keys,
    masked_elements,
    masked_elements_varlen,
    tile_trips,
    tile_trips_varlen,
    trip_segments,
)
from repro.workloads import TensorShape, build_model, lower_graph, run_model
from repro.workloads.graph import AttentionLayer
from repro.workloads.models import MODEL_ZOO


# --------------------------------------------------------------------------- #
# Brute-force numpy oracle (independent of repro.kernels.masking)
# --------------------------------------------------------------------------- #


def oracle_mask(seq: int, kv: int, window: int = 0) -> np.ndarray:
    """Dense boolean mask: row i sees keys 0..(kv-seq)+i, windowed."""
    rows = np.arange(seq)[:, None]
    cols = np.arange(kv)[None, :]
    hi = (kv - seq) + rows  # last allowed key, inclusive
    mask = cols <= hi
    if window:
        mask &= cols > hi - window
    return mask


def oracle_mask_varlen(seq_lens, window: int = 0) -> np.ndarray:
    total = sum(seq_lens)
    mask = np.zeros((total, total), dtype=bool)
    offset = 0
    for length in seq_lens:
        mask[offset : offset + length, offset : offset + length] = oracle_mask(
            length, length, window
        )
        offset += length
    return mask


def oracle_trips(mask: np.ndarray, block_q: int, block_kv: int):
    """Visited-KV-tile count per Q tile: contiguous span of non-empty tiles."""
    seq = mask.shape[0]
    trips = []
    for q_start in range(0, seq, block_q):
        columns = np.flatnonzero(mask[q_start : q_start + block_q].any(axis=0))
        trips.append(columns[-1] // block_kv - columns[0] // block_kv + 1)
    return trips


def oracle_trips_varlen(seq_lens, block_q: int, block_kv: int, window: int = 0):
    trips = []
    for length in seq_lens:
        trips.extend(oracle_trips(oracle_mask(length, length, window), block_q, block_kv))
    return trips


# --------------------------------------------------------------------------- #
# Closed forms vs the oracle
# --------------------------------------------------------------------------- #


class TestMaskCountsMatchOracle:
    @given(
        seq=st.integers(1, 96),
        kv_extra=st.integers(0, 80),
        window=st.integers(0, 120),
    )
    @settings(max_examples=150, deadline=None)
    def test_masked_elements(self, seq, kv_extra, window):
        kv = seq + kv_extra
        assert masked_elements(seq, kv, window) == int(
            oracle_mask(seq, kv, window).sum()
        )

    @given(
        seq=st.integers(1, 96),
        kv_extra=st.integers(0, 80),
        block_q=st.integers(1, 48),
        block_kv=st.integers(1, 48),
        window=st.integers(0, 120),
    )
    @settings(max_examples=150, deadline=None)
    def test_tile_trips(self, seq, kv_extra, block_q, block_kv, window):
        kv = seq + kv_extra
        trips = tile_trips(seq, kv, block_q, block_kv, window)
        assert trips == oracle_trips(oracle_mask(seq, kv, window), block_q, block_kv)
        # The RLE profile expands back to exactly the per-tile counts.
        expanded = [
            trip for q_tiles, trip in trip_segments(trips) for _ in range(q_tiles)
        ]
        assert expanded == trips

    @given(
        seq_lens=st.lists(st.integers(1, 64), min_size=1, max_size=5),
        block=st.sampled_from([(16, 16), (32, 24), (24, 40)]),
        window=st.integers(0, 48),
    )
    @settings(max_examples=60, deadline=None)
    def test_varlen(self, seq_lens, block, window):
        block_q, block_kv = block
        assert masked_elements_varlen(seq_lens, window) == int(
            oracle_mask_varlen(seq_lens, window).sum()
        )
        assert tile_trips_varlen(seq_lens, block_q, block_kv, window) == (
            oracle_trips_varlen(seq_lens, block_q, block_kv, window)
        )

    def test_allowed_keys_row_by_row(self):
        mask = oracle_mask(7, 12, window=4)
        for row in range(7):
            lo, hi = allowed_keys(row, 7, 12, window=4)
            assert list(np.flatnonzero(mask[row])) == list(range(lo, hi))

    def test_rejects_kv_shorter_than_seq(self):
        with pytest.raises(ValueError, match="kv >= seq"):
            masked_elements(8, 4)

    @pytest.mark.parametrize("call, message", [
        (lambda: masked_elements(0, 4), "seq must be positive, got 0"),
        (lambda: masked_elements(4, 4, window=-1), "window must be non-negative"),
        (lambda: allowed_keys(4, 4, 8), r"row 4 outside 0\.\.3"),
        (lambda: masked_elements_varlen(()), "at least one sequence length"),
        (lambda: tile_trips(8, 8, 0, 4), "tile sizes must be positive"),
        (lambda: tile_trips_varlen((), 4, 4), "at least one sequence length"),
        (lambda: trip_segments([2, 0]), "trip counts must be positive, got 0"),
    ])
    def test_invalid_arguments_rejected(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()


# --------------------------------------------------------------------------- #
# AttentionLayer: exact fractions, no silent 1.0, no float truncation
# --------------------------------------------------------------------------- #


class TestAttentionLayerExactness:
    def test_history_regression_old_silent_one(self):
        """Causal prefill over prior context used to return fraction 1.0
        whenever ``kv_length != seq`` -- it must charge the trapezoid
        ``(kv - (seq-1)/2)/kv`` instead."""
        shape = TensorShape(batch=1, seq=128, features=256)
        layer = AttentionLayer(
            name="attn", heads=4, head_dim=64, causal=True, kv_seq=384
        )
        fraction = layer.masked_score_elements(shape) / (4 * 128 * 384)
        assert fraction == (384 - (128 - 1) / 2) / 384
        assert fraction < 1.0
        assert layer.masked_score_elements(shape) == 4 * int(
            oracle_mask(128, 384).sum()
        )

    def test_full_triangle_fraction(self):
        shape = TensorShape(batch=2, seq=63, features=256)
        layer = AttentionLayer(name="attn", heads=4, head_dim=64, causal=True)
        assert layer.masked_score_elements(shape) / (2 * 4 * 63 * 63) == (63 + 1) / (2 * 63)

    def test_score_macs_integer_exact_odd_shapes(self):
        """MACs accumulate in integer mask counts: for an odd triangle the
        old ``int(macs * 0.5)`` floored away half a MAC row."""
        shape = TensorShape(batch=1, seq=7, features=64)
        layer = AttentionLayer(name="attn", heads=1, head_dim=64, causal=True)
        assert layer.score_macs(shape) == 2 * (7 * 8 // 2) * 64
        # Windowed decode keeps exactly the live keys.
        decode_shape = TensorShape(batch=1, seq=1, features=64)
        windowed = AttentionLayer(
            name="w", heads=1, head_dim=64, causal=True, kv_seq=1000, window=96
        )
        assert windowed.masked_score_elements(decode_shape) == 96

    def test_varlen_layer_counts_block_diagonal(self):
        shape = TensorShape(batch=1, seq=320, features=256)
        layer = AttentionLayer(
            name="attn", heads=4, head_dim=64, causal=True, seq_lens=(96, 160, 64)
        )
        assert layer.masked_score_elements(shape) == 4 * int(
            oracle_mask_varlen((96, 160, 64)).sum()
        )
        with pytest.raises(ValueError, match="sum"):
            layer.masked_score_elements(TensorShape(batch=1, seq=300, features=256))

    def test_mask_fields_require_causal(self):
        with pytest.raises(ValueError, match="causal"):
            AttentionLayer(name="bad", heads=1, head_dim=64, window=32)
        with pytest.raises(ValueError, match="causal"):
            AttentionLayer(name="bad", heads=1, head_dim=64, seq_lens=(4, 4))


# --------------------------------------------------------------------------- #
# Schedule differential: compressed == full expansion, byte for byte
# --------------------------------------------------------------------------- #

MASK_SHAPES = [
    # (label, causal, kv_len, window, seq_lens, seq_len)
    ("causal", True, 0, 0, (), 256),
    ("history", True, 448, 0, (), 192),
    ("window", True, 0, 48, (), 256),
    ("window-history", True, 512, 80, (), 256),
    ("varlen", True, 0, 0, (96, 160, 64), 320),
    ("varlen-window", True, 0, 24, (40, 112, 56, 112), 320),
    ("unmasked", False, 0, 0, (), 256),
]

TILE_CONFIGS = [(64, 64), (32, 48), (96, 80)]


@pytest.mark.parametrize("design", [DesignKind.VIRGO, DesignKind.AMPERE])
@pytest.mark.parametrize("label,causal,kv_len,window,seq_lens,seq_len", MASK_SHAPES)
def test_masked_schedule_differential(
    design, label, causal, kv_len, window, seq_lens, seq_len
):
    """Compressed masked flash schedules are byte-identical to the
    ``full_expansion=True`` oracle, and their reported MACs equal the
    integer mask-count oracle -- across both mappings and 3 tile configs."""
    for block_q, block_kv in TILE_CONFIGS:
        workload = FlashAttentionWorkload(
            seq_len=seq_len,
            heads=3,
            block_q=block_q,
            block_kv=block_kv,
            causal=causal,
            kv_len=kv_len,
            window=window,
            seq_lens=seq_lens,
        )
        compressed = simulate_flash_attention(design, workload)
        expanded = simulate_flash_attention(design, workload, full_expansion=True)
        assert compressed.total_cycles == expanded.total_cycles
        assert compressed.phase_cycles == expanded.phase_cycles
        assert compressed.counters.as_dict() == expanded.counters.as_dict()
        assert compressed.ideal_mac_cycles == expanded.ideal_mac_cycles

        # Reported work equals the brute-force mask count exactly.
        if seq_lens:
            mask = oracle_mask_varlen(seq_lens, window)
        elif causal:
            mask = oracle_mask(seq_len, kv_len or seq_len, window)
        else:
            mask = np.ones((seq_len, seq_len), dtype=bool)
        elements = int(mask.sum())
        assert workload.gemm_macs == 2 * 3 * elements * workload.head_dim
        assert workload.heads * workload.score_elements == 3 * elements


@given(
    seq=st.integers(2, 200),
    kv_extra=st.integers(0, 128),
    block_q=st.integers(8, 64),
    block_kv=st.integers(8, 64),
    window=st.integers(0, 160),
    heads=st.integers(1, 4),
)
@settings(max_examples=40, deadline=None)
def test_masked_compression_property(seq, kv_extra, block_q, block_kv, window, heads):
    """Hypothesis sweep over (seq, kv_seq, block_q, block_kv, window): the
    compressed masked schedule equals the expanded oracle byte-identically
    on a raw :class:`FlashLoopSpec` with adversarial pipe durations."""
    trips = tile_trips(seq, seq + kv_extra, block_q, block_kv, window)
    profile = tuple(
        FlashSegment(q_tiles=q_tiles, kv_trips=kv) for q_tiles, kv in trip_segments(trips)
    )
    spec = FlashLoopSpec(
        iterations=heads * sum(trips),
        pipes=(
            FlashPipe(kind="matrix", resource="matrix", cycles=1117),
            FlashPipe(kind="softmax", resource="simt", cycles=923),
            FlashPipe(kind="dma", resource="dma", cycles=1301),
        ),
        sync_cycles=37,
        prologue_cycles=513,
        epilogue_cycles=211,
        epilogue_count=max(1, seq // block_q),
        trip_profile=profile,
        profile_repeats=heads,
    )
    compressed = execute_flash_loop(spec)
    expanded = execute_flash_loop(spec, full_expansion=True)
    assert compressed.total_cycles == expanded.total_cycles
    assert compressed.kind_cycles == expanded.kind_cycles
    assert compressed.resource_busy == expanded.resource_busy
    assert compressed.operation_count == expanded.executed_operations


def test_profile_must_cover_iterations():
    with pytest.raises(ValueError, match="covers"):
        FlashLoopSpec(
            iterations=10,
            pipes=(FlashPipe(kind="matrix", resource="matrix", cycles=5),),
            trip_profile=(FlashSegment(q_tiles=3, kv_trips=2),),
        )


# --------------------------------------------------------------------------- #
# Compression-ratio guard (runs in the CI perf-smoke path)
# --------------------------------------------------------------------------- #


class TestMaskedCompressionStaysCheap:
    def test_masked_executed_operations_track_segments(self):
        """Masked compression is O(#segments): executed operations stay a
        vanishing fraction of the visited-tile total, the same order of
        guarantee the unmasked loop has."""
        workload = FlashAttentionWorkload(seq_len=16384, heads=4, causal=True)
        result = simulate_flash_attention(DesignKind.VIRGO, workload)
        stats = result.schedule_stats
        segments = len(workload.flash_segments())
        # Each segment costs a bounded handful of concrete operations
        # (run_loop warm-up), independent of seq_len and heads.
        assert stats["executed_operations"] <= 25 * segments
        ratio = stats["operation_count"] / stats["executed_operations"]
        assert ratio >= 10

    def test_masked_faster_than_unmasked_total(self):
        """The exact masked schedule does strictly less work than the
        unmasked rectangle -- the whole point of tile skipping."""
        masked = simulate_flash_attention(
            DesignKind.VIRGO, FlashAttentionWorkload(seq_len=4096, causal=True)
        )
        unmasked = simulate_flash_attention(
            DesignKind.VIRGO, FlashAttentionWorkload(seq_len=4096)
        )
        assert masked.total_cycles < unmasked.total_cycles
        windowed = simulate_flash_attention(
            DesignKind.VIRGO,
            FlashAttentionWorkload(seq_len=4096, causal=True, window=256),
        )
        assert windowed.total_cycles < masked.total_cycles


# --------------------------------------------------------------------------- #
# Lowering integration: fused + decomposed paths report oracle-exact MACs
# --------------------------------------------------------------------------- #


class TestLoweringMaskExactness:
    def test_fused_history_shape_now_fuses(self):
        """Chunked prefill (kv > seq) reaches the fused kernel instead of
        silently decomposing at full rectangular work."""
        schedule = lower_graph(build_model("gpt-prefill-history"), DesignKind.VIRGO)
        flash = [inv for inv in schedule.invocations if inv.kind == "flash"]
        assert flash
        workload = flash[0].workload
        assert workload.causal and workload.kv_len == 384
        assert workload.gemm_macs == 2 * 8 * int(oracle_mask(128, 384).sum()) * 64

    def test_decomposed_reported_macs_match_oracle(self):
        """On a design without the fused mapping the score GEMMs run the
        full rectangle but report exactly the surviving mask elements."""
        schedule = lower_graph(build_model("gpt-prefill"), DesignKind.HOPPER)
        spec = MODEL_ZOO["gpt-prefill"]
        scores = [
            inv
            for inv in schedule.invocations
            if inv.kind == "gemm" and inv.name.endswith(".scores")
        ]
        assert scores
        elements = spec.heads * int(oracle_mask(spec.seq_len, spec.seq_len).sum())
        for inv in scores:
            assert inv.reported_macs == elements * spec.head_dim
        softmax = [
            inv for inv in schedule.invocations if inv.name.endswith("attn.softmax")
        ]
        assert all(inv.elements == elements for inv in softmax)

    def test_windowed_decode_shrinks_context_gemm(self):
        spec = MODEL_ZOO["gpt-decode"]
        windowed = lower_graph(
            build_model(
                spec.__class__(**{**spec.to_dict(), "window": 128})
            ),
            DesignKind.VIRGO,
        )
        scores = next(
            inv for inv in windowed.invocations if inv.name.endswith(".scores")
        )
        assert scores.workload.n == 128
        assert scores.reported_macs == spec.heads * 128 * spec.head_dim

    def test_masked_zoo_variants_run_end_to_end(self):
        for name in ("gpt-prefill-history", "gpt-prefill-sw", "gpt-prefill-varlen"):
            result = run_model(name, DesignKind.VIRGO)
            assert result.total_cycles > 0
            attn = [layer for layer in result.layers if layer.layer.endswith(".attn")]
            assert attn and all(layer.macs > 0 for layer in attn)

    def test_varlen_packs_cheaper_than_padded_batch(self):
        """The reason varlen exists: packing (96, 160, 64) costs less score
        work than padding three sequences to 160."""
        shape = TensorShape(batch=1, seq=320, features=512)
        packed = AttentionLayer(
            name="p", heads=8, head_dim=64, causal=True, seq_lens=(96, 160, 64)
        )
        padded = AttentionLayer(name="d", heads=8, head_dim=64, causal=True)
        padded_shape = TensorShape(batch=3, seq=160, features=512)
        assert packed.score_macs(shape) < padded.score_macs(padded_shape)


# --------------------------------------------------------------------------- #
# Tooling: the attention-path lint holds on the current tree
# --------------------------------------------------------------------------- #


def test_attention_lint_passes():
    script = Path(__file__).resolve().parents[1] / "tools" / "check_attention_lint.py"
    result = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True
    )
    assert result.returncode == 0, result.stdout + result.stderr
