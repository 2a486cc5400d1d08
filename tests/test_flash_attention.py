"""Tests for the FlashAttention-3 kernel: functional numerics and both mappings."""

import numpy as np
import pytest

from repro.config.presets import DesignKind, make_design
from repro.config.soc import DataType
from repro.kernels.flash_attention import (
    AmpereFlashAttentionKernel,
    FlashAttentionWorkload,
    VirgoFlashAttentionKernel,
    attention_reference,
    flash_attention_reference,
    simulate_flash_attention,
    taylor_exp,
)


class TestTaylorExp:
    def test_accurate_near_zero(self):
        x = np.linspace(-0.5, 0.0, 32)
        np.testing.assert_allclose(taylor_exp(x), np.exp(x), rtol=0.05)

    def test_never_negative(self):
        x = np.linspace(-10.0, 0.0, 64)
        assert (taylor_exp(x) >= 0).all()

    def test_higher_order_more_accurate(self):
        x = np.linspace(-1.0, 0.0, 16)
        err2 = np.abs(taylor_exp(x, order=2) - np.exp(x)).max()
        err4 = np.abs(taylor_exp(x, order=4) - np.exp(x)).max()
        assert err4 < err2


class TestFunctionalFlashAttention:
    def test_matches_exact_attention(self, rng):
        q = rng.standard_normal((128, 64)).astype(np.float32)
        k = rng.standard_normal((128, 64)).astype(np.float32)
        v = rng.standard_normal((128, 64)).astype(np.float32)
        blocked = flash_attention_reference(q, k, v, block_q=32, block_kv=32)
        exact = attention_reference(q, k, v)
        np.testing.assert_allclose(blocked, exact, rtol=1e-4, atol=1e-4)

    def test_block_size_invariance(self, rng):
        q = rng.standard_normal((64, 32)).astype(np.float32)
        k = rng.standard_normal((96, 32)).astype(np.float32)
        v = rng.standard_normal((96, 32)).astype(np.float32)
        small = flash_attention_reference(q, k, v, block_q=16, block_kv=16)
        large = flash_attention_reference(q, k, v, block_q=64, block_kv=96)
        np.testing.assert_allclose(small, large, rtol=1e-4, atol=1e-4)

    def test_taylor_exp_approximation_close(self, rng):
        """The 2nd-order Taylor substitution stays close to exact attention."""
        q = 0.3 * rng.standard_normal((64, 64)).astype(np.float32)
        k = 0.3 * rng.standard_normal((64, 64)).astype(np.float32)
        v = rng.standard_normal((64, 64)).astype(np.float32)
        approx = flash_attention_reference(q, k, v, use_taylor_exp=True)
        exact = attention_reference(q, k, v)
        assert np.abs(approx - exact).max() < 0.35

    def test_shape_validation(self, rng):
        with pytest.raises(ValueError):
            flash_attention_reference(
                rng.standard_normal((8, 4)),
                rng.standard_normal((8, 6)),
                rng.standard_normal((8, 6)),
            )


class TestWorkload:
    def test_paper_workload_defaults(self):
        workload = FlashAttentionWorkload()
        assert workload.seq_len == 1024 and workload.head_dim == 64
        assert workload.gemm_macs == 2 * 1024 * 1024 * 64
        assert workload.iterations == 16 * 16

    def test_softmax_elements(self):
        workload = FlashAttentionWorkload(seq_len=256)
        assert workload.heads * workload.score_elements == 256 * 256

    @pytest.mark.parametrize("fields, message", [
        ({"seq_len": 0}, "dimensions must be positive"),
        ({"heads": 0}, "dimensions must be positive"),
        ({"block_kv": 0}, "tile sizes must be positive"),
        ({"window": 64}, "set causal=True"),
        ({"causal": True, "seq_len": 128, "kv_len": 64}, r"kv_len \(64\) must be >= seq_len"),
        ({"causal": True, "seq_len": 128, "kv_len": 256, "seq_lens": (64, 64)},
         "no prior context"),
        ({"causal": True, "seq_len": 128, "seq_lens": (128, 0)}, "seq_lens must be positive"),
        ({"causal": True, "seq_len": 128, "seq_lens": (64, 32)}, "must sum to seq_len 128"),
    ])
    def test_invalid_workload_rejected(self, fields, message):
        with pytest.raises(ValueError, match=message):
            FlashAttentionWorkload(**fields)


class TestMappings:
    @pytest.fixture(scope="class")
    def virgo_result(self):
        return simulate_flash_attention(DesignKind.VIRGO)

    @pytest.fixture(scope="class")
    def ampere_result(self):
        return simulate_flash_attention(DesignKind.AMPERE)

    def test_virgo_utilization_higher(self, virgo_result, ampere_result):
        """Section 6.2: Virgo 65.7% vs Ampere-style 35.1% MAC utilization."""
        assert virgo_result.mac_utilization > ampere_result.mac_utilization
        assert virgo_result.mac_utilization / ampere_result.mac_utilization > 1.4

    def test_utilizations_in_plausible_band(self, virgo_result, ampere_result):
        assert 0.55 <= virgo_result.mac_utilization <= 0.95
        assert 0.25 <= ampere_result.mac_utilization <= 0.60

    def test_fence_overhead_small(self, virgo_result):
        """Section 4.5.1: fence polling is a small fraction of runtime (~2.4%)."""
        assert virgo_result.fence_poll_cycles_avg == pytest.approx(260)
        assert virgo_result.fence_overhead_fraction < 0.08

    def test_energy_reduction(self, virgo_result, ampere_result):
        """Figure 12: Virgo reduces FlashAttention energy (paper: 50.6%)."""
        from repro.energy.model import EnergyTable

        virgo_energy = EnergyTable.for_design(virgo_result.design.style).energy_femtojoules(
            virgo_result.counters
        )
        ampere_energy = EnergyTable.for_design(ampere_result.design.style).energy_femtojoules(
            ampere_result.counters
        )
        reduction = 1.0 - virgo_energy / ampere_energy
        assert reduction > 0.40

    def test_virgo_softmax_overlapped(self, virgo_result):
        """The SIMT softmax pipe is shorter than the matrix pipe, so it hides."""
        assert virgo_result.phase_cycles["softmax"] < virgo_result.phase_cycles["matrix"]

    def test_counters_have_energy_assignments(self, virgo_result, ampere_result):
        from repro.energy.model import EnergyTable

        table = EnergyTable()
        assert table.unknown_counters(virgo_result.counters) == ()
        assert table.unknown_counters(ampere_result.counters) == ()

    def test_unsupported_design_rejected(self):
        with pytest.raises(ValueError):
            simulate_flash_attention(DesignKind.VOLTA)

    def test_custom_workload(self, virgo_fp32_design):
        workload = FlashAttentionWorkload(seq_len=256, head_dim=64)
        result = VirgoFlashAttentionKernel(virgo_fp32_design).simulate(workload)
        assert result.total_cycles > 0
        assert result.workload.iterations == 16

    def test_direct_kernel_classes(self, virgo_fp32_design):
        kernel = VirgoFlashAttentionKernel(virgo_fp32_design)
        result = kernel.simulate(FlashAttentionWorkload(seq_len=128))
        assert result.mac_utilization > 0.3

    def test_ampere_kernel_rejects_wrong_design(self, virgo_fp32_design):
        with pytest.raises(ValueError):
            AmpereFlashAttentionKernel(virgo_fp32_design)

    @pytest.mark.parametrize(
        "kind, kernel_class",
        [
            (DesignKind.VIRGO, VirgoFlashAttentionKernel),
            (DesignKind.AMPERE, AmpereFlashAttentionKernel),
        ],
        ids=["virgo", "ampere"],
    )
    def test_kv_tiles_load_on_the_dma_every_iteration(self, kind, kernel_class):
        """Both mappings run the one tile loop: each visited KV tile's K and V
        loads occupy the DMA pipe once, beside the mapping's own pipes."""
        kernel = kernel_class(make_design(kind, DataType.FP32))
        workload = FlashAttentionWorkload(seq_len=512, heads=2, causal=True)
        result = kernel.simulate(workload)
        kv_bytes = 2 * workload.block_kv * workload.head_dim * 4
        assert result.phase_cycles["dma"] == (
            workload.iterations * kernel.dma.transfer_cycles(kv_bytes)
        )
        assert result.counters["dma.bytes"] == workload.iterations * kv_bytes
