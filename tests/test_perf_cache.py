"""Tests for the ``repro.perf`` timing cache and its integration points.

The core contract: memoization must be invisible in the results.  A model
run against a cold cache, a warm cache or a disabled cache produces the
same canonical ``to_dict()`` encoding for every zoo model x design x dtype
combination; the cache only changes how often the kernel timing models run.
"""

import pickle

import pytest

from repro.config.presets import DesignKind, make_design
from repro.config.soc import CoreConfig, DataType
from repro.isa.instructions import OpClass
from repro.isa.program import WarpProgram
from repro.kernels.flash_attention import FlashAttentionWorkload
from repro.kernels.gemm import GemmWorkload
from repro.perf import (
    SCHEMA_VERSION,
    TimingCache,
    cache_disabled,
    canonical_value,
    design_fingerprint,
    persistent_timing_cache,
    snapshot_path,
    timing_cache,
)
from repro.runner import run_flash_attention, run_gemm
from repro.simt.core import _EXECUTION_NAMESPACE, VortexCore
from repro.simt.issue import IssueSimulator
from repro.workloads import model_names, run_model
from repro.workloads.lowering import _simt_cost


@pytest.fixture(autouse=True)
def fresh_cache():
    """Each test starts and ends with an empty global cache."""
    timing_cache().clear()
    yield
    timing_cache().clear()


class TestCacheEquivalence:
    @pytest.mark.parametrize("model", model_names())
    @pytest.mark.parametrize("design", ["volta", "ampere", "hopper", "virgo"])
    @pytest.mark.parametrize("dtype", [DataType.FP16, DataType.FP32], ids=lambda d: d.value)
    def test_memoized_equals_cold_for_zoo(self, model, design, dtype):
        with cache_disabled():
            cold = run_model(model, design, dtype=dtype).to_dict()
        first = run_model(model, design, dtype=dtype).to_dict()
        warm = run_model(model, design, dtype=dtype).to_dict()
        assert first == cold
        assert warm == cold

    def test_heterogeneous_memoized_equals_cold(self):
        with cache_disabled():
            cold = run_model("gpt-decode", "virgo", heterogeneous=True).to_dict()
        run_model("gpt-decode", "virgo", heterogeneous=True)
        warm = run_model("gpt-decode", "virgo", heterogeneous=True).to_dict()
        assert warm == cold

    def test_second_run_is_all_hits(self):
        first = run_model("gpt-prefill", "virgo")
        assert first.timing_cache["misses"] > 0
        # Layers repeat shapes, so even the first run hits within itself.
        assert first.timing_cache["hits"] > 0
        second = run_model("gpt-prefill", "virgo")
        assert second.timing_cache["misses"] == 0
        assert second.timing_cache["hits"] == (
            first.timing_cache["hits"] + first.timing_cache["misses"]
        )

    def test_distinct_shapes_simulated_once_per_process(self):
        result = run_model("gpt-prefill", "virgo")
        assert result.timing_cache["misses"] == len(timing_cache())
        assert result.kernel_count == (
            result.timing_cache["hits"] + result.timing_cache["misses"]
        )


class TestRunnerMemoization:
    def test_run_gemm_returns_shared_result(self):
        first = run_gemm(DesignKind.VIRGO, 256)
        second = run_gemm(DesignKind.VIRGO, 256)
        assert second is first
        assert timing_cache().hits == 1

    def test_run_gemm_distinguishes_design_workload_dtype(self):
        run_gemm(DesignKind.VIRGO, 256)
        run_gemm(DesignKind.AMPERE, 256)
        run_gemm(DesignKind.VIRGO, 512)
        run_gemm(DesignKind.VIRGO, 256, DataType.FP32)
        assert timing_cache().misses == 4
        assert timing_cache().hits == 0

    def test_run_gemm_workload_and_size_spellings_share_entry(self):
        by_size = run_gemm(DesignKind.VIRGO, 256)
        by_workload = run_gemm(DesignKind.VIRGO, GemmWorkload.square(256))
        assert by_workload is by_size

    def test_run_flash_attention_memoizes(self):
        first = run_flash_attention(DesignKind.VIRGO)
        second = run_flash_attention(DesignKind.VIRGO, FlashAttentionWorkload())
        assert second is first
        third = run_flash_attention(DesignKind.VIRGO, FlashAttentionWorkload(seq_len=512))
        assert third is not first

    def test_flash_kind_and_config_spellings_share_entry(self):
        by_kind = run_flash_attention(DesignKind.AMPERE)
        by_config = run_flash_attention(make_design(DesignKind.AMPERE, DataType.FP32))
        assert by_config is by_kind

    def test_simt_cost_memoizes(self):
        design = make_design(DesignKind.VIRGO, DataType.FP16)
        first = _simt_cost(design, 4096, 8.0)
        second = _simt_cost(design, 4096, 8.0)
        assert second is first
        assert _simt_cost(design, 4096, 4.0) is not first

    def test_disabled_cache_stores_nothing(self):
        with cache_disabled():
            run_gemm(DesignKind.VIRGO, 256)
        assert len(timing_cache()) == 0
        assert timing_cache().stats() == {"hits": 0, "misses": 0, "entries": 0}


class TestTimingCacheMechanics:
    def test_snapshot_seeds_another_cache(self):
        run_gemm(DesignKind.VIRGO, 256)
        snapshot = timing_cache().snapshot()
        assert snapshot["schema"] == SCHEMA_VERSION
        other = TimingCache()
        assert other.load(snapshot) == len(timing_cache())
        assert len(other) == len(timing_cache())
        key = next(iter(snapshot["entries"]))
        assert key in other

    def test_load_orphans_stale_schema_snapshots(self):
        """A snapshot stamped with a different schema (or container format)
        is skipped wholesale -- stale timing entries must never satisfy
        fresh lookups."""
        run_gemm(DesignKind.VIRGO, 256)
        snapshot = timing_cache().snapshot()

        stale_schema = dict(snapshot, schema=SCHEMA_VERSION + 1)
        other = TimingCache()
        assert other.load(stale_schema) == 0
        assert len(other) == 0

        stale_format = dict(snapshot, format=-1)
        assert other.load(stale_format) == 0
        assert len(other) == 0

        # The untouched snapshot still loads, proving the guard (not the
        # payload) rejected the stale variants.
        assert other.load(snapshot) == len(snapshot["entries"])

    def test_load_orphans_unstamped_mapping(self, tmp_path):
        """A bare key->entry mapping carries no schema or format stamp, so
        nothing vouches for its entries: it loads nothing, whether handed
        to ``load`` or found as the snapshot pickle of a cache directory,
        and the next flush writes none of it back."""
        run_gemm(DesignKind.VIRGO, 256)
        entries = timing_cache().snapshot()["entries"]
        assert entries
        other = TimingCache()
        assert other.load(entries) == 0
        assert len(other) == 0

        snapshot_path(tmp_path).write_bytes(pickle.dumps(entries))
        timing_cache().clear()
        with persistent_timing_cache(tmp_path) as path:
            assert len(timing_cache()) == 0
            run_gemm(DesignKind.VIRGO, 128)
        flushed = pickle.loads(path.read_bytes())
        assert flushed["schema"] == SCHEMA_VERSION
        assert set(flushed["entries"]) == set(timing_cache().snapshot()["entries"])
        assert not set(flushed["entries"]) & set(entries)

    def test_namespace_rides_snapshot_and_clear(self):
        """Auxiliary memo tables share the cache lifecycle: cleared with it,
        carried by snapshots, schema-gated on load."""
        cache = TimingCache()
        table = cache.namespace("aux.memo")
        table[("key", 1)] = {"value": 42}
        assert cache.namespace("aux.memo") is table

        snapshot = cache.snapshot()
        other = TimingCache()
        other.load(snapshot)
        assert other.namespace("aux.memo") == {("key", 1): {"value": 42}}

        stale = dict(snapshot, schema=SCHEMA_VERSION + 1)
        third = TimingCache()
        third.load(stale)
        assert third.namespace("aux.memo") == {}

        cache.clear()
        assert table == {}  # cleared in place: held references empty too
        assert cache.namespace("aux.memo") is table

    def test_credit_hits_adjusts_counters_only_when_enabled(self):
        cache = TimingCache()
        cache.credit_hits(3)
        assert cache.hits == 3
        cache.credit_hits(0)
        assert cache.hits == 3
        cache.enabled = False
        cache.credit_hits(5)
        assert cache.hits == 3

    def test_clear_bumps_generation(self):
        cache = TimingCache()
        generation = cache.generation
        cache.clear()
        assert cache.generation == generation + 1

    def test_clear_resets_stats_and_entries(self):
        run_gemm(DesignKind.VIRGO, 256)
        run_gemm(DesignKind.VIRGO, 256)
        cache = timing_cache()
        assert cache.stats() == {"hits": 1, "misses": 1, "entries": 1}
        cache.clear()
        assert cache.stats() == {"hits": 0, "misses": 0, "entries": 0}

    def test_design_fingerprint_tracks_content(self):
        fp16 = make_design(DesignKind.VIRGO, DataType.FP16)
        fp16_again = make_design(DesignKind.VIRGO, DataType.FP16)
        fp32 = make_design(DesignKind.VIRGO, DataType.FP32)
        assert design_fingerprint(fp16) == design_fingerprint(fp16_again)
        assert design_fingerprint(fp16) != design_fingerprint(fp32)

    def test_canonical_value_handles_nested_dataclasses_and_enums(self):
        workload = GemmWorkload(m=8, n=16, k=32, dtype=DataType.FP32)
        assert canonical_value(workload) == {"m": 8, "n": 16, "k": 32, "dtype": "fp32"}
        assert canonical_value({"w": (workload,)}) == {
            "w": [{"m": 8, "n": 16, "k": 32, "dtype": "fp32"}]
        }

    def test_key_is_deterministic_and_content_sensitive(self):
        cache = timing_cache()
        design = make_design(DesignKind.VIRGO, DataType.FP16)
        key = cache.key("gemm", design, {"workload": GemmWorkload.square(64)})
        assert key == cache.key("gemm", design, {"workload": GemmWorkload.square(64)})
        assert key != cache.key("flash", design, {"workload": GemmWorkload.square(64)})
        assert key != cache.key("gemm", design, {"workload": GemmWorkload.square(65)})


class TestSimtExecutionMemo:
    """The ``VortexCore.execute`` memo rides the timing cache's lifecycle."""

    @staticmethod
    def _execute():
        load = WarpProgram().emit_class(OpClass.LOAD_SHARED, repeat=4, bytes_accessed=32)
        alu = WarpProgram().emit_class(OpClass.ALU, repeat=2)
        return VortexCore(CoreConfig()).execute([load, alu])

    @staticmethod
    def _count_simulations(monkeypatch):
        calls = []
        original = IssueSimulator.simulate

        def counting(self, *args, **kwargs):
            calls.append(1)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(IssueSimulator, "simulate", counting)
        return calls

    def test_clear_empties_the_table(self):
        table = timing_cache().namespace(_EXECUTION_NAMESPACE)
        self._execute()
        assert len(table) == 1
        timing_cache().clear()
        assert len(table) == 0

    def test_snapshot_serves_execute_in_a_fresh_cache(self, monkeypatch):
        expected = self._execute()
        snapshot = pickle.loads(pickle.dumps(timing_cache().snapshot()))
        timing_cache().clear()
        timing_cache().load(snapshot)
        calls = self._count_simulations(monkeypatch)
        served = self._execute()
        assert calls == []
        assert served.issue == expected.issue
        assert list(served.counters.items()) == list(expected.counters.items())

    def test_stale_schema_snapshot_is_orphaned(self, monkeypatch):
        self._execute()
        snapshot = timing_cache().snapshot()
        timing_cache().clear()
        timing_cache().load(dict(snapshot, schema=SCHEMA_VERSION + 1))
        assert timing_cache().namespace(_EXECUTION_NAMESPACE) == {}
        calls = self._count_simulations(monkeypatch)
        self._execute()
        assert calls == [1]

    def test_memo_hits_leave_stats_unchanged(self):
        self._execute()
        self._execute()
        assert timing_cache().stats() == {"hits": 0, "misses": 0, "entries": 0}


class TestConcurrentMisses:
    def test_racing_computes_converge_on_one_shared_entry(self):
        """Losers of a compute race return the stored winner, not their own copy."""
        cache = TimingCache()
        key = "same-key"
        first = cache.get_or_compute(key, lambda: object())
        # Simulate the race's loser: entry already present when it re-locks.
        second = cache.get_or_compute(key, lambda: object())
        assert second is first
        assert cache.stats() == {"hits": 1, "misses": 1, "entries": 1}

    def test_threaded_lookups_share_one_object(self):
        import threading

        cache = TimingCache()
        results = []
        barrier = threading.Barrier(4)

        def worker():
            barrier.wait()
            results.append(cache.get_or_compute("k", lambda: object()))

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(cache) == 1
        assert all(result is results[0] for result in results)
        assert cache.hits + cache.misses == 4
