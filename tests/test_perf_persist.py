"""Tests for the persistent timing-cache snapshot (``repro.perf`` on disk).

The snapshot is an accelerator with strict hygiene: loading a warm snapshot
must change hit/miss accounting and wall clock only -- never results --
while missing, corrupt or stale-schema files degrade to a cold start
instead of erroring or (worse) being misread.
"""

import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.config.presets import DesignKind, make_design
from repro.perf import (
    SCHEMA_VERSION,
    SNAPSHOT_FILENAME,
    SNAPSHOT_FORMAT_VERSION,
    TimingCache,
    load_snapshot,
    persistent_timing_cache,
    save_snapshot,
    snapshot_path,
    timing_cache,
)
from repro.runner import run_gemm
from repro.workloads import (
    ModelSpec,
    RequestSpec,
    ServingTrace,
    run_batch,
    run_serving,
    sweep_jobs,
)
from repro.workloads.lowering import MODEL_PROGRAMS

TINY_GPT = ModelSpec(family="gpt", phase="decode", batch=1, seq_len=32,
                     hidden=128, blocks=1, heads=4)


def steady_trace():
    return ServingTrace(
        name="persist-steady",
        requests=tuple(
            RequestSpec(request_id=f"p{index}", model=TINY_GPT, arrival_cycle=0,
                        prompt_len=16, decode_steps=4)
            for index in range(2)
        ),
        context_bucket=64,
    )


@pytest.fixture(autouse=True)
def fresh_cache():
    timing_cache().clear()
    yield
    timing_cache().clear()


class TestSnapshotRoundTrip:
    def test_save_then_load_restores_entries(self, tmp_path):
        run_gemm(DesignKind.VIRGO, 128)
        path = snapshot_path(tmp_path)
        assert save_snapshot(path) == len(timing_cache())

        fresh = TimingCache()
        assert load_snapshot(path, fresh) == len(timing_cache())
        # A seeded lookup against the restored cache is a hit.
        key = timing_cache().key(
            "gemm",
            run_gemm(DesignKind.VIRGO, 128).design,
            {"workload": run_gemm(DesignKind.VIRGO, 128).kernel.workload},
        )
        assert key in fresh

    def test_loaded_snapshot_changes_accounting_not_results(self, tmp_path):
        cold = run_gemm(DesignKind.VIRGO, 256).to_dict()
        save_snapshot(snapshot_path(tmp_path))

        timing_cache().clear()
        assert load_snapshot(snapshot_path(tmp_path)) > 0
        warm = run_gemm(DesignKind.VIRGO, 256)
        assert warm.to_dict() == cold
        assert timing_cache().hits == 1 and timing_cache().misses == 0

    def test_save_merges_with_existing_file(self, tmp_path):
        path = snapshot_path(tmp_path)
        run_gemm(DesignKind.VIRGO, 128)
        save_snapshot(path)

        timing_cache().clear()
        run_gemm(DesignKind.VIRGO, 256)
        save_snapshot(path)

        union = TimingCache()
        assert load_snapshot(path, union) == 2

    def test_missing_file_is_a_cold_start(self, tmp_path):
        assert load_snapshot(tmp_path / "absent.pkl") == 0

    def test_corrupt_file_is_a_cold_start(self, tmp_path):
        path = tmp_path / SNAPSHOT_FILENAME
        path.write_bytes(b"not a pickle")
        assert load_snapshot(path) == 0

    def test_wrong_payload_type_is_a_cold_start(self, tmp_path):
        path = tmp_path / SNAPSHOT_FILENAME
        path.write_bytes(pickle.dumps(["not", "a", "mapping"]))
        assert load_snapshot(path) == 0

    def test_unsupported_pickle_protocol_is_a_cold_start(self, tmp_path):
        """An opcode stream claiming a future protocol raises ValueError from
        pickle.load -- it must degrade to cold, not crash every startup."""
        path = tmp_path / SNAPSHOT_FILENAME
        data = bytearray(pickle.dumps({"format": 1}))
        assert data[0:1] == b"\x80"
        data[1] = 255  # bogus protocol byte
        path.write_bytes(bytes(data))
        assert load_snapshot(path) == 0

    def test_future_format_with_restructured_entries_is_orphaned(self, tmp_path):
        """A stamped container whose payload shape changed must be rejected
        by its stamp -- never have its container keys merged as timing
        entries."""
        path = tmp_path / SNAPSHOT_FILENAME
        path.write_bytes(pickle.dumps({
            "format": SCHEMA_VERSION + 99,
            "schema": SCHEMA_VERSION + 99,
            "entries": ["restructured", "payload"],
        }))
        fresh = TimingCache()
        assert load_snapshot(path, fresh) == 0
        assert len(fresh) == 0
        assert "format" not in fresh

    def test_current_stamp_with_bad_entries_is_orphaned(self, tmp_path):
        path = tmp_path / SNAPSHOT_FILENAME
        path.write_bytes(pickle.dumps({
            "format": SNAPSHOT_FORMAT_VERSION,
            "schema": SCHEMA_VERSION,
            "entries": "garbage",
        }))
        fresh = TimingCache()
        assert load_snapshot(path, fresh) == 0
        assert len(fresh) == 0

    def test_stale_schema_file_is_orphaned(self, tmp_path):
        """Entries written under another schema version are skipped wholesale
        -- the on-disk mirror of the batch-cache schema-bump tests."""
        run_gemm(DesignKind.VIRGO, 128)
        path = snapshot_path(tmp_path)
        save_snapshot(path)

        snapshot = pickle.loads(path.read_bytes())
        snapshot["schema"] = SCHEMA_VERSION + 1
        path.write_bytes(pickle.dumps(snapshot))

        timing_cache().clear()
        assert load_snapshot(path) == 0
        assert len(timing_cache()) == 0


class TestPersistentContext:
    def test_first_run_flushes_second_run_starts_warm(self, tmp_path):
        with persistent_timing_cache(tmp_path) as path:
            cold = run_serving(steady_trace(), DesignKind.VIRGO)
            assert cold.timing_cache["misses"] > 0
        assert path.exists()

        # A "new process": empty cache, memo emptied by the clear.
        timing_cache().clear()
        with persistent_timing_cache(tmp_path):
            warm = run_serving(steady_trace(), DesignKind.VIRGO)
        assert warm.timing_cache["misses"] == 0
        # The iteration memo persists inside the snapshot, so the second
        # invocation replays every iteration instead of re-scheduling.
        assert warm.iteration_memo["misses"] == 0
        assert warm.iteration_memo["hits"] == warm.iteration_count
        assert warm.to_dict() == cold.to_dict()

    def test_memo_only_growth_still_flushes(self, tmp_path):
        """A run whose kernel entries are all warm from disk but which grows
        a derived memo (e.g. a snapshot written before the memo existed)
        must still flush -- otherwise that progress is lost every run."""
        path = snapshot_path(tmp_path)
        with persistent_timing_cache(tmp_path):
            run_serving(steady_trace(), DesignKind.VIRGO)
        snapshot = pickle.loads(path.read_bytes())
        snapshot.pop("namespaces", None)  # simulate an older writer
        path.write_bytes(pickle.dumps(snapshot))

        timing_cache().clear()
        with persistent_timing_cache(tmp_path):
            rebuilt = run_serving(steady_trace(), DesignKind.VIRGO)
        assert rebuilt.timing_cache["misses"] == 0  # kernels were warm
        assert rebuilt.iteration_memo["misses"] > 0  # memo was not

        timing_cache().clear()
        with persistent_timing_cache(tmp_path):
            warm = run_serving(steady_trace(), DesignKind.VIRGO)
        assert warm.iteration_memo["misses"] == 0

    def test_pure_hit_run_does_not_rewrite_the_file(self, tmp_path):
        with persistent_timing_cache(tmp_path) as path:
            run_gemm(DesignKind.VIRGO, 128)
        stamp = path.stat().st_mtime_ns

        timing_cache().clear()
        with persistent_timing_cache(tmp_path):
            run_gemm(DesignKind.VIRGO, 128)
        assert path.stat().st_mtime_ns == stamp

    def test_warm_sweep_does_not_rewrite_the_file(self, tmp_path):
        """Replaying placed model programs adds nothing, so a warm sweep
        leaves the snapshot file as it found it."""
        jobs = sweep_jobs([TINY_GPT], ["virgo", "ampere"])
        with persistent_timing_cache(tmp_path) as path:
            run_batch(jobs)
        before = path.stat()

        timing_cache().clear()
        with persistent_timing_cache(tmp_path):
            run_batch(jobs)
        after = path.stat()
        assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)

    def test_a_warm_process_writes_into_a_new_directory(self, tmp_path):
        """The block adds no entry, but the file is missing: it is written."""
        jobs = sweep_jobs([TINY_GPT], ["virgo", "ampere"])
        run_batch(jobs)
        with persistent_timing_cache(tmp_path / "new") as path:
            run_batch(jobs)
        assert path.exists()
        assert _namespace_sizes(path)[MODEL_PROGRAMS] == 2

    def test_a_warm_process_tops_up_a_smaller_snapshot(self, tmp_path):
        """The process holds a cell the file lacks: the file gains it."""
        with persistent_timing_cache(tmp_path) as path:
            run_batch(sweep_jobs([TINY_GPT], ["virgo"]))
        assert _namespace_sizes(path)[MODEL_PROGRAMS] == 1
        run_batch(sweep_jobs([TINY_GPT], ["ampere"]))
        with persistent_timing_cache(tmp_path):
            run_batch(sweep_jobs([TINY_GPT], ["virgo"]))
        assert _namespace_sizes(path)[MODEL_PROGRAMS] == 2


def _namespace_sizes(path):
    snapshot = pickle.loads(path.read_bytes())
    return {name: len(table) for name, table in snapshot["namespaces"].items()}


class TestPinnedHashesStayInProcess:
    """A pinned hash never crosses a process border.

    ``ModelSpec`` and ``DesignConfig`` pin their field-tuple hash in the
    instance ``__dict__``.  String hashes differ between processes
    (``PYTHONHASHSEED``), so an unpickled instance must hash afresh, or
    memo keys loaded from a snapshot never match equal fresh keys.
    """

    def test_unpickled_spec_hashes_like_a_fresh_one(self):
        spec = ModelSpec(family="gpt", phase="decode", seq_len=48)
        object.__setattr__(spec, "_spec_hash", hash(spec) + 1)  # another process's pin
        loaded = pickle.loads(pickle.dumps(spec))
        fresh = ModelSpec(family="gpt", phase="decode", seq_len=48)
        assert hash(loaded) == hash(fresh)
        assert {fresh: "entry"}.get(loaded) == "entry"

    def test_unpickled_design_hashes_like_a_fresh_one(self):
        design = make_design(DesignKind.VIRGO)
        object.__setattr__(design, "_design_hash", hash(design) + 1)
        loaded = pickle.loads(pickle.dumps(design))
        fresh = make_design(DesignKind.VIRGO)
        assert hash(loaded) == hash(fresh)
        assert {fresh: "entry"}.get(loaded) == "entry"

    def test_serve_snapshot_replays_under_another_hash_seed(self, tmp_path):
        src = Path(repro.__file__).resolve().parents[1]

        def serve(seed):
            env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=str(src))
            completed = subprocess.run(
                [sys.executable, "-m", "repro", "serve", "--trace", "poisson-mixed",
                 "--cache-dir", str(tmp_path), "--json"],
                env=env, capture_output=True, text=True, check=True,
            )
            return json.loads(completed.stdout)

        first = serve(1)
        sizes = _namespace_sizes(snapshot_path(tmp_path))
        second = serve(2)
        assert second["perf"]["iteration_memo"]["misses"] == 0
        assert _namespace_sizes(snapshot_path(tmp_path)) == sizes
        first.pop("perf"), second.pop("perf")
        assert second == first

    def test_model_sweep_snapshot_replays_under_another_hash_seed(self, tmp_path):
        src = Path(repro.__file__).resolve().parents[1]

        def sweep(seed):
            env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=str(src))
            completed = subprocess.run(
                [sys.executable, "-m", "repro", "model", "--batch",
                 "--names", "gpt-decode,moe-decode", "--designs", "virgo,ampere",
                 "--cache-dir", str(tmp_path)],
                env=env, capture_output=True, text=True, check=True,
            )
            table, _, stats = completed.stdout.rstrip().rpartition("\n")
            return table, stats

        first, _ = sweep(1)
        sizes = _namespace_sizes(snapshot_path(tmp_path))
        assert sizes[MODEL_PROGRAMS] == 4
        second, stats = sweep(2)
        assert ", 0 misses" in stats
        assert second == first
        assert _namespace_sizes(snapshot_path(tmp_path)) == sizes
