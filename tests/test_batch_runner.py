"""Tests for the in-process sweep runner and its persisted timing cache."""

import dataclasses
import json
import pickle
import re

import pytest

import repro.perf.cache as cache_module
import repro.workloads.batch as batch_module
import repro.workloads.lowering as lowering
from repro.perf import persistent_timing_cache, timing_cache
from repro.workloads import (
    BatchJob,
    ModelSpec,
    RequestSpec,
    ServingJob,
    ServingTrace,
    run_batch,
    resolve_spec,
    scaled_spec,
    serving_sweep_jobs,
    sweep_jobs,
)
from repro.workloads.lowering import MODEL_PROGRAMS

#: A deliberately tiny spec so batch tests stay fast.
TINY = scaled_spec(resolve_spec("gpt-decode"), blocks=1, hidden=128, heads=4, context_len=64)

#: A two-request serving trace sized for sub-second job execution.
TINY_TRACE = ServingTrace(
    name="batch-tiny",
    requests=(
        RequestSpec(
            request_id="t0",
            model=ModelSpec(family="gpt", phase="decode", batch=1, seq_len=32,
                            hidden=128, blocks=1, heads=4),
            arrival_cycle=0, prompt_len=32, decode_steps=2,
        ),
        RequestSpec(
            request_id="t1",
            model=ModelSpec(family="moe", phase="decode", batch=1, seq_len=32,
                            hidden=128, blocks=1, heads=4, experts=4, top_k=2),
            arrival_cycle=100, prompt_len=32, decode_steps=2,
        ),
    ),
    context_bucket=32,
)


@pytest.fixture(autouse=True)
def fresh_cache():
    timing_cache().clear()
    yield
    timing_cache().clear()


def _in_a_fresh_process(directory, jobs):
    """Run ``jobs`` the way a new ``--cache-dir`` process would: an empty
    in-process cache, warmed only by the snapshot in ``directory``.
    Returns the results and the sweep's timing-cache misses."""
    timing_cache().clear()
    with persistent_timing_cache(directory):
        misses = timing_cache().misses
        results = run_batch(jobs).results()
        return results, timing_cache().misses - misses


class TestCellContent:
    def test_content_is_deterministic(self):
        """Duplicate rejection keys a dict on content, so two jobs built
        apart must compare and hash equal."""
        first, second = BatchJob(TINY, "virgo"), BatchJob(TINY, "virgo")
        assert first.content == second.content
        assert hash(first.content) == hash(second.content)

    def test_model_and_serving_cells_never_collide(self):
        assert BatchJob(TINY, "virgo").content != ServingJob(TINY_TRACE, "virgo").content

    def test_content_depends_on_design_and_flags(self):
        base = BatchJob(TINY, "virgo")
        assert base.content != BatchJob(TINY, "ampere").content
        assert base.content != BatchJob(TINY, "virgo", heterogeneous=True).content

    def test_content_depends_on_spec(self):
        other = scaled_spec(TINY, context_len=128)
        assert BatchJob(TINY, "virgo").content != BatchJob(other, "virgo").content

    def test_name_and_spec_spellings_share_content(self):
        by_name = BatchJob("gpt-decode", "virgo")
        by_spec = BatchJob(resolve_spec("gpt-decode"), "Virgo")
        assert by_name.content == by_spec.content


class TestRunBatch:
    def test_second_run_hits_cache_without_recomputation(self, tmp_path, monkeypatch):
        jobs = [BatchJob(TINY, "virgo"), BatchJob(TINY, "ampere")]
        with persistent_timing_cache(tmp_path):
            first = run_batch(jobs).results()

        # Lowering a model again would mean the snapshot did not serve it.
        def explode(*args, **kwargs):
            raise AssertionError("model lowered again despite a warm snapshot")

        monkeypatch.setattr(lowering, "lower_graph", explode)
        second, misses = _in_a_fresh_process(tmp_path, jobs)
        assert misses == 0
        assert second == first

    def test_results_match_direct_run(self):
        report = run_batch([BatchJob(TINY, "virgo")])
        direct = batch_module.run_model(TINY, "virgo").to_dict()
        assert report.outcomes[0].result == direct

    def test_mixed_kinds_run_in_job_order(self):
        jobs = [ServingJob(TINY_TRACE, "virgo"), BatchJob(TINY, "ampere"),
                BatchJob(TINY, "virgo")]
        report = run_batch(jobs)
        assert [outcome.job for outcome in report.outcomes] == jobs
        assert [(r["kind"], r["design"]) for r in report.results()] == [
            ("serving", "Virgo"), ("model", "Ampere-style"), ("model", "Virgo"),
        ]

    def test_results_are_canonical_json(self):
        """Each result is the plain JSON encoding the CLI prints."""
        results = run_batch([BatchJob(TINY, "virgo"), ServingJob(TINY_TRACE, "virgo")]).results()
        for result in results:
            assert json.loads(json.dumps(result)) == result

    def test_later_cells_reuse_earlier_cells_kernels(self):
        """Cells share the process-wide timing cache: kernel shapes an
        earlier cell simulated are hits for every later cell."""
        jobs = [BatchJob(TINY, "virgo"), BatchJob(scaled_spec(TINY, context_len=128), "virgo")]
        alone, alone_misses = [], 0
        for job in jobs:
            timing_cache().clear()
            alone += run_batch([job]).results()
            alone_misses += timing_cache().misses
        timing_cache().clear()
        assert run_batch(jobs).results() == alone
        assert timing_cache().misses < alone_misses

    def test_without_a_cache_dir_nothing_is_written(self, tmp_path, monkeypatch):
        """Outside ``persistent_timing_cache`` a sweep reuses the in-process
        cache only and leaves no file behind."""
        monkeypatch.chdir(tmp_path)
        jobs = sweep_jobs([TINY], ["virgo", "ampere"])
        first = run_batch(jobs).results()
        misses = timing_cache().misses
        assert run_batch(jobs).results() == first
        assert timing_cache().misses == misses
        assert list(tmp_path.iterdir()) == []

    def test_spec_change_invalidates_only_affected_entries(self, tmp_path):
        job_a = BatchJob(TINY, "virgo")
        job_b = BatchJob(scaled_spec(TINY, context_len=128), "virgo")
        with persistent_timing_cache(tmp_path) as path:
            run_batch([job_a])
        _, misses_a = _in_a_fresh_process(tmp_path, [job_a])
        _, misses_b = _in_a_fresh_process(tmp_path, [job_b])
        assert misses_a == 0 and misses_b > 0
        snapshot = pickle.loads(path.read_bytes())
        assert len(snapshot["namespaces"][MODEL_PROGRAMS]) == 2

    def test_sweep_leaves_every_program_in_the_snapshot(self, tmp_path):
        """Every cell runs in the calling process, so a sweep with default
        arguments persists each cell's placed model program."""
        with persistent_timing_cache(tmp_path) as path:
            run_batch(sweep_jobs([TINY], ["virgo", "ampere"]))
        snapshot = pickle.loads(path.read_bytes())
        assert len(snapshot["namespaces"][MODEL_PROGRAMS]) == 2

    def test_cli_rerun_replays_from_the_snapshot(self, tmp_path, capsys):
        from repro.__main__ import main

        argv = ["model", "--batch", "--names", "gpt-decode", "--designs",
                "virgo,ampere", "--cache-dir", str(tmp_path)]
        outputs = []
        for _ in range(2):
            timing_cache().clear()
            main(argv)
            table, line = capsys.readouterr().out.rstrip().rsplit("\n", 1)
            stats = re.fullmatch(r"timing cache: \d+ hits, (\d+) misses \(.*\)", line)
            assert stats, line
            outputs.append((table, int(stats.group(1))))
        (first, cold_misses), (second, warm_misses) = outputs
        assert second == first
        assert cold_misses > 0 and warm_misses == 0

    def test_cli_batch_rejects_single_run_outputs(self, tmp_path):
        from repro.__main__ import main

        argv = ["model", "--batch", "--names", "gpt-decode", "--designs", "virgo"]
        trace = tmp_path / "trace.json"
        for extra in (["--trace-out", str(trace)], ["--metrics"]):
            with pytest.raises(SystemExit, match="not available with --batch"):
                main(argv + extra)
        assert not trace.exists()


class TestTimingCacheSnapshot:
    def test_seeded_result_matches_unseeded(self):
        """Loading a snapshot into an empty cache changes hit/miss
        accounting, never results."""
        jobs = sweep_jobs([TINY], ["virgo", "ampere"])
        cold = run_batch(jobs).results()
        snapshot = timing_cache().snapshot()
        timing_cache().clear()
        timing_cache().load(snapshot)
        warm = run_batch(jobs).results()
        assert timing_cache().hits > 0
        assert timing_cache().misses == 0
        assert warm == cold


class TestSweepJobs:
    def test_cross_product(self):
        jobs = sweep_jobs(["gpt-prefill", "gpt-decode"], ["virgo", "ampere"])
        assert len(jobs) == 4
        assert {job.label for job in jobs} == {
            "gpt-prefill@virgo",
            "gpt-prefill@ampere",
            "gpt-decode@virgo",
            "gpt-decode@ampere",
        }

    def test_unknown_names_fail_at_sweep_build(self):
        with pytest.raises(KeyError):
            sweep_jobs(["not-a-model"], ["virgo"])
        with pytest.raises(KeyError):
            serving_sweep_jobs(["not-a-trace"], ["virgo"])

    def test_heterogeneous_sequence_crosses_into_jobs(self):
        jobs = sweep_jobs(["gpt-decode"], ["virgo"], heterogeneous=(False, True))
        assert len(jobs) == 2
        assert [job.heterogeneous for job in jobs] == [False, True]
        assert {job.label for job in jobs} == {"gpt-decode@virgo", "gpt-decode@virgo+hetero"}

    def test_heterogeneous_bool_keeps_single_flag(self):
        jobs = sweep_jobs(["gpt-decode"], ["virgo"], heterogeneous=True)
        assert [job.heterogeneous for job in jobs] == [True]


def _poison_model_programs(path):
    """Add one cycle to every placed program in the snapshot at ``path``."""
    snapshot = pickle.loads(path.read_bytes())
    table = snapshot["namespaces"][MODEL_PROGRAMS]
    for key, placed in table.items():
        table[key] = dataclasses.replace(placed, total_cycles=placed.total_cycles + 1)
    path.write_bytes(pickle.dumps(snapshot))


class TestCacheSchemaBump:
    def test_old_schema_entries_are_ignored_not_misread(self, tmp_path, monkeypatch):
        """A ``SCHEMA_VERSION`` bump orphans the whole snapshot: a sweep
        re-run under the same cache directory recomputes every cell and
        never returns what the pre-bump snapshot held."""
        jobs = sweep_jobs([TINY], ["virgo", "ampere"])
        with persistent_timing_cache(tmp_path) as path:
            fresh = run_batch(jobs).results()
        _poison_model_programs(path)

        # Under the schema that wrote it, the snapshot is what a re-run reads.
        stale, misses = _in_a_fresh_process(tmp_path, jobs)
        assert misses == 0
        assert [r["total_cycles"] for r in stale] == [r["total_cycles"] + 1 for r in fresh]

        monkeypatch.setattr(cache_module, "SCHEMA_VERSION", cache_module.SCHEMA_VERSION + 1)
        rerun, misses = _in_a_fresh_process(tmp_path, jobs)
        assert misses > 0
        assert rerun == fresh

    def test_schema_bump_reaches_serving_cells(self, tmp_path, monkeypatch):
        """After a bump a serving cell starts as cold as it first ran."""
        jobs = [ServingJob(TINY_TRACE, "virgo")]
        with persistent_timing_cache(tmp_path):
            fresh = run_batch(jobs).results()
            cold_misses = timing_cache().misses
        _, misses = _in_a_fresh_process(tmp_path, jobs)
        assert misses == 0

        monkeypatch.setattr(cache_module, "SCHEMA_VERSION", cache_module.SCHEMA_VERSION + 1)
        rerun, misses = _in_a_fresh_process(tmp_path, jobs)
        assert misses == cold_misses > 0
        assert rerun == fresh


class TestDuplicateSweepCells:
    def test_sweep_jobs_rejects_repeated_model(self):
        with pytest.raises(ValueError, match="duplicate sweep cell"):
            sweep_jobs(["gpt-decode", "gpt-decode"], ["virgo"])

    def test_sweep_jobs_rejects_name_and_spec_spelling_the_same_content(self):
        for models, designs, labels in (
            (["gpt-decode", resolve_spec("gpt-decode")], ["virgo"],
             ("gpt-decode@virgo", "gpt@virgo")),
            (["gpt-decode"], ["virgo", "Virgo"], ("gpt-decode@virgo", "gpt-decode@Virgo")),
        ):
            with pytest.raises(ValueError, match="duplicate sweep cell") as excinfo:
                sweep_jobs(models, designs)
            assert all(repr(label) in str(excinfo.value) for label in labels)

    def test_moe_sweep_rejects_repeated_knob_value(self):
        base = resolve_spec("moe-decode")
        cells = [scaled_spec(base, experts=count, top_k=2) for count in (8, 8)]
        with pytest.raises(ValueError, match="duplicate sweep cell 'moe-8x2@virgo'"):
            sweep_jobs(cells, ["virgo"])

    def test_serving_sweep_rejects_repeated_trace(self):
        with pytest.raises(ValueError, match="duplicate sweep cell"):
            serving_sweep_jobs([TINY_TRACE, TINY_TRACE], ["virgo"], heterogeneous=False)

    def test_serving_sweep_rejects_name_and_trace_spelling_the_same_content(self):
        traces = ["poisson-mixed", batch_module.resolve_trace("poisson-mixed")]
        with pytest.raises(ValueError, match="duplicate sweep cell") as excinfo:
            serving_sweep_jobs(traces, ["virgo"], heterogeneous=False)
        assert repr("serve:poisson-mixed@virgo") in str(excinfo.value)

    def test_distinct_cells_still_pass(self):
        jobs = sweep_jobs(["gpt-decode"], ["virgo", "ampere"], heterogeneous=False)
        assert len(jobs) == 2

    def test_cli_batch_reports_duplicate_as_clean_exit(self):
        from repro.__main__ import main

        with pytest.raises(SystemExit, match="duplicate sweep cell"):
            main(["model", "--batch", "--names", "gpt-decode,gpt-decode",
                  "--designs", "virgo"])


class TestServingJobs:
    def test_content_depends_on_design_and_units(self):
        assert ServingJob(TINY_TRACE, "virgo").content == ServingJob(TINY_TRACE, "virgo").content
        assert (
            ServingJob(TINY_TRACE, "virgo").content
            != ServingJob(TINY_TRACE, "ampere").content
        )
        assert (
            ServingJob(TINY_TRACE, "virgo").content
            != ServingJob(TINY_TRACE, "virgo", heterogeneous=True).content
        )

    def test_trace_edit_changes_content(self):
        shifted = dataclasses.replace(
            TINY_TRACE,
            requests=(
                TINY_TRACE.requests[0],
                dataclasses.replace(TINY_TRACE.requests[1], arrival_cycle=999),
            ),
        )
        assert ServingJob(TINY_TRACE, "virgo").content != ServingJob(shifted, "virgo").content

    def test_name_and_trace_spellings_share_content(self):
        by_name = ServingJob("poisson-mixed", "virgo")
        by_trace = ServingJob(batch_module.resolve_trace("poisson-mixed"), "virgo")
        assert by_name.content == by_trace.content

    def test_label_names_trace_design_and_units(self):
        assert ServingJob(TINY_TRACE, "virgo").label == "serve:batch-tiny@virgo"
        assert (
            ServingJob(TINY_TRACE, "ampere", heterogeneous=True).label
            == "serve:batch-tiny@ampere+hetero"
        )

    def test_serving_sweep_cross_product(self):
        jobs = serving_sweep_jobs([TINY_TRACE], ["virgo"], heterogeneous=(False, True))
        assert [job.heterogeneous for job in jobs] == [False, True]

    def test_fcfs_cells_ignore_the_kv_budget(self):
        fcfs, budgeted = serving_sweep_jobs([TINY_TRACE], ["virgo"], heterogeneous=False,
                                            policies=("fcfs", "kv-budget"), kv_budget=4096)
        assert fcfs.kv_budget is None and budgeted.kv_budget == 4096
        assert fcfs.content == ServingJob(TINY_TRACE, "virgo").content
        assert budgeted.label == "serve:batch-tiny@virgo+kv-budget+kv4096"

    def test_run_batch_executes_and_caches_serving_jobs(self, tmp_path):
        job = ServingJob(TINY_TRACE, "virgo")
        with persistent_timing_cache(tmp_path):
            (result,) = run_batch([job]).results()
        assert result["kind"] == "serving"
        assert result["decode_steps_executed"] == TINY_TRACE.total_decode_steps

        replayed, misses = _in_a_fresh_process(tmp_path, [job])
        assert misses == 0
        assert replayed == [result]

    def test_serving_result_matches_direct_run(self):
        report = run_batch([ServingJob(TINY_TRACE, "virgo")])
        direct = batch_module.run_serving(TINY_TRACE, "virgo").to_dict()
        assert report.outcomes[0].result == direct


class TestSpecResolution:
    def test_spec_resolved_once_per_job(self, monkeypatch):
        calls = []
        real = batch_module.resolve_spec

        def counting(name):
            calls.append(name)
            return real(name)

        monkeypatch.setattr(batch_module, "resolve_spec", counting)
        job = BatchJob("gpt-decode", "virgo")
        job.content
        job.content
        assert job.spec is job.spec
        assert calls == ["gpt-decode"]

    def test_explicit_spec_never_resolves(self, monkeypatch):
        monkeypatch.setattr(
            batch_module, "resolve_spec", lambda name: pytest.fail("resolved a ModelSpec job")
        )
        assert BatchJob(TINY, "virgo").spec is TINY
