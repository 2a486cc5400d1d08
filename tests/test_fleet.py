"""Tests for fleet serving: router policies, chaos, failover, batch, CLI.

The fleet simulator's contract is threefold and each clause gets its own
test block here:

1. **Determinism** -- identical arguments (trace, fleet, policy, seeded
   fault plan) produce a byte-identical ``FleetRunResult.to_dict``, cold or
   warm caches, epoch extrapolation on or off.
2. **Disposition partition** -- every request ends in exactly one of
   ``FLEET_DISPOSITIONS``; nothing is dropped or double-counted, under any
   fault plan and any policy.
3. **Failover pays for itself** -- under a seeded crash plan, goodput with
   retries + failover strictly beats the no-failover baseline (the CI chaos
   gate pins the same comparison from the CLI).
"""

import json

import pytest

import repro.perf.cache as cache_module
from repro.__main__ import main
from repro.faults import FleetFaultPlan, ReplicaFaultEvent
from repro.perf import persistent_timing_cache, timing_cache
from repro.workloads import (
    FLEET_DISPOSITIONS,
    FLEET_ZOO,
    ROUTER_POLICIES,
    FleetJob,
    ModelSpec,
    RequestSpec,
    RouterConfig,
    ServingTrace,
    backoff_cycles,
    fleet_names,
    fleet_sweep_jobs,
    resolve_fleet,
    resolve_fleet_designs,
    resolve_router_policy,
    resolve_slo,
    run_batch,
    run_fleet,
)
from repro.analysis.fleet import (
    fleet_perf_stats,
    fleet_report,
    fleet_request_rows,
    format_fleet_report,
)

#: A deliberately tiny request network so fleet tests stay fast.
TINY_GPT = ModelSpec(family="gpt", phase="decode", batch=1, seq_len=32,
                     hidden=128, blocks=1, heads=4)


def tiny_trace(arrivals=(0, 0, 40_000), decode_steps=2, slo=None, name="tiny-fleet"):
    requests = tuple(
        RequestSpec(
            request_id=f"f{index}",
            model=TINY_GPT,
            arrival_cycle=arrival,
            prompt_len=32,
            decode_steps=decode_steps,
            slo=slo,
        )
        for index, arrival in enumerate(arrivals)
    )
    return ServingTrace(name=name, requests=requests, context_bucket=32)


def dispositions_of(result):
    return {request.request_id: request.disposition for request in result.requests}


class TestBackoff:
    def test_window_doubles_then_saturates(self):
        # The jittered delay lands in [window/2, window); the window itself
        # doubles per attempt and clamps at the cap.
        for attempt, window in [(0, 1000), (1, 2000), (2, 4000), (3, 8000),
                                (4, 8000), (50, 8000)]:
            delay = backoff_cycles(attempt, base=1000, cap=8000, seed=3,
                                   request_id="r")
            assert window // 2 <= delay < window

    def test_deterministic_per_key(self):
        first = backoff_cycles(2, base=100, cap=6400, seed=9, request_id="a")
        again = backoff_cycles(2, base=100, cap=6400, seed=9, request_id="a")
        assert first == again
        other = backoff_cycles(2, base=100, cap=6400, seed=9, request_id="b")
        reseeded = backoff_cycles(2, base=100, cap=6400, seed=10, request_id="a")
        # Distinct keys draw distinct jitters (windows match, delays differ
        # with overwhelming probability for these particular keys).
        assert (other, reseeded) != (first, first)

    def test_never_below_one_cycle(self):
        assert backoff_cycles(0, base=1, cap=1, seed=0, request_id="r") >= 1

    def test_huge_attempt_does_not_overflow(self):
        assert backoff_cycles(10_000, base=2, cap=64_000, seed=0,
                              request_id="r") < 64_000

    def test_validation(self):
        with pytest.raises(ValueError, match="attempt"):
            backoff_cycles(-1, base=10, cap=100, seed=0, request_id="r")
        with pytest.raises(ValueError, match="base"):
            backoff_cycles(0, base=0, cap=100, seed=0, request_id="r")
        with pytest.raises(ValueError, match="cap"):
            backoff_cycles(0, base=10, cap=5, seed=0, request_id="r")


class TestRouterConfig:
    def test_defaults_valid(self):
        config = RouterConfig()
        assert config.failover and config.max_retries == 4

    @pytest.mark.parametrize("field", [
        "health_check_interval", "health_check_timeout",
        "dispatch_timeout", "retry_base_cycles",
    ])
    def test_non_positive_intervals_rejected(self, field):
        with pytest.raises(ValueError, match=field):
            RouterConfig(**{field: 0})

    def test_cap_below_base_rejected(self):
        with pytest.raises(ValueError, match="retry_cap_cycles"):
            RouterConfig(retry_base_cycles=100, retry_cap_cycles=50)

    def test_negative_retries_rejected(self):
        with pytest.raises(ValueError, match="max_retries"):
            RouterConfig(max_retries=-1)

    def test_zero_outstanding_rejected(self):
        with pytest.raises(ValueError, match="max_outstanding"):
            RouterConfig(max_outstanding=0)

    def test_to_dict_round_trips_every_knob(self):
        config = RouterConfig(max_retries=2, failover=False, seed=5)
        encoded = config.to_dict()
        assert encoded["max_retries"] == 2
        assert encoded["failover"] is False
        assert RouterConfig(**encoded) == config


class TestFleetResolution:
    def test_count_means_homogeneous_virgos(self):
        assert resolve_fleet_designs(3) == ("virgo", "virgo", "virgo")

    def test_zoo_name(self):
        assert resolve_fleet_designs("mixed-pair") == ("virgo", "volta")

    def test_explicit_designs(self):
        assert resolve_fleet_designs(["hopper", "virgo"]) == ("hopper", "virgo")

    def test_empty_fleet_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            resolve_fleet_designs(0)
        with pytest.raises(ValueError, match="at least one"):
            resolve_fleet_designs([])

    def test_unknown_name_lists_zoo(self):
        with pytest.raises((KeyError, ValueError), match="duo-virgo"):
            resolve_fleet_designs("no-such-fleet")

    def test_unknown_design_rejected(self):
        with pytest.raises(ValueError):
            resolve_fleet_designs(["virgo", "tpu"])

    def test_zoo_is_sorted_and_resolvable(self):
        assert fleet_names() == sorted(FLEET_ZOO)
        for name in fleet_names():
            assert len(resolve_fleet(name)) >= 2

    def test_resolve_fleet_unknown(self):
        with pytest.raises(KeyError, match="duo-virgo"):
            resolve_fleet("nope")

    def test_policies_resolve(self):
        for name in ROUTER_POLICIES:
            assert resolve_router_policy(name, seed=1) is not None
        with pytest.raises(ValueError, match="round-robin"):
            resolve_router_policy("weighted", seed=0)


class TestFleetFaultPlan:
    def test_parse_fleet_wide_tokens(self):
        plan = FleetFaultPlan.parse(
            "crash:0.5:200000,slow:0.25:2.0:100000,partition:0.1:50000", 7)
        assert plan.seed == 7 and plan.active
        assert plan.crash_rate == 0.5 and plan.slow_scale == 2.0

    def test_parse_targeted_tokens(self):
        plan = FleetFaultPlan.parse(
            "crash@1:5000:20000,slow@0:0:3.0:10000,partition@2:100:500", 0)
        kinds = [(event.kind, event.replica) for event in plan.events]
        assert ("crash", 1) in kinds and ("slow", 0) in kinds
        assert ("partition", 2) in kinds

    @pytest.mark.parametrize("spec", [
        "crash:-0.1:100", "crash:2:100", "crash:nan:100",
        "slow:0.5:0.5:100",          # scale < 1 speeds replicas up
        "slow:0.5:inf:100",          # non-finite scale
        "crash:0.5:0",               # zero-duration fault
        "crash@0:-5:100",            # negative event time
        "reboot:0.5:100",            # unknown kind
        "crash:0.5",                 # missing field
        "",                          # empty spec
    ])
    def test_invalid_specs_rejected(self, spec):
        with pytest.raises(ValueError):
            FleetFaultPlan.parse(spec, 0)

    @pytest.mark.parametrize("spec, message", [
        ("slow@0:0:2.0", "malformed fault token 'slow@0:0:2.0'"),
        ("crash@1:0", "malformed fault token 'crash@1:0'"),
        ("reboot@0:0:100", "unknown fleet fault kind 'reboot'"),
        ("slow:0.5:2.0", "malformed fault token 'slow:0.5:2.0'"),
        ("partition:0.5", "malformed fault token 'partition:0.5'"),
        ("crash@x:0:100", "replica index 'x' is not an integer"),
        ("partition:often:100", "rate 'often' is not a number"),
    ])
    def test_invalid_token_is_named(self, spec, message):
        with pytest.raises(ValueError, match=message):
            FleetFaultPlan.parse(spec, 0)

    def test_event_kind_and_duration_validated(self):
        with pytest.raises(ValueError, match="unknown fleet fault kind 'reboot'"):
            ReplicaFaultEvent(kind="reboot", replica=0, at_cycle=0, duration_cycles=10)
        with pytest.raises(ValueError, match="duration_cycles must be > 0"):
            ReplicaFaultEvent(kind="partition", replica=0, at_cycle=0, duration_cycles=0)

    def test_negative_window_rejected(self):
        with pytest.raises(ValueError, match="partition_cycles must be non-negative"):
            FleetFaultPlan(partition_cycles=-1)

    def test_active_when_any_rate_or_event_is_set(self):
        assert not FleetFaultPlan().active
        assert FleetFaultPlan(partition_rate=0.5, partition_cycles=100).active
        assert FleetFaultPlan.parse("partition@0:10:100", 0).active
        assert FleetFaultPlan.parse("partition@0:10:100", 0).partition_rate == 0.0

    def test_materialize_needs_a_replica(self):
        with pytest.raises(ValueError, match="at least one replica, got 0"):
            FleetFaultPlan().materialize(0, 1000)

    def test_event_validation(self):
        with pytest.raises(ValueError, match="duration_scale"):
            ReplicaFaultEvent(kind="slow", replica=0, at_cycle=0,
                              duration_cycles=10, duration_scale=0.0)
        with pytest.raises(ValueError, match="slow"):
            ReplicaFaultEvent(kind="crash", replica=0, at_cycle=0,
                              duration_cycles=10, duration_scale=2.0)
        with pytest.raises(ValueError, match="replica"):
            ReplicaFaultEvent(kind="crash", replica=-1, at_cycle=0,
                              duration_cycles=10)

    def test_materialize_is_deterministic_and_range_checked(self):
        plan = FleetFaultPlan.parse("crash:0.8:50000,slow:0.5:2.0:40000", 3)
        first = plan.materialize(4, 1_000_000)
        again = plan.materialize(4, 1_000_000)
        assert first == again
        for event in first:
            assert 0 <= event.replica < 4
            assert 0 <= event.at_cycle < 1_000_000

    def test_materialize_rejects_out_of_range_target(self):
        plan = FleetFaultPlan.parse("crash@5:0:1000", 0)
        with pytest.raises(ValueError, match="replica 5"):
            plan.materialize(2, 1_000_000)


class TestFleetRun:
    def test_fault_free_duo_meets_everything(self):
        result = run_fleet(tiny_trace(), 2)
        assert [request.disposition for request in result.requests] == ["met"] * 3
        assert result.goodput == 1.0 and result.availability == 1.0
        assert result.failover_count == 0 and result.retry_count == 0
        assert sum(result.dispositions.values()) == 3
        assert sorted(result.dispositions) == sorted(FLEET_DISPOSITIONS)

    def test_requests_spread_across_replicas(self):
        result = run_fleet(tiny_trace(), 2, policy="round-robin")
        assert {request.replica for request in result.requests} == {0, 1}
        assert sum(replica.completed for replica in result.replicas) == 3

    def test_to_dict_is_canonical(self):
        result = run_fleet(tiny_trace(), 2)
        encoded = result.to_dict()
        assert encoded["kind"] == "fleet_run"
        assert len(encoded["requests"]) == 3
        assert len(encoded["replicas"]) == 2
        # Memo- and cache-dependent counters must not leak into the
        # canonical encoding.
        flattened = json.dumps(encoded)
        assert "memo" not in flattened and "epochs" not in flattened

    def test_every_policy_is_deterministic_under_chaos(self):
        spec = "crash:0.6:300000,slow:0.5:2.5:200000,partition:0.4:150000"
        for policy in ROUTER_POLICIES:
            first = run_fleet(tiny_trace(), 3, policy=policy, faults=spec,
                              fault_seed=11)
            again = run_fleet(tiny_trace(), 3, policy=policy, faults=spec,
                              fault_seed=11)
            a = json.dumps(first.to_dict(), sort_keys=True)
            b = json.dumps(again.to_dict(), sort_keys=True)
            assert a == b, f"policy {policy} is nondeterministic"
            assert sum(first.dispositions.values()) == 3

    def test_failover_beats_no_failover_goodput(self):
        # Crash replica 0 right after it admits work and keep it down past
        # the horizon: with failover the orphans re-prefill elsewhere and
        # finish; without it they are lost.
        trace = tiny_trace(arrivals=(0, 0, 0, 0), decode_steps=3)
        faults = "crash@0:1:5000000"
        with_failover = run_fleet(trace, 2, faults=faults)
        without = run_fleet(trace, 2, faults=faults,
                            config=RouterConfig(failover=False))
        assert with_failover.goodput > without.goodput
        assert with_failover.failover_count > 0
        assert dispositions_of(without)[
            min(r.request_id for r in without.requests if r.disposition == "failed")
        ] == "failed"
        # Failed-over requests pay the re-prefill toll explicitly.
        assert sum(r.reprefill_cycles for r in with_failover.requests) > 0

    def test_slowdown_stretches_makespan(self):
        baseline = run_fleet(tiny_trace(arrivals=(0,)), 1)
        slowed = run_fleet(tiny_trace(arrivals=(0,)), 1,
                           faults="slow@0:0:4.0:10000000")
        assert slowed.total_cycles > baseline.total_cycles
        assert slowed.replicas[0].slowdowns == 1
        # Slowdowns bypass the memo in both directions: a subsequent clean
        # run must still match the clean baseline byte for byte.
        clean = run_fleet(tiny_trace(arrivals=(0,)), 1)
        assert json.dumps(clean.to_dict()) == json.dumps(baseline.to_dict())

    def test_partition_retries_then_recovers(self):
        # Both replicas partitioned at arrival: dispatches fail, the request
        # backs off, and once the partition lifts it completes.
        trace = tiny_trace(arrivals=(0,), slo=resolve_slo("standard"))
        result = run_fleet(trace, 2,
                           faults="partition@0:0:40000,partition@1:0:40000")
        assert result.retry_count > 0 or result.failed_dispatches > 0
        assert result.requests[0].disposition in ("met", "violated")
        assert result.availability < 1.0

    def test_retry_budget_exhaustion_times_out(self):
        # A partition outlasting every backoff the budget allows: the
        # request must end "timed_out", not linger undispatched.
        trace = tiny_trace(arrivals=(0,), slo=resolve_slo("interactive"))
        config = RouterConfig(max_retries=1, retry_base_cycles=100,
                              retry_cap_cycles=200, dispatch_timeout=100)
        result = run_fleet(trace, 2, config=config,
                           faults="partition@0:0:9000000,partition@1:0:9000000")
        assert dispositions_of(result)["f0"] == "timed_out"
        assert result.requests[0].retries == 2  # budget + the exhausting try

    def test_priority_zero_sheds_on_total_outage(self):
        # No SLO class means priority 0: with every replica believed down
        # the router sheds instead of parking.
        trace = tiny_trace(arrivals=(60_000,))
        result = run_fleet(trace, 2,
                           faults="crash@0:0:9000000,crash@1:0:9000000")
        assert dispositions_of(result)["f0"] == "shed"
        assert result.goodput == 0.0

    def test_mixed_fleet(self):
        result = run_fleet(tiny_trace(), "mixed-pair")
        assert result.fleet == ("virgo", "volta")
        assert [request.disposition for request in result.requests] == ["met"] * 3

    def test_heterogeneous_fleet(self):
        # Dual-matrix-unit replicas (only the disaggregated virgo supports
        # the hetero configuration, so the fleet must be all-virgo).
        result = run_fleet(tiny_trace(), 2, heterogeneous=True)
        assert result.heterogeneous
        assert [request.disposition for request in result.requests] == ["met"] * 3

    def test_extrapolation_differential(self):
        # Epoch extrapolation is a pure compression: byte-identical output.
        trace = tiny_trace(arrivals=(0, 0), decode_steps=24)
        exact = run_fleet(trace, 2, epoch_extrapolation=False)
        compressed = run_fleet(trace, 2, epoch_extrapolation=True)
        assert json.dumps(exact.to_dict(), sort_keys=True) == \
            json.dumps(compressed.to_dict(), sort_keys=True)
        assert compressed.perf["epochs"]["extrapolated_iterations"] > 0

    def test_string_trace_and_string_faults(self):
        result = run_fleet("bursty-gpt", "duo-virgo",
                           faults="slow:1.0:1.5:100000", fault_seed=2)
        assert sum(result.dispositions.values()) == len(result.requests)

    def test_parked_request_times_out_at_queue_deadline(self):
        # Every replica down for the whole run: an SLO-carrying request
        # parks in the router queue, drain ticks find no capacity, and the
        # class's queue deadline converts it to "timed_out".
        trace = tiny_trace(arrivals=(0,), slo=resolve_slo("standard"))
        result = run_fleet(trace, 2,
                           faults="crash@0:0:99000000,crash@1:0:99000000")
        assert dispositions_of(result)["f0"] == "timed_out"
        assert result.requests[0].replica is None

    def test_recorder_captures_router_and_epoch_spans(self):
        from repro.obs import TraceRecorder, tracing
        recorder = TraceRecorder(label="fleet-test")
        trace = tiny_trace(arrivals=(0, 0), decode_steps=24,
                           slo=resolve_slo("standard"))
        with tracing(recorder):
            run_fleet(trace, 2,
                      faults="partition@0:0:30000,partition@1:0:30000,"
                             "crash@0:200000:9000000")
        categories = {span.category for span in recorder.spans}
        assert "fault" in categories        # dispatch timeouts
        assert "epoch" in categories        # extrapolated iteration spans
        # Terminal router decisions (here: a shed under total outage) land
        # on the router's dispositions track.
        shed_recorder = TraceRecorder(label="fleet-shed")
        with tracing(shed_recorder):
            run_fleet(tiny_trace(arrivals=(60_000,)), 2,
                      faults="crash@0:0:9000000,crash@1:0:9000000")
        assert "disposition" in {span.category for span in shed_recorder.spans}

    def test_unknown_policy_raises(self):
        with pytest.raises(ValueError, match="router policy"):
            run_fleet(tiny_trace(), 2, policy="banana")

    def test_metrics_snapshot_counts_fleet_activity(self):
        result = run_fleet(tiny_trace(), 2)
        snapshot = result.metrics.snapshot()
        assert snapshot["fleet.requests"] == 3
        assert snapshot["fleet.dispositions.met"] == 3
        assert snapshot["fleet.goodput"] == 1.0


class TestFleetAnalysis:
    def test_report_shape(self):
        result = run_fleet(tiny_trace(), 2)
        report = fleet_report(result)
        assert report["kind"] == "fleet_latency"
        assert report["finished"] == 3
        assert report["latency_cycles"]["p50"] > 0
        assert set(report["replica_occupancy"]) == {"replica0", "replica1"}

    def test_request_rows_cover_every_request(self):
        result = run_fleet(tiny_trace(), 2)
        rows = fleet_request_rows(result)
        assert len(rows) == 3 and all(len(row) == 9 for row in rows)

    def test_all_shed_report_is_well_defined(self):
        # Satellite 1's fleet face: a total outage must produce a formatted
        # report with zero placeholders and a plain-language note, not a
        # divide-by-zero.
        trace = tiny_trace(arrivals=(60_000, 61_000))
        result = run_fleet(trace, 2,
                           faults="crash@0:0:9000000,crash@1:0:9000000")
        report = fleet_report(result)
        assert report["finished"] == 0
        assert report["latency_cycles"]["p99"] == 0.0
        text = format_fleet_report(result)
        assert "no request finished" in text
        assert "goodput 0.000" in text

    def test_format_mentions_chaos_and_failover(self):
        result = run_fleet(tiny_trace(arrivals=(0, 0, 0), decode_steps=3), 2,
                           faults="crash@0:1:5000000")
        text = format_fleet_report(result)
        assert "crash" in text and "failovers" in text

    def test_perf_stats_are_diagnostic_only(self):
        result = run_fleet(tiny_trace(), 2)
        stats = fleet_perf_stats(result)
        assert set(stats) == {"iteration_memo", "timing_cache", "epochs"}


class TestFleetBatch:
    def test_job_key_ignores_spelling(self):
        by_name = FleetJob(trace=tiny_trace(), fleet="duo-virgo")
        by_list = FleetJob(trace=tiny_trace(), fleet=("virgo", "virgo"))
        assert by_name.content == by_list.content

    def test_job_key_tracks_fault_plan_and_seed(self):
        base = FleetJob(trace=tiny_trace())
        chaotic = FleetJob(trace=tiny_trace(), faults="crash:0.5:100000")
        reseeded = FleetJob(trace=tiny_trace(), faults="crash:0.5:100000",
                            fault_seed=1)
        assert len({base.content, chaotic.content, reseeded.content}) == 3

    def test_sweep_crosses_and_rejects_duplicates(self):
        jobs = fleet_sweep_jobs(
            traces=(tiny_trace(),), fleets=("duo-virgo",),
            policies=("round-robin", "least-kv"),
            fault_plans=(None, "crash:0.9:100000"), failover=(True, False),
        )
        assert len(jobs) == 8
        with pytest.raises(ValueError, match="duplicate"):
            fleet_sweep_jobs(traces=(tiny_trace(),), fleets=("duo-virgo",),
                             policies=("round-robin", "round-robin"))

    def test_sweep_rejects_the_same_fleet_spelled_twice(self):
        with pytest.raises(ValueError, match="duplicate sweep cell") as excinfo:
            fleet_sweep_jobs(traces=(tiny_trace(),), fleets=("duo-virgo", ("virgo", "virgo")),
                             policies=("round-robin",))
        for label in ("fleet:tiny-fleet@duo-virgo/round-robin",
                      "fleet:tiny-fleet@virgoxvirgo/round-robin"):
            assert repr(label) in str(excinfo.value)

    def test_sweep_rejects_invalid_cells_at_build_time(self):
        with pytest.raises(ValueError, match="invalid fleet sweep cell"):
            fleet_sweep_jobs(traces=(tiny_trace(),),
                             fault_plans=("crash:5:100",))
        with pytest.raises(ValueError, match="invalid fleet sweep cell"):
            fleet_sweep_jobs(traces=(tiny_trace(),), fleets=("no-such-zoo",))
        with pytest.raises(ValueError, match="invalid fleet sweep cell"):
            fleet_sweep_jobs(traces=(tiny_trace(),), policies=("no-such-policy",))
        with pytest.raises(ValueError, match="invalid fleet sweep cell"):
            fleet_sweep_jobs(traces=("no-such-trace",))

    def test_run_batch_caches_fleet_results(self, tmp_path):
        jobs = fleet_sweep_jobs(traces=(tiny_trace(),), fleets=(2,),
                                policies=("round-robin",),
                                fault_plans=("crash@0:1:5000000",),
                                failover=(True, False))
        timing_cache().clear()
        with persistent_timing_cache(tmp_path):
            cold = run_batch(jobs)
        # A later process replays both cells from the snapshot alone.
        timing_cache().clear()
        with persistent_timing_cache(tmp_path):
            warm = run_batch(jobs)
            assert timing_cache().misses == 0
        assert cold.results() == warm.results()
        goodput = {out.job.label: out.result["goodput"] for out in cold.outcomes}
        with_failover, = [v for k, v in goodput.items() if "nofailover" not in k]
        without, = [v for k, v in goodput.items() if "nofailover" in k]
        assert with_failover > without

    def test_schema_bump_recomputes_fleet_cells(self, tmp_path, monkeypatch):
        """A ``SCHEMA_VERSION`` bump orphans the snapshot: a chaos cell
        re-run under the same directory starts as cold as it first ran."""
        jobs = fleet_sweep_jobs(traces=(tiny_trace(),), fleets=(2,),
                                policies=("round-robin",),
                                fault_plans=("crash@0:1:5000000",))
        timing_cache().clear()
        with persistent_timing_cache(tmp_path):
            fresh = run_batch(jobs).results()
            cold_misses = timing_cache().misses
        monkeypatch.setattr(cache_module, "SCHEMA_VERSION", cache_module.SCHEMA_VERSION + 1)
        timing_cache().clear()
        with persistent_timing_cache(tmp_path):
            rerun = run_batch(jobs).results()
            assert timing_cache().misses == cold_misses > 0
        assert rerun == fresh


class TestFleetCli:
    def test_list(self, capsys):
        main(["fleet", "--list"])
        out = capsys.readouterr().out
        assert "duo-virgo" in out and "round-robin" in out and "bursty-gpt" in out

    def test_json_run_parses_and_is_deterministic(self, capsys):
        argv = ["fleet", "--trace", "bursty-gpt", "--fleet", "2", "--json",
                "--inject", "crash:0.9:300000", "--fault-seed", "5"]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        again = capsys.readouterr().out
        # The "perf" block is process-local diagnostics (the second run hits
        # the now-warm iteration memo); everything canonical is identical.
        # The CI chaos gate cmp's two *fresh* processes, where the whole
        # document matches byte for byte.
        report, replay = json.loads(first), json.loads(again)
        report.pop("perf"), replay.pop("perf")
        assert report == replay
        assert report["kind"] == "fleet_run"
        assert report["latency_report"]["kind"] == "fleet_latency"
        assert sum(report["dispositions"].values()) == len(report["requests"])

    def test_table_and_latency_report(self, capsys):
        main(["fleet", "--trace", "bursty-gpt", "--latency-report"])
        out = capsys.readouterr().out
        assert "disposition" in out and "goodput" in out and "replica0" in out

    def test_compact_summary_without_latency_report(self, capsys):
        main(["fleet", "--trace", "bursty-gpt"])
        out = capsys.readouterr().out
        assert "goodput" in out and "makespan" in out

    def test_bad_inject_exits_one(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["fleet", "--trace", "bursty-gpt", "--inject", "crash:-1:5"])
        assert "crash_rate" in str(excinfo.value)

    def test_unknown_fleet_exits_one(self):
        with pytest.raises(SystemExit, match="duo-virgo"):
            main(["fleet", "--trace", "bursty-gpt", "--fleet", "warehouse"])

    def test_unknown_policy_exits_one(self):
        with pytest.raises(SystemExit, match="router policy"):
            main(["fleet", "--trace", "bursty-gpt", "--policy", "lifo"])

    def test_trace_out_is_valid_and_has_replica_tracks(self, tmp_path, capsys):
        trace_file = tmp_path / "fleet.json"
        main(["fleet", "--trace", "bursty-gpt", "--trace-out", str(trace_file),
              "--inject", "crash@0:100000:600000", "--metrics"])
        capsys.readouterr()
        main(["trace-report", "--input", str(trace_file), "--validate"])
        out = capsys.readouterr().out
        assert "valid trace-event JSON" in out
        payload = json.loads(trace_file.read_text())
        names = {event.get("args", {}).get("name")
                 for event in payload["traceEvents"]
                 if event.get("name") == "process_name"}
        assert any(name and name.startswith("replica0") for name in names)
        assert any(name and name.startswith("replica1") for name in names)
