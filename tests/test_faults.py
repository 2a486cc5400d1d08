"""Chaos suite for the deterministic fault-injection harness.

Asserts the serving stack degrades *gracefully* under injected faults: runs
terminate (no deadlock), every request lands in exactly one disposition
(conservation), two runs with the same seed are byte-identical, spiked
timings never poison the process-wide caches, and the budgeted policies
keep goodput strictly above FCFS under the same fault plan -- graceful
degradation versus collapse.
"""

import json

import pytest

from differential import assert_byte_identical

from repro.__main__ import main
from repro.faults import FaultInjector, FaultPlan
from repro.workloads import (
    DISPOSITIONS,
    ModelSpec,
    RequestSpec,
    ServingTrace,
    resolve_trace,
    run_serving,
)

TINY_GPT = ModelSpec(family="gpt", phase="decode", batch=1, seq_len=32,
                     hidden=128, blocks=1, heads=4)

#: The acceptance fault plan: kernel spikes plus iteration stalls, seeded.
PLAN_SPEC = "spike:0.35:3.0,stall:0.25:60000"
SEED = 7
KV_BUDGET = 300_000


def tiny_trace(arrivals=(0, 0, 40_000), decode_steps=2):
    requests = tuple(
        RequestSpec(
            request_id=f"f{index}",
            model=TINY_GPT,
            arrival_cycle=arrival,
            prompt_len=32,
            decode_steps=decode_steps,
        )
        for index, arrival in enumerate(arrivals)
    )
    return ServingTrace(name="chaos", requests=requests, context_bucket=32)


class TestFaultPlanParsing:
    def test_parse_full_spec(self):
        plan = FaultPlan.parse("spike:0.3:4.0,stall:0.2:5000,burst:0.5:30000", seed=11)
        assert plan.seed == 11
        assert plan.spike_rate == 0.3 and plan.spike_multiplier == 4.0
        assert plan.stall_rate == 0.2 and plan.stall_cycles == 5000
        assert plan.burst_rate == 0.5 and plan.burst_pull_cycles == 30000
        assert plan.active

    def test_parse_single_token_with_whitespace(self):
        plan = FaultPlan.parse(" spike : 0.1 : 2.0 ")
        assert plan.spike_rate == 0.1 and plan.spike_multiplier == 2.0

    def test_malformed_token(self):
        with pytest.raises(ValueError, match="malformed fault token 'wat'"):
            FaultPlan.parse("wat")

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown fault kind 'gamma'"):
            FaultPlan.parse("gamma:0.5:2")

    def test_non_numeric_fields(self):
        with pytest.raises(ValueError, match="is not a number"):
            FaultPlan.parse("spike:often:2.0")
        with pytest.raises(ValueError, match="is not an integer"):
            FaultPlan.parse("stall:0.5:soon")

    @pytest.mark.parametrize("spec, message", [
        ("spike:0.5:big", "spike multiplier 'big' is not a number"),
        ("burst:0.5:soon", "burst pull 'soon' is not an integer"),
        ("burst:0.5:1.5", "burst pull '1.5' is not an integer"),
    ])
    def test_bad_magnitude_names_the_field(self, spec, message):
        with pytest.raises(ValueError, match=message):
            FaultPlan.parse(spec)

    def test_negative_burst_pull_rejected(self):
        with pytest.raises(ValueError, match="burst_pull_cycles must be non-negative"):
            FaultPlan(burst_pull_cycles=-1)

    def test_empty_spec(self):
        with pytest.raises(ValueError, match="empty fault spec"):
            FaultPlan.parse("  ,  ")

    def test_plan_validation(self):
        with pytest.raises(ValueError, match="spike_rate"):
            FaultPlan(spike_rate=1.5)
        with pytest.raises(ValueError, match="spike_multiplier"):
            FaultPlan(spike_multiplier=0.5)
        with pytest.raises(ValueError, match="stall_cycles"):
            FaultPlan(stall_cycles=-1)

    def test_inactive_default(self):
        assert FaultPlan().active is False

    def test_to_dict_round_trip(self):
        plan = FaultPlan.parse(PLAN_SPEC, seed=SEED)
        assert FaultPlan(**plan.to_dict()) == plan


class TestFaultInjector:
    def test_decisions_are_seed_deterministic(self):
        a = FaultInjector(FaultPlan.parse(PLAN_SPEC, seed=3))
        b = FaultInjector(FaultPlan.parse(PLAN_SPEC, seed=3))
        assert [a.iteration_spike(i) for i in range(50)] == [
            b.iteration_spike(i) for i in range(50)
        ]
        assert [a.iteration_stall(i) for i in range(50)] == [
            b.iteration_stall(i) for i in range(50)
        ]

    def test_different_seeds_differ(self):
        a = FaultInjector(FaultPlan.parse(PLAN_SPEC, seed=0))
        b = FaultInjector(FaultPlan.parse(PLAN_SPEC, seed=1))
        assert [a.iteration_spike(i) for i in range(50)] != [
            b.iteration_spike(i) for i in range(50)
        ]

    def test_inactive_kinds_never_fire(self):
        injector = FaultInjector(FaultPlan(stall_rate=1.0, stall_cycles=0))
        assert all(injector.iteration_stall(i) == 0 for i in range(10))
        assert all(injector.iteration_spike(i) is None for i in range(10))

    def test_perturb_trace_pulls_arrivals_and_stays_valid(self):
        trace = tiny_trace(arrivals=(0, 100_000, 200_000))
        injector = FaultInjector(FaultPlan(seed=2, burst_rate=1.0, burst_pull_cycles=150_000))
        perturbed = injector.perturb_trace(trace)
        originals = {r.request_id: r.arrival_cycle for r in trace.requests}
        for request in perturbed.requests:
            assert request.arrival_cycle == max(0, originals[request.request_id] - 150_000)
        arrivals = [(r.arrival_cycle, r.request_id) for r in perturbed.requests]
        assert arrivals == sorted(arrivals)

    def test_zero_burst_rate_returns_trace_unchanged(self):
        trace = tiny_trace()
        injector = FaultInjector(FaultPlan(seed=2, stall_rate=0.5, stall_cycles=100))
        assert injector.perturb_trace(trace) is trace


class TestChaosRuns:
    def test_faulted_run_terminates_and_conserves_requests(self):
        trace = resolve_trace("bursty-slo")
        result = run_serving(trace, faults=PLAN_SPEC, fault_seed=SEED)
        assert sum(result.dispositions.values()) == len(trace.requests)
        assert len(result.requests) == len(trace.requests)
        for request in result.requests:
            assert request.disposition in DISPOSITIONS

    def test_conservation_holds_for_every_policy(self):
        trace = resolve_trace("bursty-slo")
        for policy in ("fcfs", "kv-budget", "preemptive-slo"):
            kv_budget = KV_BUDGET if policy != "fcfs" else None
            result = run_serving(
                trace, policy=policy, kv_budget=kv_budget,
                faults=PLAN_SPEC, fault_seed=SEED,
            )
            assert sum(result.dispositions.values()) == len(trace.requests), policy

    def test_same_seed_byte_identical(self):
        runs = [
            run_serving("bursty-slo", policy="preemptive-slo", kv_budget=KV_BUDGET,
                        faults=PLAN_SPEC, fault_seed=SEED)
            for _ in range(2)
        ]
        assert_byte_identical(runs[0], runs[1], context="same fault seed")

    def test_different_seed_differs(self):
        a = run_serving("bursty-slo", faults=PLAN_SPEC, fault_seed=SEED)
        b = run_serving("bursty-slo", faults=PLAN_SPEC, fault_seed=SEED + 1)
        assert json.dumps(a.to_dict()) != json.dumps(b.to_dict())

    def test_memo_off_byte_identical_under_faults(self):
        kwargs = dict(policy="preemptive-slo", kv_budget=KV_BUDGET,
                      faults=PLAN_SPEC, fault_seed=SEED)
        warm = run_serving("bursty-slo", iteration_memo=True, **kwargs)
        cold = run_serving("bursty-slo", iteration_memo=False, **kwargs)
        assert_byte_identical(warm, cold, context="memo on vs off under faults")

    def test_spikes_never_poison_caches(self):
        # Clean -> faulted -> clean: the third run must match the first
        # byte-for-byte, or a spiked timing leaked into the timing cache or
        # the iteration memo.
        trace = tiny_trace()
        before = run_serving(trace)
        run_serving(trace, faults="spike:1.0:5.0", fault_seed=1)
        after = run_serving(trace)
        assert_byte_identical(before, after, context="clean run after faulted run")

    def test_stalls_extend_makespan(self):
        trace = tiny_trace()
        clean = run_serving(trace)
        stalled = run_serving(trace, faults="stall:1.0:60000", fault_seed=1)
        assert stalled.total_cycles >= clean.total_cycles + 60_000
        assert clean.to_dict().get("faults") is None

    def test_fault_plan_recorded_in_result(self):
        result = run_serving(tiny_trace(), faults=PLAN_SPEC, fault_seed=SEED)
        encoded = result.to_dict()
        assert encoded["faults"]["seed"] == SEED
        assert encoded["faults"]["spike_multiplier"] == 3.0


class TestGracefulDegradation:
    def test_budgeted_policies_beat_fcfs_under_faults(self):
        """The acceptance inequality: graceful degradation, not collapse.

        Under the seeded spike+stall plan on the bursty SLO trace, admission
        control and preemption keep strictly more requests inside their SLOs
        than admit-everything FCFS.
        """
        goodput = {}
        for policy in ("fcfs", "kv-budget", "preemptive-slo"):
            kv_budget = KV_BUDGET if policy != "fcfs" else None
            result = run_serving(
                "bursty-slo", policy=policy, kv_budget=kv_budget,
                faults=PLAN_SPEC, fault_seed=SEED,
            )
            goodput[policy] = result.goodput
        assert goodput["kv-budget"] > goodput["fcfs"]
        assert goodput["preemptive-slo"] > goodput["fcfs"]

    def test_budgeted_policies_beat_fcfs_without_faults(self):
        goodput = {}
        for policy in ("fcfs", "preemptive-slo"):
            kv_budget = KV_BUDGET if policy != "fcfs" else None
            result = run_serving("bursty-slo", policy=policy, kv_budget=kv_budget)
            goodput[policy] = result.goodput
        assert goodput["preemptive-slo"] > goodput["fcfs"]


class TestInjectCli:
    def test_inject_flag_json_is_seed_deterministic(self, capsys):
        argv = ["serve", "--trace", "bursty-slo", "--policy", "preemptive-slo",
                "--kv-budget", str(KV_BUDGET), "--inject", PLAN_SPEC,
                "--fault-seed", str(SEED), "--json"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second
        report = json.loads(first)
        assert report["faults"]["seed"] == SEED

    def test_malformed_inject_exits_friendly(self):
        with pytest.raises(SystemExit, match="malformed fault token"):
            main(["serve", "--trace", "bursty-slo", "--inject", "wat"])

    def test_unknown_fault_kind_exits_friendly(self):
        with pytest.raises(SystemExit, match="unknown fault kind"):
            main(["serve", "--trace", "bursty-slo", "--inject", "gamma:0.5:2"])
