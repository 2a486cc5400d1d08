"""Tests for the serving control plane: SLO classes, policies, dispositions.

Covers the policy layer in isolation (pure decision functions over stub
queue/batch state), the scheduler integration (goodput, dispositions,
preemption accounting, memo byte-identity under preemption), and the CLI
surface (--policy / --kv-budget flags, friendly errors).  The chaos-side
coverage (fault injection, graceful degradation) lives in
``tests/test_faults.py``.
"""

import json
from dataclasses import dataclass, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from differential import assert_byte_identical

from repro.__main__ import main
from repro.analysis.serving import serving_latency_report
from repro.config.presets import DesignKind
from repro.config.soc import DataType
from repro.workloads import (
    DISPOSITIONS,
    FcfsPolicy,
    KvBudgetPolicy,
    ModelSpec,
    PolicyContext,
    PreemptiveSloPolicy,
    RequestSpec,
    ServingScheduler,
    ServingTrace,
    SloClass,
    TRACE_ZOO,
    poisson_stream_trace,
    policy_names,
    request_kv_bytes,
    resolve_policy,
    resolve_slo,
    resolve_trace,
    run_serving,
    slo_trace,
)
from repro.workloads.control import SLO_CLASSES, evaluate_disposition

TINY_GPT = ModelSpec(family="gpt", phase="decode", batch=1, seq_len=32,
                     hidden=128, blocks=1, heads=4)

INTERACTIVE = SLO_CLASSES["interactive"]
STANDARD = SLO_CLASSES["standard"]
BATCH = SLO_CLASSES["batch"]


def request(rid, arrival=0, slo=None, prompt_len=32, decode_steps=2):
    return RequestSpec(
        request_id=rid,
        model=TINY_GPT,
        arrival_cycle=arrival,
        prompt_len=prompt_len,
        decode_steps=decode_steps,
        slo=slo,
    )


def trace_of(*requests, bucket=32):
    ordered = tuple(sorted(requests, key=lambda r: (r.arrival_cycle, r.request_id)))
    return ServingTrace(name="control", requests=ordered, context_bucket=bucket)


@dataclass
class Queued:
    """Stub of the scheduler's queued-entry state the policy hooks see."""

    request: RequestSpec
    enqueued_cycle: int = 0
    steps_done: int = 0


@dataclass
class Active:
    """Stub of the scheduler's in-flight state the policy hooks see."""

    request: RequestSpec
    resident_since: int = 0
    steps_done: int = 0


def context_for(trace, kv_budget_bytes):
    design = ServingScheduler(DesignKind.VIRGO).design
    return PolicyContext(
        design=design,
        dtype=DataType.FP16,
        trace=trace,
        kv_budget_bytes=kv_budget_bytes,
    )


#: KV bytes of one TINY_GPT request at the 32-token bucket: the unit every
#: budget below is expressed in, so the tests read in "requests", not bytes.
UNIT = request_kv_bytes(TINY_GPT, 32, DataType.FP16)


class TestSloClasses:
    def test_validation(self):
        with pytest.raises(ValueError, match="non-empty name"):
            SloClass(name="")
        with pytest.raises(ValueError, match="ttft_target_cycles"):
            SloClass(name="x", ttft_target_cycles=0)
        with pytest.raises(ValueError, match="queue_deadline_cycles"):
            SloClass(name="x", queue_deadline_cycles=-5)

    def test_resolve_by_name_and_passthrough(self):
        assert resolve_slo("interactive") is INTERACTIVE
        custom = SloClass(name="custom", priority=9)
        assert resolve_slo(custom) is custom

    def test_unknown_class_lists_choices(self):
        with pytest.raises(KeyError, match="batch, interactive, standard"):
            resolve_slo("platinum")

    def test_builtin_classes_order_by_priority(self):
        assert INTERACTIVE.priority > STANDARD.priority > BATCH.priority
        assert BATCH.ttft_target_cycles is None
        assert BATCH.queue_deadline_cycles is None

    def test_to_dict_round_trips_fields(self):
        encoded = INTERACTIVE.to_dict()
        assert encoded["name"] == "interactive"
        assert encoded["priority"] == 2
        assert encoded["ttft_target_cycles"] == INTERACTIVE.ttft_target_cycles


class TestKvBytes:
    def test_request_kv_bytes_arithmetic(self):
        # 2 (K and V) * blocks * kv_heads * head_dim * context * dtype bytes.
        assert request_kv_bytes(TINY_GPT, 32, DataType.FP16) == 2 * 1 * 4 * 32 * 32 * 2

    def test_gqa_shrinks_kv_footprint(self):
        gqa = replace(TINY_GPT, kv_heads=1)
        assert request_kv_bytes(gqa, 32, DataType.FP16) == UNIT // 4


class TestResolvePolicy:
    def test_default_is_fcfs(self):
        assert resolve_policy(None).name == "fcfs"
        assert isinstance(resolve_policy("fcfs"), FcfsPolicy)

    def test_names_cover_registry(self):
        assert policy_names() == ["fcfs", "kv-budget", "preemptive-slo"]

    def test_unknown_policy_lists_choices(self):
        with pytest.raises(KeyError, match="fcfs, kv-budget, preemptive-slo"):
            resolve_policy("bogus")

    def test_fcfs_rejects_budget(self):
        with pytest.raises(ValueError, match="fcfs policy has no KV budget"):
            resolve_policy("fcfs", kv_budget=1024)

    def test_instance_passthrough_rejects_budget_alongside(self):
        policy = KvBudgetPolicy(budget_bytes=UNIT)
        assert resolve_policy(policy) is policy
        with pytest.raises(ValueError, match="policy constructor"):
            resolve_policy(policy, kv_budget=UNIT)

    def test_budget_must_be_positive(self):
        with pytest.raises(ValueError, match="positive budget"):
            KvBudgetPolicy(budget_bytes=0)


class TestKvBudgetPolicy:
    def test_admit_stops_at_budget(self):
        trace = trace_of(request("a"), request("b"), request("c"))
        ctx = context_for(trace, kv_budget_bytes=2 * UNIT)
        queued = [Queued(request(rid)) for rid in ("a", "b", "c")]
        admitted = KvBudgetPolicy().admit(queued, [], now=0, ctx=ctx)
        assert [entry.request.request_id for entry in admitted] == ["a", "b"]

    def test_admit_counts_resident_kv(self):
        trace = trace_of(request("a"), request("b"))
        ctx = context_for(trace, kv_budget_bytes=2 * UNIT)
        active = [Active(request("a"))]
        admitted = KvBudgetPolicy().admit([Queued(request("b"))], active, 0, ctx)
        assert len(admitted) == 1
        admitted = KvBudgetPolicy(budget_bytes=UNIT).admit(
            [Queued(request("b"))], active, 0, ctx
        )
        assert admitted == []

    def test_admit_prefers_priority_over_queue_age(self):
        # The older low-priority waiter loses the single slot to the younger
        # high-priority one: admission order is (priority desc, age, id).
        trace = trace_of(
            request("old-batch", slo=BATCH), request("new-vip", slo=INTERACTIVE)
        )
        ctx = context_for(trace, kv_budget_bytes=UNIT)
        queued = [
            Queued(request("old-batch", slo=BATCH), enqueued_cycle=0),
            Queued(request("new-vip", slo=INTERACTIVE), enqueued_cycle=100),
        ]
        admitted = KvBudgetPolicy().admit(queued, [], 200, ctx)
        assert [entry.request.request_id for entry in admitted] == ["new-vip"]

    def test_shed_expired_deadlines_only(self):
        trace = trace_of(request("vip", slo=INTERACTIVE), request("bulk", slo=BATCH))
        ctx = context_for(trace, kv_budget_bytes=UNIT)
        deadline = INTERACTIVE.queue_deadline_cycles
        queued = [
            Queued(request("vip", slo=INTERACTIVE), enqueued_cycle=0),
            Queued(request("bulk", slo=BATCH), enqueued_cycle=0),
        ]
        policy = KvBudgetPolicy()
        assert policy.shed(queued, now=deadline, ctx=ctx) == []
        shed = policy.shed(queued, now=deadline + 1, ctx=ctx)
        # The batch-class request has no deadline and is never shed.
        assert [entry.request.request_id for entry in shed] == ["vip"]


class TestPreemptiveSloPolicy:
    def test_evicts_longest_resident_lower_priority(self):
        trace = trace_of(
            request("bulk0", slo=BATCH),
            request("bulk1", slo=BATCH),
            request("vip", slo=INTERACTIVE, arrival=10),
        )
        ctx = context_for(trace, kv_budget_bytes=2 * UNIT)
        active = [
            Active(request("bulk1", slo=BATCH), resident_since=5),
            Active(request("bulk0", slo=BATCH), resident_since=0),
        ]
        queued = [Queued(request("vip", slo=INTERACTIVE), enqueued_cycle=10)]
        evicted = PreemptiveSloPolicy().evict(active, queued, now=10, ctx=ctx)
        assert [state.request.request_id for state in evicted] == ["bulk0"]

    def test_never_evicts_equal_or_higher_priority(self):
        trace = trace_of(
            request("std", slo=STANDARD), request("vip", slo=INTERACTIVE, arrival=10)
        )
        ctx = context_for(trace, kv_budget_bytes=UNIT)
        active = [Active(request("vip", slo=INTERACTIVE))]
        queued = [Queued(request("std", slo=STANDARD), enqueued_cycle=10)]
        assert PreemptiveSloPolicy().evict(active, queued, 10, ctx) == []

    def test_no_waiters_no_evictions(self):
        trace = trace_of(request("a", slo=BATCH))
        ctx = context_for(trace, kv_budget_bytes=UNIT)
        assert PreemptiveSloPolicy().evict([Active(request("a"))], [], 0, ctx) == []


class TestEvaluateDisposition:
    def test_no_slo_is_met(self):
        assert evaluate_disposition(request("r"), 10**9, 10**9) == "met"

    def test_ttft_target(self):
        vip = request("r", slo=INTERACTIVE)
        target = INTERACTIVE.ttft_target_cycles
        assert evaluate_disposition(vip, target, target + 1) == "met"
        assert evaluate_disposition(vip, target + 1, target + 2) == "violated"

    def test_tpot_target(self):
        slo = SloClass(name="tpot-only", tpot_target_cycles=100)
        r = request("r", slo=slo, decode_steps=3)
        # latency - ttft spread over decode_steps - 1 subsequent tokens.
        assert evaluate_disposition(r, 50, 50 + 200) == "met"
        assert evaluate_disposition(r, 50, 50 + 201) == "violated"

    def test_single_step_ignores_tpot(self):
        slo = SloClass(name="tpot-only", tpot_target_cycles=1)
        assert evaluate_disposition(request("r", slo=slo, decode_steps=1), 5, 5) == "met"


def assert_default_control_plane(encoded):
    """A default run (fcfs, no SLOs, no faults): every request met, nothing evicted."""
    assert encoded["policy"] == "fcfs"
    assert encoded["goodput"] == 1.0
    assert encoded["dispositions"] == {
        "met": len(encoded["requests"]), "violated": 0, "shed": 0, "timed_out": 0
    }
    assert encoded["preemption_count"] == 0
    assert encoded["faults"] is None
    for req in encoded["requests"]:
        assert req["disposition"] == "met"
        assert req["slo_class"] is None
        assert req["preemptions"] == 0
        assert req["terminal_cycle"] == req["finish_cycle"]


class TestSchedulerIntegration:
    def test_fcfs_run_reports_the_default_control_plane(self):
        result = run_serving(trace_of(request("a"), request("b")))
        assert_default_control_plane(result.to_dict())

    def test_episode_replayed_requests_report_the_default_control_plane(self):
        result = run_serving(poisson_stream_trace("sparse", requests=200, seed=5))
        assert result.epochs["extrapolated_requests"] > 0
        assert_default_control_plane(result.to_dict())

    def test_episode_replayed_requests_are_judged_per_slo_class(self):
        # One episode run mixes two classes; each request gets its own
        # class's verdict, exactly as the uncompressed loop judges it.
        tight = SloClass("tight", ttft_target_cycles=1)
        trace = slo_trace(
            "sparse-slo",
            poisson_stream_trace("sparse", requests=200, seed=5),
            classes=(tight, SloClass("loose")),
        )
        compressed = run_serving(trace)
        exact = run_serving(trace, epoch_compression=False)
        assert compressed.epochs["extrapolated_requests"] > 0
        assert_byte_identical(compressed, exact, context="per-class verdicts")
        assert compressed.dispositions == {
            "met": 100, "violated": 100, "shed": 0, "timed_out": 0
        }
        for req in compressed.requests:
            assert req.disposition == ("violated" if req.slo_class == "tight" else "met")

    def test_slo_trace_reports_dispositions(self):
        result = run_serving(trace_of(request("a", slo=BATCH)))
        assert result.policy == "fcfs"
        assert result.goodput == 1.0
        assert result.to_dict()["dispositions"] == {
            "met": 1, "violated": 0, "shed": 0, "timed_out": 0
        }

    def test_slo_zoo_traces_registered(self):
        bursty = slo_trace("x", "bursty-gpt")
        assert all(r.slo is not None for r in bursty.requests)
        classes = {r.slo.name for r in bursty.requests}
        assert classes == {"interactive", "standard", "batch"}

    def test_preemption_under_tight_budget(self):
        trace = trace_of(
            request("bulk0", slo=BATCH, decode_steps=4),
            request("bulk1", slo=BATCH, decode_steps=4),
            request("vip", slo=INTERACTIVE, arrival=1, decode_steps=2),
        )
        result = run_serving(trace, policy="preemptive-slo", kv_budget=2 * UNIT)
        assert result.preemption_count >= 1
        by_id = {r.request_id: r for r in result.requests}
        assert by_id["vip"].disposition in ("met", "violated")
        # Preempted requests resume and still finish: nothing is lost.
        assert sum(result.dispositions.values()) == len(trace.requests)
        assert all(r.preemptions >= 0 for r in result.requests)

    def test_memo_off_byte_identical_under_preemption(self):
        trace = trace_of(
            request("bulk0", slo=BATCH, decode_steps=4),
            request("bulk1", slo=BATCH, decode_steps=4),
            request("vip", slo=INTERACTIVE, arrival=1, decode_steps=2),
        )
        kwargs = dict(policy="preemptive-slo", kv_budget=2 * UNIT)
        warm = run_serving(trace, iteration_memo=True, **kwargs)
        cold = run_serving(trace, iteration_memo=False, **kwargs)
        assert warm.preemption_count >= 1
        assert_byte_identical(warm, cold, context="memo on vs off under preemption")

    def test_each_eviction_counts_one_preemption_of_its_request(self):
        trace = trace_of(
            request("bulk0", slo=BATCH, decode_steps=4),
            request("bulk1", slo=BATCH, decode_steps=4),
            request("vip", slo=INTERACTIVE, arrival=1, decode_steps=2),
        )
        result = run_serving(trace, policy="preemptive-slo", kv_budget=2 * UNIT)
        assert result.preemption_count >= 1
        assert sum(r.preemptions for r in result.requests) == result.preemption_count


#: Hypothesis strategy: small SLO-annotated traces over one tiny model.
@st.composite
def slo_traces(draw):
    count = draw(st.integers(1, 5))
    classes = (INTERACTIVE, STANDARD, BATCH, None)
    requests = []
    for index in range(count):
        requests.append(
            RequestSpec(
                request_id=f"p{index}",
                model=TINY_GPT,
                arrival_cycle=draw(st.integers(0, 400_000)),
                prompt_len=draw(st.integers(1, 96)),
                decode_steps=draw(st.integers(1, 3)),
                slo=draw(st.sampled_from(classes)),
            )
        )
    requests.sort(key=lambda r: (r.arrival_cycle, r.request_id))
    return ServingTrace(name="prop", requests=tuple(requests), context_bucket=32)


class TestDispositionPartition:
    @settings(deadline=None, max_examples=10)
    @given(trace=slo_traces(), policy=st.sampled_from(policy_names()))
    def test_every_request_in_exactly_one_disposition(self, trace, policy):
        kv_budget = 2 * UNIT if policy != "fcfs" else None
        result = run_serving(trace, policy=policy, kv_budget=kv_budget)
        assert set(result.dispositions) == set(DISPOSITIONS)
        assert sum(result.dispositions.values()) == len(trace.requests)
        assert len(result.requests) == len(trace.requests)
        for req in result.requests:
            assert req.disposition in DISPOSITIONS
        counted = {name: 0 for name in DISPOSITIONS}
        for req in result.requests:
            counted[req.disposition] += 1
        assert counted == dict(result.dispositions)
        assert result.goodput == counted["met"] / len(trace.requests)


#: The one key list of every serving result, request and latency report,
#: whatever the policy, SLO classes and faults.
RESULT_KEYS = [
    "kind", "trace", "design", "heterogeneous", "context_bucket", "total_cycles",
    "serving_cycles", "iteration_count", "decode_steps_executed", "mean_batch",
    "tokens_per_kilocycle", "kernel_count", "energy_uj", "resource_busy_cycles",
    "requests", "iterations", "metrics", "policy", "goodput", "dispositions",
    "preemption_count", "faults",
]
REQUEST_KEYS = [
    "request_id", "model_family", "arrival_cycle", "admitted_cycle",
    "first_token_cycle", "finish_cycle", "prompt_len", "decode_steps",
    "latency_cycles", "ttft_cycles", "queueing_cycles", "disposition",
    "slo_class", "preemptions", "terminal_cycle",
]
LATENCY_KEYS = [
    "kind", "trace", "design", "heterogeneous", "requests", "iterations",
    "makespan_cycles", "serving_cycles", "decode_steps", "mean_batch",
    "tokens_per_kilocycle", "latency_cycles", "ttft_cycles", "queueing_cycles",
    "unit_occupancy_percent", "policy", "goodput", "dispositions", "preemption_count",
]
SPEC_KEYS = ["request_id", "arrival_cycle", "prompt_len", "decode_steps", "model", "slo"]


class TestOneEncoding:
    @settings(deadline=None, max_examples=25)
    @given(
        name=st.sampled_from(sorted(TRACE_ZOO)),
        with_slo=st.booleans(),
        policy=st.sampled_from(policy_names()),
        fault_seed=st.none() | st.integers(0, 1_000),
    )
    def test_every_run_encodes_one_key_list(self, name, with_slo, policy, fault_seed):
        trace = slo_trace(f"{name}-slo", name) if with_slo else resolve_trace(name)
        result = run_serving(
            trace,
            policy=policy,
            kv_budget=300_000 if policy != "fcfs" else None,
            faults="spike:0.35:3.0,stall:0.25:60000" if fault_seed is not None else None,
            fault_seed=fault_seed or 0,
        )
        encoded = result.to_dict()
        assert list(encoded) == RESULT_KEYS
        for req in encoded["requests"]:
            assert list(req) == REQUEST_KEYS
        assert list(serving_latency_report(result)) == LATENCY_KEYS
        for spec in trace.requests:
            assert list(spec.to_dict()) == SPEC_KEYS


class TestControlCli:
    def test_policy_flag_renders_goodput_and_dispositions(self, capsys):
        assert main([
            "serve", "--trace", "bursty-slo", "--policy", "kv-budget",
            "--kv-budget", "300000",
        ]) == 0
        out = capsys.readouterr().out
        assert "goodput" in out
        assert "disposition" in out

    def test_json_report_carries_control_keys(self, capsys):
        assert main([
            "serve", "--trace", "bursty-slo", "--policy", "preemptive-slo",
            "--kv-budget", "300000", "--json",
        ]) == 0
        report = json.loads(capsys.readouterr().out)
        latency = report["latency_report"]
        assert latency["policy"] == "preemptive-slo"
        assert set(latency["dispositions"]) == set(DISPOSITIONS)
        assert 0.0 <= latency["goodput"] <= 1.0

    def test_unknown_policy_exits_with_choices(self):
        with pytest.raises(SystemExit, match="kv-budget"):
            main(["serve", "--trace", "bursty-slo", "--policy", "bogus"])

    def test_fcfs_with_budget_exits_friendly(self):
        with pytest.raises(SystemExit, match="no KV budget"):
            main(["serve", "--trace", "bursty-slo", "--kv-budget", "1024"])

    def test_default_serve_prints_dispositions_and_policy(self, capsys):
        # No policy, no SLOs, no faults: the one table layout, with every
        # request met and the default policy line.
        assert main(["serve", "--trace", "uniform-moe"]) == 0
        out = capsys.readouterr().out
        header = next(line for line in out.splitlines() if line.startswith("request "))
        assert header.split()[-1] == "disposition"
        ids = {f"u{index}" for index in range(6)}
        rows = [line.split() for line in out.splitlines() if line.split(" ", 1)[0] in ids]
        assert len(rows) == 6 and all(row[-1] == "met" for row in rows)
        assert (
            "policy fcfs: goodput 1.000 "
            "(met 6  violated 0  shed 0  timed_out 0; 0 preemptions)"
        ) in out
