"""Property-based tests (hypothesis) for the fleet router's math and chaos.

Three families of invariants:

1. **Retry/backoff arithmetic** -- for every (base, cap, attempt, seed,
   request) the backoff window grows exponentially until it saturates at
   the cap, the jittered delay always lands in ``[window/2, window)`` (and
   never below one cycle), and the draw is a pure function of its key --
   re-evaluating it never changes the answer, and an exhausted retry
   budget always lands the request on ``timed_out``.

2. **Disposition partition** -- under *any* seeded fault plan (random
   crash/slow/partition rates, durations and seeds) and every router
   policy, each request ends in exactly one of ``FLEET_DISPOSITIONS``, the
   census sums to the request count, and the run is reproducible: the same
   arguments give a byte-identical canonical encoding.

3. **Epoch compression is exact** -- on long-decode traces, where epochs
   run for tens of iterations and straddle arrivals, dispatches, crashes
   and slow windows on other replicas, ``epoch_extrapolation`` changes
   neither the canonical encoding nor the memo and timing-cache totals.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from differential import assert_byte_identical

from repro.faults import FleetFaultPlan
from repro.perf import timing_cache
from repro.workloads import (
    FLEET_DISPOSITIONS,
    ROUTER_POLICIES,
    ModelSpec,
    RequestSpec,
    RouterConfig,
    ServingTrace,
    backoff_cycles,
    resolve_slo,
    run_fleet,
)

TINY_GPT = ModelSpec(family="gpt", phase="decode", batch=1, seq_len=32,
                     hidden=128, blocks=1, heads=4)

#: Mixing SLO-free (priority 0, sheddable) and SLO-carrying requests keeps
#: every disposition reachable under the generated fault plans.
SLOS = (None, resolve_slo("standard"), resolve_slo("interactive"))


@st.composite
def fleet_traces(draw):
    count = draw(st.integers(1, 4))
    arrivals = sorted(draw(st.integers(0, 200_000)) for _ in range(count))
    requests = tuple(
        RequestSpec(
            request_id=f"p{index}",
            model=TINY_GPT,
            arrival_cycle=arrival,
            prompt_len=32,
            decode_steps=draw(st.integers(1, 3)),
            slo=SLOS[draw(st.integers(0, len(SLOS) - 1))],
        )
        for index, arrival in enumerate(arrivals)
    )
    return ServingTrace(name="prop-fleet", requests=requests, context_bucket=32)


@st.composite
def long_decode_traces(draw):
    count = draw(st.integers(1, 14))
    arrivals = sorted(draw(st.integers(0, 600_000)) for _ in range(count))
    requests = tuple(
        RequestSpec(
            request_id=f"l{index:02d}",
            model=TINY_GPT,
            arrival_cycle=arrival,
            prompt_len=draw(st.sampled_from((8, 30, 32, 60))),
            decode_steps=draw(st.integers(1, 60)),
            slo=SLOS[draw(st.integers(0, len(SLOS) - 1))],
        )
        for index, arrival in enumerate(arrivals)
    )
    bucket = draw(st.sampled_from((16, 32)))
    return ServingTrace(name="prop-long", requests=requests, context_bucket=bucket)


@st.composite
def fault_plans(draw):
    return FleetFaultPlan(
        seed=draw(st.integers(0, 2**16)),
        crash_rate=draw(st.floats(0.0, 1.0, allow_nan=False)),
        crash_down_cycles=draw(st.integers(1, 2_000_000)),
        slow_rate=draw(st.floats(0.0, 1.0, allow_nan=False)),
        slow_scale=draw(st.floats(1.0, 8.0, allow_nan=False)),
        slow_cycles=draw(st.integers(1, 1_000_000)),
        partition_rate=draw(st.floats(0.0, 1.0, allow_nan=False)),
        partition_cycles=draw(st.integers(1, 500_000)),
    )


class TestBackoffProperties:
    @given(base=st.integers(1, 10_000), doublings=st.integers(0, 20),
           attempt=st.integers(0, 64), seed=st.integers(0, 2**32),
           request=st.text(min_size=1, max_size=8))
    @settings(deadline=None, max_examples=200)
    def test_delay_stays_inside_the_capped_window(self, base, doublings,
                                                  attempt, seed, request):
        cap = base * (1 << doublings)
        window = min(cap, base * (1 << min(attempt, doublings)))
        delay = backoff_cycles(attempt, base=base, cap=cap, seed=seed,
                               request_id=request)
        assert 1 <= delay < max(2, window)
        assert delay >= window // 2

    @given(base=st.integers(1, 1000), attempt=st.integers(0, 30),
           seed=st.integers(0, 2**16))
    @settings(deadline=None, max_examples=100)
    def test_windows_grow_monotonically_until_the_cap(self, base, attempt, seed):
        # Comparing lower bounds: delay(n+1)'s window is twice delay(n)'s
        # until saturation, so min-possible(n+1) >= max-possible(n)/2.
        cap = base * 1024
        here = backoff_cycles(attempt, base=base, cap=cap, seed=seed,
                              request_id="m")
        next_up = backoff_cycles(attempt + 1, base=base, cap=cap, seed=seed,
                                 request_id="m")
        window_here = min(cap, base * (1 << attempt)) if attempt <= 10 else cap
        assert next_up >= window_here // 2
        assert here <= cap and next_up <= cap

    @given(attempt=st.integers(0, 40), seed=st.integers(0, 2**32),
           request=st.text(min_size=1, max_size=12))
    @settings(deadline=None, max_examples=100)
    def test_draws_are_pure_functions_of_their_key(self, attempt, seed, request):
        args = dict(base=500, cap=64_000, seed=seed, request_id=request)
        assert backoff_cycles(attempt, **args) == backoff_cycles(attempt, **args)

    @given(budget=st.integers(0, 3), seed=st.integers(0, 2**16))
    @settings(deadline=None, max_examples=10)
    def test_exhausted_retry_budget_times_out(self, budget, seed):
        # A partition outlasting any possible backoff sequence: whatever the
        # budget, the request must end "timed_out" -- never hang, never
        # silently vanish.
        trace = ServingTrace(
            name="exhaust",
            requests=(RequestSpec(request_id="x", model=TINY_GPT,
                                  prompt_len=32, decode_steps=1,
                                  slo=resolve_slo("interactive")),),
            context_bucket=32,
        )
        config = RouterConfig(max_retries=budget, retry_base_cycles=50,
                              retry_cap_cycles=400, dispatch_timeout=50,
                              seed=seed)
        result = run_fleet(trace, 2, config=config,
                           faults="partition@0:0:99000000,partition@1:0:99000000")
        # Exhaustion can land two ways: the budget burns down against
        # believed-up-but-unreachable replicas (budget + 1 recorded tries),
        # or every replica's belief flips down first, the request parks and
        # its class's queue deadline fires.  Either way: "timed_out", and
        # never more tries than the budget allows.
        assert result.requests[0].disposition == "timed_out"
        assert result.requests[0].retries <= budget + 1
        assert result.retry_count == result.requests[0].retries


class TestDispositionPartition:
    @given(trace=fleet_traces(), plan=fault_plans(),
           policy=st.sampled_from(sorted(ROUTER_POLICIES)),
           replicas=st.integers(1, 3))
    @settings(deadline=None, max_examples=25)
    def test_every_request_gets_exactly_one_disposition(self, trace, plan,
                                                        policy, replicas):
        result = run_fleet(trace, replicas, policy=policy, faults=plan)
        assert len(result.requests) == len(trace)
        for request in result.requests:
            assert request.disposition in FLEET_DISPOSITIONS
        assert sum(result.dispositions.values()) == len(trace)
        for name in FLEET_DISPOSITIONS:
            assert result.dispositions[name] == sum(
                1 for request in result.requests
                if request.disposition == name
            )
        assert 0.0 <= result.goodput <= 1.0
        assert 0.0 <= result.availability <= 1.0

    @given(trace=fleet_traces(), plan=fault_plans(),
           policy=st.sampled_from(sorted(ROUTER_POLICIES)))
    @settings(deadline=None, max_examples=8)
    def test_reruns_are_byte_identical(self, trace, plan, policy):
        first = run_fleet(trace, 2, policy=policy, faults=plan)
        again = run_fleet(trace, 2, policy=policy, faults=plan)
        assert json.dumps(first.to_dict(), sort_keys=True) == \
            json.dumps(again.to_dict(), sort_keys=True)


class TestEpochCompression:
    @given(trace=long_decode_traces(), plan=fault_plans(),
           policy=st.sampled_from(sorted(ROUTER_POLICIES)),
           replicas=st.integers(1, 3),
           max_outstanding=st.sampled_from((None, 2, 4)))
    @settings(deadline=None, max_examples=30)
    def test_compressed_equals_exact(self, trace, plan, policy, replicas,
                                     max_outstanding):
        config = RouterConfig(max_outstanding=max_outstanding)
        runs = []
        for extrapolate in (False, True):
            timing_cache().clear()
            runs.append(run_fleet(trace, replicas, policy=policy, config=config,
                                  faults=plan, epoch_extrapolation=extrapolate))
        exact, compressed = runs
        assert_byte_identical(compressed.to_dict(), exact.to_dict())
        assert compressed.perf["iteration_memo"] == exact.perf["iteration_memo"]
        assert compressed.perf["timing_cache"] == exact.perf["timing_cache"]
