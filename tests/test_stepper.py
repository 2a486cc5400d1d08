"""One serving stepper: a fault-free fleet of one replica equals ``serve``.

``run_serving`` and every fleet replica step iterations on the same
``_Stepper``; the router only adds barriers.  These tests pin that seam:

* **zoo matrix** -- every trace-zoo entry on all four designs (plus the
  heterogeneous Virgo): the same request stamps, dispositions, SLO classes
  and terminal cycles, goodput, iteration count, serving cycles, kernel
  count, energy, busy cycles and memo / timing-cache totals.  The cache is cleared before every run, because
  memo totals are process state;
* **tie-heavy property** -- short traces whose arrivals land exactly on a
  solo request's iteration boundaries (inside its epochs and between them):
  a fleet of one still equals ``serve``, and epoch compression equals the
  exact path on one- and two-replica fleets;
* **the tie rule, pinned** -- an iteration that starts at cycle ``t`` is
  computed after every router event at ``t``: a dispatch at a busy
  replica's boundary joins that iteration, a crash there aborts nothing,
  and a slow window starting there slows the iteration that starts there;
  same-cycle offers join a replica in request-id order.
"""

from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from differential import assert_byte_identical

from repro.config.presets import DesignKind
from repro.perf import timing_cache
from repro.workloads import (
    REQUEST_MODELS,
    TRACE_ZOO,
    RequestSpec,
    ServingScheduler,
    ServingTrace,
    run_fleet,
    run_serving,
)
from repro.workloads.serving import _InFlight as _Queued, _Stepper

CELLS = [(design.value, False) for design in DesignKind] + [("virgo", True)]


def _serve_and_fleet_of_one(trace, design="virgo", heterogeneous=False, **fleet_kwargs):
    timing_cache().clear()
    served = run_serving(trace, design, heterogeneous=heterogeneous)
    timing_cache().clear()
    fleet = run_fleet(trace, [design], heterogeneous=heterogeneous, **fleet_kwargs)
    return served, fleet


def _stamps(requests):
    return [
        (
            request.request_id,
            request.admitted_cycle,
            request.first_token_cycle,
            request.finish_cycle,
            request.disposition,
            request.slo_class,
            request.terminal_cycle,
        )
        for request in requests
    ]


@pytest.mark.parametrize("design,heterogeneous", CELLS)
@pytest.mark.parametrize("name", sorted(TRACE_ZOO))
def test_fleet_of_one_equals_serve_on_the_zoo(name, design, heterogeneous):
    served, fleet = _serve_and_fleet_of_one(TRACE_ZOO[name], design, heterogeneous)
    (replica,) = fleet.replicas
    assert _stamps(fleet.requests) == _stamps(served.requests)
    assert fleet.goodput == served.goodput
    assert (replica.iterations, replica.serving_cycles, replica.kernel_count) == (
        served.iteration_count,
        served.serving_cycles,
        served.kernel_count,
    )
    assert replica.energy_uj == served.energy_uj  # bit-exact, not approx
    assert replica.resource_busy == served.resource_busy
    assert fleet.perf["iteration_memo"] == served.iteration_memo
    assert fleet.perf["timing_cache"] == served.timing_cache


GPT = REQUEST_MODELS["gpt-request"]
MOE = REQUEST_MODELS["moe-request"]


@lru_cache(maxsize=None)
def _solo_spans(model, prompt_len, decode_steps, bucket):
    """Each iteration span of one request served alone from cycle 0."""
    trace = ServingTrace(
        "solo", (RequestSpec("solo", model, 0, prompt_len, decode_steps),), bucket
    )
    return tuple(record.span_cycles for record in run_serving(trace, "virgo").iterations)


@st.composite
def tie_traces(draw):
    """2-6 requests; each gap is 0, a sum of the previous request's solo
    iteration spans (an exact boundary while it runs alone), or random."""
    bucket = draw(st.sampled_from((16, 32, 64)))
    requests = []
    arrival = 0
    for index in range(draw(st.integers(2, 6))):
        model = draw(st.sampled_from((GPT, GPT, MOE)))
        prompt_len = draw(st.sampled_from((8, 30, 60, 128)))
        decode_steps = draw(st.integers(1, 8))
        if requests:
            previous = requests[-1]
            kind = draw(st.sampled_from(("zero", "boundary", "boundary", "random")))
            if kind == "boundary":
                spans = _solo_spans(
                    previous.model, previous.prompt_len, previous.decode_steps, bucket
                )
                arrival += sum(spans[: draw(st.integers(1, len(spans)))])
            elif kind == "random":
                arrival += draw(st.integers(0, 400_000))
        requests.append(
            RequestSpec(f"t{index}", model, arrival, prompt_len, decode_steps)
        )
    return ServingTrace("ties", tuple(requests), bucket)


@settings(max_examples=80, deadline=None)
@given(trace=tie_traces())
def test_fleet_of_one_equals_serve_at_iteration_boundaries(trace):
    served = run_serving(trace, "virgo")
    fleet = run_fleet(trace, 1)
    assert _stamps(fleet.requests) == _stamps(served.requests)
    assert fleet.replicas[0].serving_cycles == served.serving_cycles
    assert fleet.replicas[0].iterations == served.iteration_count
    for replicas in (1, 2):
        exact = run_fleet(trace, replicas, epoch_extrapolation=False)
        compressed = run_fleet(trace, replicas)
        assert_byte_identical(compressed.to_dict(), exact.to_dict(), context=trace.name)


def _boundary_trace(second_arrival):
    """The ``poisson-mixed`` GPT model: A alone from cycle 0, then B."""
    zoo = TRACE_ZOO["poisson-mixed"]
    gpt = next(request.model for request in zoo.requests if request.model.family == "gpt")
    return ServingTrace(
        "boundary",
        (
            RequestSpec("A", gpt, 0, prompt_len=128, decode_steps=6),
            RequestSpec("B", gpt, second_arrival, prompt_len=128, decode_steps=3),
        ),
        zoo.context_bucket,
    )


def _boundaries():
    served = run_serving(_boundary_trace(10**9), "virgo")
    return [record.start_cycle for record in served.iterations[1:6]]


def test_pinned_boundary_arrival_joins_that_iteration():
    """A dispatch at a busy replica's boundary joins the iteration starting there."""
    first_end = _boundaries()[0]
    assert first_end == 93_650
    trace = _boundary_trace(first_end)
    assert run_serving(trace, "virgo").requests[1].admitted_cycle == first_end
    for compressed in (True, False):
        fleet = run_fleet(trace, 1, epoch_extrapolation=compressed)
        assert fleet.requests[1].admitted_cycle == first_end


@pytest.mark.parametrize("boundary", [1, 2, 3, 4])
def test_boundary_arrival_inside_an_epoch_joins_that_iteration(boundary):
    """A's last five iterations share one composition: compressed, they are
    one epoch in flight, which the dispatch cuts exactly at a boundary."""
    at = _boundaries()[boundary]
    served, fleet = _serve_and_fleet_of_one(_boundary_trace(at))
    assert served.requests[1].admitted_cycle == at
    assert _stamps(fleet.requests) == _stamps(served.requests)
    assert fleet.perf["iteration_memo"] == served.iteration_memo


@pytest.mark.parametrize("boundary", [0, 2])
def test_crash_at_a_boundary_aborts_no_iteration(boundary):
    at = _boundaries()[boundary]
    for compressed in (True, False):
        timing_cache().clear()
        fleet = run_fleet(
            _boundary_trace(10**9), 1, faults=f"crash@0:{at}:50000",
            epoch_extrapolation=compressed,
        )
        assert fleet.replicas[0].aborted_iterations == 0
        assert fleet.requests[0].admitted_cycle == 0


@pytest.mark.parametrize("boundary", [0, 2])
def test_slow_window_at_a_boundary_slows_the_iteration_there(boundary):
    boundaries = _boundaries()
    at = boundaries[boundary]
    clean = run_fleet(_boundary_trace(10**9), 1)
    for compressed in (True, False):
        slowed = run_fleet(
            _boundary_trace(10**9), 1, faults=f"slow@0:{at}:3.0:1",
            epoch_extrapolation=compressed,
        )
        # Only the iteration starting at ``at`` overlaps the one-cycle window.
        span = boundaries[boundary + 1] - at
        assert slowed.replicas[0].serving_cycles > clean.replicas[0].serving_cycles
        assert slowed.requests[0].finish_cycle - clean.requests[0].finish_cycle == (
            slowed.replicas[0].serving_cycles - clean.replicas[0].serving_cycles
        )
        assert slowed.replicas[0].serving_cycles - clean.replicas[0].serving_cycles < 3 * span


def test_same_cycle_offers_join_in_request_id_order():
    """A replica's queue keeps (dispatch cycle, request id) order, however
    the router's same-cycle events happened to offer the requests."""
    trace = _boundary_trace(10**9)
    first, second = trace.requests
    stepper = _Stepper(ServingScheduler("virgo"), trace)
    stepper.offer(_Queued(request=second, enqueued_cycle=5))
    stepper.offer(_Queued(request=first, enqueued_cycle=5))
    stepper.advance(6)
    assert [state.request.request_id for state in stepper.active] == ["A", "B"]
    assert stepper.run is not None and stepper.run.start == 5
