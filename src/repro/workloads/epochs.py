"""Epoch-level compression primitives for continuous-batching serving.

The steady-state insight that powers the tile-loop level
(:mod:`repro.sim.steady_state`: execute one period, extrapolate the rest in
closed form, bit-identically) lifts to the *serving* level.  Between
transients -- arrivals, finishes, bucket crossings, preemptions, shedding,
injected faults, any control-plane decision point -- the continuous-batching
composition stream (the ordered (model, bucketed-context, unit) keys the
iteration memo uses) is piecewise *constant*: nothing in the system can
change until a request finishes its decode budget, crosses a KV bucket, or
a new arrival lands.  Once the iteration memo proves the composition's
outcome is known, the whole run of invariant iterations -- an **epoch** --
advances arithmetically: per-request step counts, span, energy, busy cycles
and KV-residency evolution, exactly the way ``execute_flash_loop``
extrapolates KV tiles.

Two granularities compose (both consumed by
:class:`repro.workloads.serving.ServingScheduler`, gated behind
``epoch_compression`` / ``--epoch-compression``):

* :class:`EpochRecord` -- a run of iterations with one invariant batch
  composition, extrapolated in closed form from one memoized outcome.  The
  horizon (:func:`epoch_horizon`) is the exact number of iterations until
  the first transient: the soonest finish, the soonest KV-bucket crossing,
  the next arrival's boundary, or (under fault injection) the next
  spiked/stalled iteration (:func:`clean_fault_run`).
* :class:`EpisodeRun` -- a vectorized run of *whole requests*: when the
  system is idle and consecutive same-shape arrivals are spaced farther
  apart than one request's total solo service time, each request's entire
  lifecycle replays a learned :class:`EpisodeTemplate` (the solo segment
  list recorded the first time that shape served alone), and every
  per-request stamp is one numpy add over the arrival vector.

Exactness is the whole point: every extrapolated quantity is an integer
advanced by ``n * delta`` -- energy too, which is counted in whole
femtojoules -- so compressed and exact runs serialize byte-identically
(``tests/test_epochs.py``, the differential harness).

:class:`IterationTimeline` keeps the result surface honest without forcing
expansion: it is a lazy ``Sequence`` of
:class:`IterationRecord` whose aggregates (length, decode steps, batch
histogram) are O(#segments), and whose per-record iteration view expands
only when something (``to_dict``) actually walks it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.workloads.graph import RequestSpec

__all__ = [
    "EpisodeRun",
    "EpisodeSegment",
    "EpisodeTemplate",
    "EpochRecord",
    "IterationRecord",
    "IterationTimeline",
    "build_episode_template",
    "clean_fault_run",
    "epoch_horizon",
    "fresh_epoch_stats",
]


@dataclass
class IterationRecord:
    """One continuous-batching iteration: who ran, for how long."""

    index: int
    start_cycle: int
    span_cycles: int
    batch: int
    request_ids: List[str]

    def to_dict(self) -> Dict[str, object]:
        return {
            "index": self.index,
            "start_cycle": self.start_cycle,
            "span_cycles": self.span_cycles,
            "batch": self.batch,
            "request_ids": list(self.request_ids),
        }


@dataclass
class EpochRecord:
    """A run of ``count`` iterations with one invariant batch composition.

    Everything per-iteration is constant across the epoch -- the span, the
    batch, the composition -- so the concrete iteration records are a pure
    arithmetic function of (``index``, ``start_cycle``, ``span_cycles``) and
    expand lazily, byte-identical to the records exact simulation appends.
    """

    index: int
    start_cycle: int
    span_cycles: int
    count: int
    request_ids: List[str]

    @property
    def batch(self) -> int:
        return len(self.request_ids)

    @property
    def iteration_count(self) -> int:
        return self.count

    @property
    def decode_steps(self) -> int:
        return self.count * len(self.request_ids)

    def record_at(self, offset: int) -> IterationRecord:
        return IterationRecord(
            index=self.index + offset,
            start_cycle=self.start_cycle + offset * self.span_cycles,
            span_cycles=self.span_cycles,
            batch=len(self.request_ids),
            request_ids=list(self.request_ids),
        )

    def records(self) -> Iterator[IterationRecord]:
        for offset in range(self.count):
            yield self.record_at(offset)


@dataclass(frozen=True)
class EpisodeSegment:
    """One invariant-composition stretch of a request's solo service.

    ``end_cycle`` is the iteration-relative cycle at which the request's
    decode step retires (its batch position's entry end); for a solo batch
    it doubles as the first-token offset of the segment's first iteration.
    """

    count: int
    span_cycles: int
    end_cycle: int
    kernel_count: int
    #: One iteration's active energy, in whole femtojoules.
    energy_fj: int
    resource_busy: Tuple[Tuple[str, int], ...]
    cache_lookups: int


@dataclass(frozen=True, eq=False)
class EpisodeTemplate:
    """The full solo-service shape of one request spec, in closed form.

    Learned by instrumenting the exact loop the first time a request of a
    given (model, prompt, decode-budget) shape serves alone from an idle
    system to a clean finish; every later same-shape request whose arrival
    spacing guarantees solo service replays it arithmetically.  All derived
    totals are precomputed once (:func:`build_episode_template`) so a run of
    R requests costs O(R) numpy work, not O(R x iterations).  The totals are
    one request's and carry the names of
    :class:`~repro.workloads.serving._IterationOutcome`'s per-iteration
    ones, so the stepper lands an episode run of R requests as it lands an
    epoch of R iterations.
    """

    segments: Tuple[EpisodeSegment, ...]
    iterations: int
    span_cycles: int
    #: First-token offset: the first segment's first iteration end.
    first_token_end: int
    #: Finish offset from the request's start: full span minus the last
    #: iteration's span plus that iteration's step-end cycle.
    finish_offset: int
    kernel_count: int
    cache_lookups: int
    resource_busy: Tuple[Tuple[str, int], ...]
    #: One request's active energy, in whole femtojoules.
    energy_fj: int


def build_episode_template(segments: Sequence[EpisodeSegment]) -> EpisodeTemplate:
    """Precompute an :class:`EpisodeTemplate`'s closed-form totals."""
    if not segments:
        raise ValueError("an episode template needs at least one segment")
    segs = tuple(segments)
    span = sum(segment.count * segment.span_cycles for segment in segs)
    busy: Dict[str, int] = {}
    for segment in segs:
        for resource, cycles in segment.resource_busy:
            busy[resource] = busy.get(resource, 0) + segment.count * cycles
    last = segs[-1]
    return EpisodeTemplate(
        segments=segs,
        iterations=sum(segment.count for segment in segs),
        span_cycles=span,
        first_token_end=segs[0].end_cycle,
        finish_offset=span - last.span_cycles + last.end_cycle,
        kernel_count=sum(segment.count * segment.kernel_count for segment in segs),
        cache_lookups=sum(segment.count * segment.cache_lookups for segment in segs),
        resource_busy=tuple(sorted(busy.items())),
        energy_fj=sum(segment.count * segment.energy_fj for segment in segs),
    )


@dataclass(eq=False)
class EpisodeRun:
    """A vectorized run of whole requests, each replaying one template.

    ``arrivals`` holds each request's absolute start cycle (its arrival:
    the spacing precondition guarantees the system was idle, so admission
    is immediate and queueing is zero under every shipped policy).
    Iteration records expand lazily per request, per template segment.
    """

    index: int
    template: EpisodeTemplate
    arrivals: np.ndarray
    requests: List[RequestSpec]

    @property
    def iteration_count(self) -> int:
        return len(self.requests) * self.template.iterations

    @property
    def decode_steps(self) -> int:
        # Solo service: every iteration decodes exactly one step.
        return self.iteration_count

    def record_at(self, offset: int) -> IterationRecord:
        per_request = self.template.iterations
        which, within = divmod(offset, per_request)
        start = int(self.arrivals[which])
        index = self.index + which * per_request
        for segment in self.template.segments:
            if within < segment.count:
                return IterationRecord(
                    index=index + within,
                    start_cycle=start + within * segment.span_cycles,
                    span_cycles=segment.span_cycles,
                    batch=1,
                    request_ids=[self.requests[which].request_id],
                )
            within -= segment.count
            index += segment.count
            start += segment.count * segment.span_cycles
        raise IndexError(offset)

    def records(self) -> Iterator[IterationRecord]:
        index = self.index
        for arrival, request in zip(self.arrivals.tolist(), self.requests):
            start = arrival
            ids = [request.request_id]
            for segment in self.template.segments:
                for _ in range(segment.count):
                    yield IterationRecord(
                        index=index,
                        start_cycle=start,
                        span_cycles=segment.span_cycles,
                        batch=1,
                        request_ids=list(ids),
                    )
                    index += 1
                    start += segment.span_cycles


#: A timeline segment: one exact iteration or one extrapolated run.
TimelineSegment = Union[IterationRecord, EpochRecord, EpisodeRun]


class IterationTimeline(Sequence):
    """A lazy sequence of :class:`IterationRecord` over mixed segments.

    Behaves like the plain ``List[IterationRecord]`` it replaces --
    ``len``, iteration, indexing and slicing all yield per-iteration
    records byte-identical to exact simulation's -- while storing
    extrapolated runs compressed.  Aggregates every hot consumer needs
    (iteration count, decode steps, the batch histogram inputs) are O(1)
    or O(#segments), so a million-iteration run never expands unless a
    caller explicitly serializes it.
    """

    __slots__ = ("_segments", "_iterations", "_decode_steps")

    def __init__(self, segments: Optional[Sequence[TimelineSegment]] = None) -> None:
        self._segments: List[TimelineSegment] = []
        self._iterations = 0
        self._decode_steps = 0
        for segment in segments or ():
            self.append(segment)

    def append(self, segment: TimelineSegment) -> None:
        if isinstance(segment, IterationRecord):
            self._iterations += 1
            self._decode_steps += segment.batch
        else:
            self._iterations += segment.iteration_count
            self._decode_steps += segment.decode_steps
        self._segments.append(segment)

    @property
    def segments(self) -> Tuple[TimelineSegment, ...]:
        return tuple(self._segments)

    @property
    def decode_steps(self) -> int:
        return self._decode_steps

    def batch_observations(self) -> Iterator[Tuple[int, int]]:
        """(batch, iteration count) pairs, one per segment -- the histogram
        feed that replaces one ``observe`` call per expanded iteration."""
        for segment in self._segments:
            if isinstance(segment, IterationRecord):
                yield segment.batch, 1
            elif isinstance(segment, EpochRecord):
                yield segment.batch, segment.count
            else:
                yield 1, segment.iteration_count

    def __len__(self) -> int:
        return self._iterations

    def __iter__(self) -> Iterator[IterationRecord]:
        for segment in self._segments:
            if isinstance(segment, IterationRecord):
                yield segment
            else:
                yield from segment.records()

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(self._iterations))]
        if index < 0:
            index += self._iterations
        if not 0 <= index < self._iterations:
            raise IndexError(index)
        for segment in self._segments:
            if isinstance(segment, IterationRecord):
                if index == 0:
                    return segment
                index -= 1
                continue
            if index < segment.iteration_count:
                return segment.record_at(index)
            index -= segment.iteration_count
        raise IndexError(index)  # pragma: no cover - guarded above


def epoch_horizon(
    remaining_steps: Sequence[int],
    bucket_headroom: Sequence[int],
    span_cycles: int,
    now: int,
    next_arrival: Optional[int],
) -> int:
    """Iterations until the current batch composition must change.

    The composition is invariant until the first transient:

    * a finish -- request ``k`` retires after ``remaining_steps[k]`` more
      iterations, and the epoch may *include* that iteration (the finish
      lands exactly at its end);
    * a KV-bucket crossing -- request ``k``'s context stays inside its
      current bucket for ``bucket_headroom[k]`` more iterations
      (``bucket - context + 1``: the step at ``context == bucket`` is the
      last one sharing the kernel shape);
    * the next arrival -- iteration ``j`` (0-based) starts at
      ``now + j * span``; the epoch may only cover boundaries strictly
      before the arrival, i.e. ``ceil((arrival - now) / span)`` iterations.

    Returns at least 1 (the current iteration always runs).
    """
    horizon = min(remaining_steps)
    headroom = min(bucket_headroom)
    if headroom < horizon:
        horizon = headroom
    if next_arrival is not None and span_cycles > 0:
        until_arrival = -((next_arrival - now) // -span_cycles)
        if until_arrival < horizon:
            horizon = until_arrival
    return max(1, horizon)


def clean_fault_run(injector, start_index: int, limit: int) -> int:
    """Consecutive fault-free iteration indices from ``start_index``.

    Fault draws are pure per-index functions of the seeded plan
    (:class:`repro.faults.FaultInjector`), so probing ahead consumes no
    state; a spiked or stalled iteration breaks the epoch there, keeping
    injected faults exact under compression instead of silently skipped.
    """
    clean = 0
    while clean < limit:
        index = start_index + clean
        if injector.iteration_spike(index) is not None or injector.iteration_stall(index):
            break
        clean += 1
    return clean


def fresh_epoch_stats(enabled: bool) -> Dict[str, object]:
    """The run-local epoch-compression diagnostics, zeroed.

    ``executed_iterations`` counts iterations the exact loop processed
    (memo miss or single replay); ``extrapolated_iterations`` counts those
    covered by epoch/episode closed forms.  Their sum is the run's
    iteration count -- enforced by ``tests/test_epochs.py``.
    """
    return {
        "enabled": enabled,
        "epochs": 0,
        "episode_runs": 0,
        "executed_iterations": 0,
        "extrapolated_iterations": 0,
        "extrapolated_requests": 0,
    }
