"""Schedule trace recording and Chrome trace-event export.

A :class:`TraceRecorder` collects :class:`TraceSpan` records from every
execution layer -- per-kernel placements out of the step-program executor
(:mod:`repro.workloads.lowering`), serving iterations and request
lifecycles out of :class:`repro.workloads.serving.ServingScheduler`, and
(wall-clock) phase spans out of :mod:`repro.obs.phase` -- and exports them
as Chrome trace-event JSON, loadable in Perfetto (https://ui.perfetto.dev)
or ``chrome://tracing``.

Spans are grouped into *processes* (rendered as process groups in the
viewer) and *tracks* (rendered as named threads):

* ``units``     -- one track per hardware resource (``matrix``, ``simt``,
  ``matrix.small``), one span per scheduled kernel;
* ``scheduler`` -- the ``iterations`` track, one span per continuous-batching
  iteration;
* ``requests``  -- one track per request id: queue span, decode span and the
  per-step spans nested inside it;
* ``profile``   -- wall-clock phase spans (:func:`repro.obs.phase.phase`).

Simulated spans use **1 cycle = 1 trace microsecond** (the trace-event
``ts``/``dur`` unit); wall-clock phase spans use real microseconds since the
recorder was created.  Kernel dependency edges are exported as flow events
(``ph: "s"``/``"f"``), drawn as arrows between spans in the viewer.

Activation follows the timing cache's module-global pattern: instrumented
code probes :func:`trace_recorder` -- ``None`` unless a
:func:`tracing` context is active, so the recording-off cost is one global
read per site.

>>> from repro.obs import TraceRecorder, tracing
>>> recorder = TraceRecorder()
>>> with tracing(recorder):
...     pass  # run_model(...) / run_serving(...)
>>> recorder.write("trace.json")  # doctest: +SKIP
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple, Union


__all__ = [
    "TraceSpan",
    "CapturedSpans",
    "TraceRecorder",
    "trace_recorder",
    "tracing",
]

#: Process names every recorder uses; fixed so traces from different runs
#: line up and the summarizer can key on them.
UNITS_PROCESS = "units"
SCHEDULER_PROCESS = "scheduler"
REQUESTS_PROCESS = "requests"
PROFILE_PROCESS = "profile"

#: Processes whose timestamps are simulated cycles (vs wall-clock).
CYCLE_PROCESSES = (UNITS_PROCESS, SCHEDULER_PROCESS, REQUESTS_PROCESS)


@dataclass
class TraceSpan:
    """One complete ("X") trace event before pid/tid assignment."""

    name: str
    process: str
    track: str
    start: int
    duration: int
    category: str = ""
    args: Optional[Dict[str, object]] = None


@dataclass
class CapturedSpans:
    """A run of spans (and their flow edges) lifted to a relative timebase.

    The serving scheduler stashes one of these per iteration composition at
    memo-miss time; on a memo hit the merged schedule was never rebuilt, so
    the captured shape is replayed at the new iteration start instead
    (:meth:`TraceRecorder.replay`).  Flow indices are relative to the start
    of the capture.
    """

    spans: List[TraceSpan] = field(default_factory=list)
    flows: List[Tuple[int, int]] = field(default_factory=list)


class TraceRecorder:
    """Accumulates spans and flow edges; exports Chrome trace-event JSON."""

    def __init__(self, label: str = "repro", capture_phases: bool = True) -> None:
        self.label = label
        #: Whether wall-clock :func:`repro.obs.phase.phase` spans are mirrored
        #: into the trace.  Golden tests switch this off: wall-clock values
        #: are nondeterministic by nature.
        self.capture_phases = capture_phases
        self.spans: List[TraceSpan] = []
        self.flows: List[Tuple[int, int]] = []
        self._offset = 0
        self._wall_epoch = time.perf_counter()

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #

    def add_span(
        self,
        name: str,
        *,
        process: str,
        track: str,
        start: int,
        duration: int,
        category: str = "",
        args: Optional[Dict[str, object]] = None,
    ) -> int:
        """Append one span (``start`` shifted by the active time offset);
        returns its index for flow-edge wiring."""
        self.spans.append(
            TraceSpan(
                name=name,
                process=process,
                track=track,
                start=start + self._offset,
                duration=duration,
                category=category,
                args=args,
            )
        )
        return len(self.spans) - 1

    def add_flow(self, source: int, target: int) -> None:
        """Record a dependency arrow from span ``source`` to span ``target``."""
        self.flows.append((source, target))

    @contextmanager
    def time_offset(self, base: int) -> Iterator[None]:
        """Shift spans recorded inside the context by ``base`` cycles.

        The serving scheduler executes each iteration's merged schedule on an
        iteration-relative clock; wrapping the execution in
        ``time_offset(now)`` lands the kernel spans at absolute trace time.
        Offsets nest additively.
        """
        self._offset += base
        try:
            yield
        finally:
            self._offset -= base

    def add_phase_span(
        self,
        name: str,
        wall_start: float,
        wall_seconds: float,
        args: Optional[Dict[str, object]] = None,
    ) -> None:
        """Record one wall-clock phase span (timestamps in real microseconds
        since the recorder was created)."""
        start_us = int((wall_start - self._wall_epoch) * 1e6)
        self.spans.append(
            TraceSpan(
                name=name,
                process=PROFILE_PROCESS,
                track="phases",
                start=max(0, start_us),
                duration=max(0, int(wall_seconds * 1e6)),
                category="phase",
                args=args or None,
            )
        )

    # ------------------------------------------------------------------ #
    # Capture / replay (memoized serving iterations)
    # ------------------------------------------------------------------ #

    def mark(self) -> Tuple[int, int]:
        """Current (span, flow) high-water marks; pair with :meth:`capture`."""
        return len(self.spans), len(self.flows)

    def capture(self, marker: Tuple[int, int], base: int) -> CapturedSpans:
        """Copy everything recorded since ``marker``, rebased to ``base``.

        The recorder keeps the original spans; the returned copy carries
        starts relative to ``base`` and flow indices relative to the
        capture start, ready for :meth:`replay` at a different time.
        """
        span_mark, flow_mark = marker
        spans = [
            replace(span, start=span.start - base, args=dict(span.args) if span.args else None)
            for span in self.spans[span_mark:]
        ]
        flows = [
            (source - span_mark, target - span_mark)
            for source, target in self.flows[flow_mark:]
            if source >= span_mark and target >= span_mark
        ]
        return CapturedSpans(spans=spans, flows=flows)

    def replay(self, captured: CapturedSpans, base: int) -> None:
        """Re-emit a captured span shape shifted to start at ``base``."""
        span_base = len(self.spans)
        for span in captured.spans:
            self.add_span(
                span.name,
                process=span.process,
                track=span.track,
                start=span.start + base,
                duration=span.duration,
                category=span.category,
                args=dict(span.args) if span.args else None,
            )
        for source, target in captured.flows:
            self.add_flow(span_base + source, span_base + target)

    # ------------------------------------------------------------------ #
    # Export
    # ------------------------------------------------------------------ #

    def chrome_trace(self) -> Dict[str, object]:
        """The Chrome trace-event JSON object for everything recorded.

        Processes and tracks are numbered in first-appearance order (stable
        for a deterministic run) and named via ``process_name`` /
        ``thread_name`` metadata events; dependency edges become flow-event
        pairs (``ph: "s"`` at the source span's end, ``ph: "f"`` at the
        target span's start).
        """
        pids: Dict[str, int] = {}
        tids: Dict[Tuple[str, str], int] = {}
        for span in self.spans:
            pids.setdefault(span.process, len(pids) + 1)
            tids.setdefault((span.process, span.track), len(tids) + 1)

        events: List[Dict[str, object]] = []
        for process, pid in pids.items():
            events.append(
                {
                    "ph": "M",
                    "pid": pid,
                    "tid": 0,
                    "name": "process_name",
                    "args": {"name": process},
                }
            )
            events.append(
                {
                    "ph": "M",
                    "pid": pid,
                    "tid": 0,
                    "name": "process_sort_index",
                    "args": {"sort_index": pid},
                }
            )
        for (process, track), tid in tids.items():
            events.append(
                {
                    "ph": "M",
                    "pid": pids[process],
                    "tid": tid,
                    "name": "thread_name",
                    "args": {"name": track},
                }
            )

        for span in self.spans:
            event: Dict[str, object] = {
                "ph": "X",
                "name": span.name,
                "cat": span.category or span.process,
                "ts": span.start,
                "dur": span.duration,
                "pid": pids[span.process],
                "tid": tids[(span.process, span.track)],
            }
            if span.args:
                event["args"] = span.args
            events.append(event)

        for flow_id, (source, target) in enumerate(self.flows, start=1):
            src, dst = self.spans[source], self.spans[target]
            common = {"cat": "dep", "name": "dep", "id": flow_id}
            events.append(
                {
                    "ph": "s",
                    "ts": src.start + src.duration,
                    "pid": pids[src.process],
                    "tid": tids[(src.process, src.track)],
                    **common,
                }
            )
            events.append(
                {
                    "ph": "f",
                    "bp": "e",
                    "ts": dst.start,
                    "pid": pids[dst.process],
                    "tid": tids[(dst.process, dst.track)],
                    **common,
                }
            )

        return {
            "traceEvents": events,
            "otherData": {
                "generator": self.label,
                "time_unit": "1 trace us = 1 simulated cycle (profile process: wall-clock us)",
            },
        }

    def write(self, path: Union[str, Path]) -> Path:
        """Serialize :meth:`chrome_trace` to ``path``; returns the path."""
        path = Path(path)
        path.write_text(
            json.dumps(self.chrome_trace(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        return path


#: The process-wide active recorder (None = recording off), mirroring the
#: timing cache's module-global pattern.
_ACTIVE_RECORDER: Optional[TraceRecorder] = None


def trace_recorder() -> Optional[TraceRecorder]:
    """The active recorder, or ``None`` when recording is off.

    Instrumented code must treat ``None`` as "skip all trace work": the
    single global read is the entire recording-off overhead.
    """
    return _ACTIVE_RECORDER


@contextmanager
def tracing(recorder: Optional[TraceRecorder] = None) -> Iterator[TraceRecorder]:
    """Activate ``recorder`` (or a fresh one) for the duration of the context.

    Nested contexts stack: the innermost recorder wins and the outer one is
    restored on exit.
    """
    global _ACTIVE_RECORDER
    active = recorder if recorder is not None else TraceRecorder()
    previous = _ACTIVE_RECORDER
    _ACTIVE_RECORDER = active
    try:
        yield active
    finally:
        _ACTIVE_RECORDER = previous
