"""Phase profiling: wall-clock spans around the simulator's own pipeline.

Simulated cycles say where the *modelled hardware* spends time;
:func:`phase` says where the *simulator process* spends time -- lowering,
merging, list scheduling, kernel simulation, cache I/O.  Instrumented sites
wrap their work in ``with phase("lower", model=name): ...``; the spans land
in the active :class:`PhaseProfiler` (activated with :func:`profiling`) and,
when a trace recorder is active with ``capture_phases`` set, on the trace's
``profile`` process as wall-clock spans.

With neither a profiler nor a phase-capturing recorder active, :func:`phase`
short-circuits before touching the clock: an inactive site costs two
module-global reads and returns one shared no-op context manager, which
keeps instrumentation safe on hot paths (and is what the perf-smoke
overhead guard measures).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional

from repro.obs.trace import TraceRecorder, trace_recorder

__all__ = [
    "PhaseRecord",
    "PhaseProfiler",
    "phase",
    "profiling",
]


@dataclass
class PhaseRecord:
    """One completed phase span (wall-clock seconds).

    ``seconds`` is inclusive; ``self_seconds`` excludes the phases that ran
    nested inside this one.
    """

    name: str
    seconds: float
    args: Dict[str, object]
    self_seconds: float


class PhaseProfiler:
    """Accumulates :class:`PhaseRecord` entries across a profiled region.

    Phases nest (``fleet.iteration`` encloses ``serving.iteration``, which
    encloses ``merge``), so the profiler keeps a stack holding the child
    time of each open phase; a closing phase's self time is its wall time
    minus its children's, and the self times of a phase tree sum to the
    outermost phase's inclusive time.
    """

    def __init__(self) -> None:
        self.records: List[PhaseRecord] = []
        self._open: List[float] = []

    def open(self) -> None:
        """Push a phase that has just started."""
        self._open.append(0.0)

    def close(self, name: str, seconds: float, args: Dict[str, object]) -> None:
        """Pop the innermost open phase, which ran for ``seconds``."""
        children = self._open.pop()
        if self._open:
            self._open[-1] += seconds
        self.records.append(
            PhaseRecord(name=name, seconds=seconds, args=args, self_seconds=seconds - children)
        )

    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per-phase aggregate: call count, inclusive and self wall-clock seconds."""
        summary: Dict[str, Dict[str, float]] = {}
        for record in self.records:
            entry = summary.setdefault(
                record.name, {"calls": 0, "seconds": 0.0, "self_seconds": 0.0}
            )
            entry["calls"] += 1
            entry["seconds"] += record.seconds
            entry["self_seconds"] += record.self_seconds
        return summary

    def format_totals(self) -> str:
        """Human-readable per-phase totals, largest self time first."""
        totals = self.totals()
        if not totals:
            return "no phases recorded"
        width = max(len(name) for name in totals)
        lines = [
            f"{name:<{width}}  {entry['self_seconds'] * 1e3:9.2f} ms self  "
            f"{entry['seconds'] * 1e3:9.2f} ms total  {int(entry['calls']):5d} calls"
            for name, entry in sorted(
                totals.items(), key=lambda item: -item[1]["self_seconds"]
            )
        ]
        return "\n".join(lines)


#: The process-wide active profiler (None = profiling off).
_ACTIVE_PROFILER: Optional[PhaseProfiler] = None


@contextmanager
def profiling(profiler: Optional[PhaseProfiler] = None) -> Iterator[PhaseProfiler]:
    """Activate ``profiler`` (or a fresh one) for the duration of the context."""
    global _ACTIVE_PROFILER
    active = profiler if profiler is not None else PhaseProfiler()
    previous = _ACTIVE_PROFILER
    _ACTIVE_PROFILER = active
    try:
        yield active
    finally:
        _ACTIVE_PROFILER = previous


class _Phase:
    """An active phase span: times its body into the profiler and/or recorder."""

    __slots__ = ("name", "args", "_profiler", "_recorder", "_start")

    def __init__(
        self,
        name: str,
        args: Dict[str, object],
        profiler: Optional[PhaseProfiler],
        recorder: Optional[TraceRecorder],
    ) -> None:
        self.name = name
        self.args = args
        self._profiler = profiler
        self._recorder = recorder

    def __enter__(self) -> None:
        if self._profiler is not None:
            self._profiler.open()
        self._start = time.perf_counter()

    def __exit__(self, exc_type, exc, tb) -> bool:
        seconds = time.perf_counter() - self._start
        if self._profiler is not None:
            self._profiler.close(self.name, seconds, self.args)
        if self._recorder is not None:
            self._recorder.add_phase_span(
                self.name, self._start, seconds, self.args or None
            )
        return False


class _InactivePhase:
    """The shared do-nothing span :func:`phase` returns while nothing listens."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_INACTIVE = _InactivePhase()


def phase(name: str, **args: object):
    """Wall-clock span around one pipeline phase (no-op unless activated).

    Use as ``with phase("lower", model=name): ...``.  Sites sit on hot
    paths, so the inactive case must stay cheap: with neither a profiler
    nor a phase-capturing recorder active, it is two global reads and the
    one shared :class:`_InactivePhase`, with no object built and no clock
    read -- which the perf-smoke overhead guard measures.
    """
    profiler = _ACTIVE_PROFILER
    recorder = trace_recorder()
    if recorder is not None and not recorder.capture_phases:
        recorder = None
    if profiler is None and recorder is None:
        return _INACTIVE
    return _Phase(name, args, profiler, recorder)
