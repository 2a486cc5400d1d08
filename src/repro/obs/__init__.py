"""Observability: schedule traces, a unified metrics registry, phase profiling.

Zero-dependency instrumentation wired through every execution layer
(kernels, model schedules, serving):

* :mod:`repro.obs.trace` -- record scheduler task spans and export Chrome
  trace-event JSON loadable in Perfetto / ``chrome://tracing``.  Activate
  with :func:`tracing`; instrumented code probes :func:`trace_recorder`.
* :mod:`repro.obs.metrics` -- counters/gauges/histograms collected per run
  and snapshotted onto every result's ``to_dict()``.
* :mod:`repro.obs.phase` -- wall-clock spans around the simulator's own
  pipeline phases (lowering, merging, scheduling, kernel simulation, cache
  I/O).  Activate with :func:`profiling`.

See ``docs/observability.md`` for the end-to-end workflow.
"""

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    occupancy_percent,
)
from repro.obs.phase import (
    PhaseProfiler,
    PhaseRecord,
    phase,
    profiling,
)
from repro.obs.trace import (
    CapturedSpans,
    TraceRecorder,
    TraceSpan,
    trace_recorder,
    tracing,
)

__all__ = [
    "CapturedSpans",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "PhaseProfiler",
    "PhaseRecord",
    "TraceRecorder",
    "TraceSpan",
    "occupancy_percent",
    "phase",
    "profiling",
    "trace_recorder",
    "tracing",
]
