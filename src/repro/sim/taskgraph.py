"""Operation-graph scheduling: the top level of the timing model.

A kernel mapping (GEMM or FlashAttention on one of the four designs) is
expressed as a directed acyclic graph of :class:`Operation` objects.  Each
operation names the resource it occupies (the DMA engine, a matrix unit, the
SIMT core group, the store path) and carries a duration computed by the
component timing models.  Scheduling is list scheduling in topological order:
an operation starts at ``max(deps finished, resource free)``.

This faithfully captures the pipelining behaviours the paper relies on --
double buffering, producer/consumer overlap between the DMA, the matrix unit
and SIMT post-processing, and serialization when a design lacks asynchrony
(the Volta-style baseline issues its data movement and matrix instructions
from the same warps, so both compete for the same issue resource).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

from repro.sim.resources import Resource, ResourcePool


@dataclass
class Operation:
    """A node of the kernel operation graph.

    Parameters
    ----------
    name:
        Unique identifier, e.g. ``"dma.load.k3"`` or ``"matrix.compute.k3"``.
    resource:
        Name of the resource the operation occupies exclusively while it runs.
    duration:
        Occupancy in cycles, already including any contention-independent
        latency computed by the component models.
    deps:
        Names of operations that must finish before this one may start.
    ready_after:
        Optional absolute earliest-start cycle (e.g. kernel-launch latency).
    kind:
        Free-form category used by reporting ("dma", "matrix", "simt", ...).
    """

    name: str
    resource: str
    duration: int
    deps: Sequence[str] = field(default_factory=tuple)
    ready_after: int = 0
    kind: str = ""

    def __post_init__(self) -> None:
        if self.duration < 0:
            raise ValueError(f"operation {self.name!r} has negative duration")


@dataclass
class ScheduledOperation:
    """An operation with its assigned start/end cycles."""

    operation: Operation
    start: int
    end: int

    @property
    def name(self) -> str:
        return self.operation.name


@dataclass
class ScheduleResult:
    """The outcome of scheduling an :class:`OperationGraph`.

    The derived views (:meth:`finish_times`, :meth:`critical_kind_cycles`)
    are computed once on first access and cached.  The cached dicts are
    shared -- treat them as read-only.
    """

    total_cycles: int
    scheduled: Dict[str, ScheduledOperation]
    resource_busy: Dict[str, int]
    _finish_times: Optional[Dict[str, int]] = field(
        default=None, repr=False, compare=False
    )
    _kind_cycles: Optional[Dict[str, int]] = field(
        default=None, repr=False, compare=False
    )

    def finish_times(self) -> Dict[str, int]:
        """Operation name -> end cycle, built once per schedule."""
        if self._finish_times is None:
            self._finish_times = {
                name: item.end for name, item in self.scheduled.items()
            }
        return self._finish_times

    def finish_time(self, name: str) -> int:
        return self.finish_times()[name]

    def critical_kind_cycles(self) -> Dict[str, int]:
        """Total busy cycles per operation kind (for reporting), cached."""
        if self._kind_cycles is None:
            totals: Dict[str, int] = {}
            for item in self.scheduled.values():
                kind = item.operation.kind or "other"
                totals[kind] = totals.get(kind, 0) + (item.end - item.start)
            self._kind_cycles = totals
        return self._kind_cycles


class OperationGraph:
    """A DAG of operations plus the resource pool they contend for."""

    def __init__(self) -> None:
        self.resources = ResourcePool()
        self._operations: Dict[str, Operation] = {}
        self._order: List[str] = []

    def add_resource(self, resource: Resource) -> Resource:
        return self.resources.add(resource)

    def add(self, operation: Operation) -> Operation:
        if operation.name in self._operations:
            raise ValueError(f"duplicate operation {operation.name!r}")
        if operation.resource not in self.resources:
            raise ValueError(
                f"operation {operation.name!r} uses unknown resource {operation.resource!r}"
            )
        for dep in operation.deps:
            if dep not in self._operations:
                raise ValueError(
                    f"operation {operation.name!r} depends on unknown operation {dep!r}; "
                    "add dependencies before dependents"
                )
        self._operations[operation.name] = operation
        self._order.append(operation.name)
        return operation

    def add_operation(
        self,
        name: str,
        resource: str,
        duration: int,
        deps: Iterable[str] = (),
        ready_after: int = 0,
        kind: str = "",
    ) -> Operation:
        """Convenience wrapper around :meth:`add`."""
        return self.add(
            Operation(
                name=name,
                resource=resource,
                duration=int(duration),
                deps=tuple(deps),
                ready_after=ready_after,
                kind=kind,
            )
        )

    def __len__(self) -> int:
        return len(self._operations)

    def __contains__(self, name: str) -> bool:
        return name in self._operations

    def operations(self) -> List[Operation]:
        return [self._operations[name] for name in self._order]

    def schedule(self) -> ScheduleResult:
        return schedule_graph(self)


def schedule_graph(graph: OperationGraph) -> ScheduleResult:
    """List-schedule ``graph`` on its resource pool.

    Operations are visited in insertion order, which the kernel builders keep
    topological (dependencies are added before dependents, enforced by
    :meth:`OperationGraph.add`).  Each operation starts as early as its
    dependencies and its resource allow.
    """
    scheduled: Dict[str, ScheduledOperation] = {}
    for operation in graph.operations():
        ready = operation.ready_after
        for dep in operation.deps:
            ready = max(ready, scheduled[dep].end)
        resource = graph.resources[operation.resource]
        start, end = resource.reserve(ready, operation.duration)
        scheduled[operation.name] = ScheduledOperation(operation=operation, start=start, end=end)

    total = max((item.end for item in scheduled.values()), default=0)
    busy = {
        name: resource.busy_cycles for name, resource in graph.resources.resources.items()
    }
    return ScheduleResult(total_cycles=total, scheduled=scheduled, resource_busy=busy)
