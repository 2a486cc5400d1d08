"""Contended hardware resources used by the operation-graph scheduler.

A :class:`Resource` is an exclusive unit (a DMA engine, a matrix unit, the
SIMT issue slots of a core group).  Operations occupy it back-to-back; the
resource remembers when it becomes free and accumulates busy cycles so that
the schedule can report them afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple


class Resource:
    """An exclusive, serially-occupied hardware unit."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._free_at = 0
        self.busy_cycles = 0

    def reserve(self, ready: int, duration: int) -> Tuple[int, int]:
        """Grant ``duration`` cycles once the unit is free and ``ready`` has passed.

        Returns the (start, end) cycle pair and records the busy time.
        """
        if duration < 0:
            raise ValueError("duration must be non-negative")
        start = max(ready, self._free_at)
        end = start + duration
        self._free_at = end
        self.busy_cycles += duration
        return start, end

    def __repr__(self) -> str:
        return f"Resource({self.name!r}, busy={self.busy_cycles})"


@dataclass
class ResourcePool:
    """A named collection of resources shared by an operation graph."""

    resources: Dict[str, Resource] = field(default_factory=dict)

    def add(self, resource: Resource) -> Resource:
        if resource.name in self.resources:
            raise ValueError(f"duplicate resource {resource.name!r}")
        self.resources[resource.name] = resource
        return resource

    def __getitem__(self, name: str) -> Resource:
        return self.resources[name]

    def __contains__(self, name: str) -> bool:
        return name in self.resources
