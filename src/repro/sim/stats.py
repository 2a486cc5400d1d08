"""Hierarchical event counters used to drive the energy and power models.

Counters are keyed by dotted names, e.g. ``core.issue.instructions`` or
``smem.bank.read_words``.  The energy model consumes these counts; the
analysis layer aggregates them by prefix to build the breakdown figures.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, Iterator, Mapping, Tuple


class Counters:
    """A bag of named event counters.

    The class behaves like a ``Mapping[str, float]`` with convenience
    arithmetic: :meth:`add` accumulates, :meth:`merge` folds another bag in,
    and :meth:`scaled` returns a scaled copy (useful when a per-iteration
    count is replayed for N iterations).
    """

    def __init__(self, initial: Mapping[str, float] | None = None) -> None:
        self._counts: Dict[str, float] = defaultdict(float)
        if initial:
            for key, value in initial.items():
                self._counts[key] = float(value)

    def add(self, name: str, amount: float = 1.0) -> None:
        """Accumulate ``amount`` events under ``name``."""
        if amount < 0:
            raise ValueError(f"counter increments must be non-negative, got {amount} for {name}")
        self._counts[name] += amount

    def get(self, name: str, default: float = 0.0) -> float:
        return self._counts.get(name, default)

    def merge(self, other: "Counters") -> None:
        """Fold all counts from ``other`` into this bag."""
        for key, value in other.items():
            self._counts[key] += value

    def scaled(self, factor: float) -> "Counters":
        """Return a new bag with every count multiplied by ``factor``."""
        if factor < 0:
            raise ValueError("scale factor must be non-negative")
        return Counters({key: value * factor for key, value in self._counts.items()})

    def total(self, prefix: str = "") -> float:
        """Sum of all counters whose name starts with ``prefix``."""
        return sum(value for key, value in self._counts.items() if key.startswith(prefix))

    def items(self) -> Iterable[Tuple[str, float]]:
        return self._counts.items()

    def as_dict(self) -> Dict[str, float]:
        return dict(self._counts)

    def copy(self) -> "Counters":
        return Counters(self._counts)

    def __getitem__(self, name: str) -> float:
        return self._counts.get(name, 0.0)

    def __setitem__(self, name: str, value: float) -> None:
        self._counts[name] = float(value)

    def __contains__(self, name: str) -> bool:
        return name in self._counts

    def __iter__(self) -> Iterator[str]:
        return iter(self._counts)

    def __len__(self) -> int:
        return len(self._counts)

    def __add__(self, other: "Counters") -> "Counters":
        result = self.copy()
        result.merge(other)
        return result

    def __repr__(self) -> str:
        top = sorted(self._counts.items(), key=lambda kv: -kv[1])[:6]
        preview = ", ".join(f"{k}={v:g}" for k, v in top)
        return f"Counters({len(self._counts)} keys: {preview})"
