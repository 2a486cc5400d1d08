"""Deterministic fault injection for the serving stack.

Chaos testing for a simulator: perturb the serving pipeline in controlled,
*seeded* ways and assert the scheduler degrades gracefully instead of
deadlocking, losing requests, or corrupting its caches.  Three fault kinds:

* **Kernel latency spikes** -- a multiplier on the simulated duration of
  every kernel in a selected iteration.  Spiked iterations bypass the
  timing cache and the iteration memo in *both* directions (no read, no
  write), so poisoned timings never persist into clean runs.
* **Iteration stalls** -- a fixed number of dead cycles appended to a
  selected iteration's span, modeling a host hiccup or a preemptive
  background job on the accelerator.
* **Arrival bursts** -- selected requests have their arrival pulled earlier
  by a fixed offset, compressing the trace into overload bursts that stress
  admission control.

All randomness flows through :class:`random.Random` seeded with
``f"{seed}:{key}"`` strings -- SHA-512 based, stable across processes and
platforms, and independent of draw order, so a fault plan is a pure
function of ``(seed, plan, trace)`` and two runs with the same
``--fault-seed`` are byte-identical.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

if TYPE_CHECKING:
    from repro.workloads.graph import ServingTrace

#: ``--inject`` spec grammar: comma-separated ``kind:rate:magnitude`` tokens.
_SPEC_HELP = (
    "expected comma-separated kind:rate:magnitude tokens, e.g. "
    "'spike:0.3:4.0,stall:0.2:5000,burst:0.5:30000'"
)

#: ``fleet --inject`` spec grammar: seeded fleet-wide rates plus targeted
#: per-replica events.
_FLEET_SPEC_HELP = (
    "expected comma-separated tokens: 'crash:RATE:DOWN_CYCLES', "
    "'slow:RATE:SCALE:CYCLES', 'partition:RATE:CYCLES' (seeded per-replica "
    "draws), or targeted 'crash@R:AT:DOWN_CYCLES', 'slow@R:AT:SCALE:CYCLES', "
    "'partition@R:AT:CYCLES', e.g. 'crash:0.5:400000,slow@1:200000:3.0:150000'"
)


def _finite_rate(label: str, rate: float) -> None:
    if not math.isfinite(rate) or not 0.0 <= rate <= 1.0:
        raise ValueError(f"{label} must be a finite probability in [0, 1], got {rate}")


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, declarative description of the faults to inject.

    Rates are per-candidate probabilities in ``[0, 1]``: ``spike_rate`` and
    ``stall_rate`` are drawn per scheduler iteration, ``burst_rate`` per
    request.  Magnitudes: ``spike_multiplier`` scales kernel durations
    (>= 1), ``stall_cycles`` is added to the iteration span, and
    ``burst_pull_cycles`` is subtracted from the arrival cycle (floored at
    zero).
    """

    seed: int = 0
    spike_rate: float = 0.0
    spike_multiplier: float = 1.0
    stall_rate: float = 0.0
    stall_cycles: int = 0
    burst_rate: float = 0.0
    burst_pull_cycles: int = 0

    def __post_init__(self) -> None:
        for label in ("spike_rate", "stall_rate", "burst_rate"):
            _finite_rate(label, getattr(self, label))
        # Finite, not merely >= 1: 'spike:0.5:inf' passes a bare magnitude
        # check and only explodes deep in the scheduler when a kernel
        # duration overflows -- plan construction is where it must die.
        if not math.isfinite(self.spike_multiplier) or self.spike_multiplier < 1.0:
            raise ValueError(
                "spike_multiplier must be a finite multiplier >= 1 "
                f"(spikes slow kernels down), got {self.spike_multiplier}"
            )
        if self.stall_cycles < 0:
            raise ValueError("stall_cycles must be non-negative")
        if self.burst_pull_cycles < 0:
            raise ValueError("burst_pull_cycles must be non-negative")

    @property
    def active(self) -> bool:
        """True when the plan can inject at least one fault."""
        return self.spike_rate > 0.0 or self.stall_rate > 0.0 or self.burst_rate > 0.0

    def to_dict(self) -> Dict[str, object]:
        return {
            "seed": self.seed,
            "spike_rate": self.spike_rate,
            "spike_multiplier": self.spike_multiplier,
            "stall_rate": self.stall_rate,
            "stall_cycles": self.stall_cycles,
            "burst_rate": self.burst_rate,
            "burst_pull_cycles": self.burst_pull_cycles,
        }

    @staticmethod
    def parse(spec: str, seed: int = 0) -> "FaultPlan":
        """Parse a ``--inject`` spec string into a plan.

        Each token is ``kind:rate:magnitude`` where kind is ``spike``
        (magnitude = duration multiplier), ``stall`` (magnitude = cycles) or
        ``burst`` (magnitude = arrival pull in cycles).
        """
        fields: Dict[str, object] = {"seed": seed}
        for token in spec.split(","):
            token = token.strip()
            if not token:
                continue
            parts = token.split(":")
            if len(parts) != 3:
                raise ValueError(f"malformed fault token {token!r}; {_SPEC_HELP}")
            kind, rate_text, magnitude_text = (part.strip() for part in parts)
            rate = _float_field(token, "rate", rate_text)
            if kind == "spike":
                fields["spike_rate"] = rate
                fields["spike_multiplier"] = _float_field(
                    token, "spike multiplier", magnitude_text
                )
            elif kind == "stall":
                fields["stall_rate"] = rate
                fields["stall_cycles"] = _int_field(token, "stall cycles", magnitude_text)
            elif kind == "burst":
                fields["burst_rate"] = rate
                fields["burst_pull_cycles"] = _int_field(token, "burst pull", magnitude_text)
            else:
                raise ValueError(f"unknown fault kind {kind!r} in {token!r}; {_SPEC_HELP}")
        if len(fields) == 1:
            raise ValueError(f"empty fault spec {spec!r}; {_SPEC_HELP}")
        return FaultPlan(**fields)  # type: ignore[arg-type]


class FaultInjector:
    """Evaluates a :class:`FaultPlan` against iteration indices and requests.

    Every decision draws from a fresh :class:`random.Random` keyed by
    ``(seed, fault kind, candidate id)``, so decisions are independent of
    each other and of how many other draws happened -- injecting one extra
    fault kind never reshuffles the outcomes of the others, and memo hits
    (which skip simulation work) cannot shift which iterations get faulted.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan

    def _draw(self, kind: str, key: object) -> float:
        return random.Random(f"{self.plan.seed}:{kind}:{key}").random()

    def iteration_spike(self, index: int) -> Optional[float]:
        """Duration multiplier for iteration ``index``, or None for no spike."""
        if self.plan.spike_rate <= 0.0 or self.plan.spike_multiplier <= 1.0:
            return None
        if self._draw("spike", index) < self.plan.spike_rate:
            return self.plan.spike_multiplier
        return None

    def iteration_stall(self, index: int) -> int:
        """Dead cycles appended to iteration ``index``'s span (0 = no stall)."""
        if self.plan.stall_rate <= 0.0 or self.plan.stall_cycles <= 0:
            return 0
        if self._draw("stall", index) < self.plan.stall_rate:
            return self.plan.stall_cycles
        return 0

    def perturb_trace(self, trace: "ServingTrace") -> "ServingTrace":
        """Apply arrival bursts, returning a new (still valid) trace.

        Selected requests arrive ``burst_pull_cycles`` earlier (floored at
        zero); the result is re-sorted so the trace stays monotonic.
        """
        if self.plan.burst_rate <= 0.0 or self.plan.burst_pull_cycles <= 0:
            return trace
        perturbed = []
        for request in trace.requests:
            if self._draw("burst", request.request_id) < self.plan.burst_rate:
                arrival = max(0, request.arrival_cycle - self.plan.burst_pull_cycles)
                request = replace(request, arrival_cycle=arrival)
            perturbed.append(request)
        perturbed.sort(key=lambda r: (r.arrival_cycle, r.request_id))
        return replace(trace, requests=tuple(perturbed))


_FLEET_EVENT_KINDS = ("crash", "slow", "partition")


@dataclass(frozen=True)
class ReplicaFaultEvent:
    """One concrete fault window on one fleet replica.

    ``crash`` takes the replica down for ``duration_cycles`` (in-flight work
    is orphaned, KV residency is lost); ``slow`` stretches every iteration in
    the window by ``duration_scale`` through the no-cache-poisoning path;
    ``partition`` severs the router link (dispatches and health checks fail)
    while work already on the replica keeps running.
    """

    replica: int
    kind: str
    at_cycle: int
    duration_cycles: int
    duration_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in _FLEET_EVENT_KINDS:
            raise ValueError(
                f"unknown fleet fault kind {self.kind!r}; one of {_FLEET_EVENT_KINDS}"
            )
        if self.replica < 0:
            raise ValueError(f"fault event replica index must be >= 0, got {self.replica}")
        if self.at_cycle < 0:
            raise ValueError(
                f"fault event at_cycle must be >= 0, got {self.at_cycle} "
                f"({self.kind} on replica {self.replica})"
            )
        if self.duration_cycles <= 0:
            raise ValueError(
                f"fault event duration_cycles must be > 0, got {self.duration_cycles} "
                f"({self.kind} on replica {self.replica})"
            )
        if not math.isfinite(self.duration_scale) or self.duration_scale < 1.0:
            raise ValueError(
                "fault event duration_scale must be a finite value >= 1 "
                f"(slowdowns stretch durations), got {self.duration_scale}"
            )
        if self.kind != "slow" and self.duration_scale != 1.0:
            raise ValueError(f"duration_scale applies to 'slow' events, not {self.kind!r}")

    @property
    def end_cycle(self) -> int:
        return self.at_cycle + self.duration_cycles

    def to_dict(self) -> Dict[str, object]:
        return {
            "replica": self.replica,
            "kind": self.kind,
            "at_cycle": self.at_cycle,
            "duration_cycles": self.duration_cycles,
            "duration_scale": self.duration_scale,
        }


@dataclass(frozen=True)
class FleetFaultPlan:
    """Seeded fleet-scope chaos: replica crash/recover, slowdown, partition.

    Rates are per-replica probabilities drawn once per (replica, kind) with
    the same ``random.Random(f"{seed}:{kind}:{key}")`` keying as
    :class:`FaultPlan`, so the materialized event set is a pure function of
    ``(seed, plan, fleet size, horizon)``.  ``events`` carries explicit
    targeted windows on top of (or instead of) the seeded draws -- the
    deterministic handle chaos tests steer with.
    """

    seed: int = 0
    crash_rate: float = 0.0
    crash_down_cycles: int = 0
    slow_rate: float = 0.0
    slow_scale: float = 1.0
    slow_cycles: int = 0
    partition_rate: float = 0.0
    partition_cycles: int = 0
    events: Tuple[ReplicaFaultEvent, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        for label in ("crash_rate", "slow_rate", "partition_rate"):
            _finite_rate(label, getattr(self, label))
        for rate_label, cycles_label in (
            ("crash_rate", "crash_down_cycles"),
            ("slow_rate", "slow_cycles"),
            ("partition_rate", "partition_cycles"),
        ):
            cycles = getattr(self, cycles_label)
            if cycles < 0:
                raise ValueError(f"{cycles_label} must be non-negative, got {cycles}")
            if getattr(self, rate_label) > 0.0 and cycles <= 0:
                raise ValueError(
                    f"{cycles_label} must be > 0 when {rate_label} > 0, got {cycles}"
                )
        if not math.isfinite(self.slow_scale) or self.slow_scale < 1.0:
            raise ValueError(
                "slow_scale (duration_scale) must be a finite value >= 1 "
                f"(slowdowns stretch durations), got {self.slow_scale}"
            )
        object.__setattr__(self, "events", tuple(self.events))

    @property
    def active(self) -> bool:
        """True when the plan can inject at least one fleet fault."""
        return (
            self.crash_rate > 0.0
            or self.slow_rate > 0.0
            or self.partition_rate > 0.0
            or bool(self.events)
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "seed": self.seed,
            "crash_rate": self.crash_rate,
            "crash_down_cycles": self.crash_down_cycles,
            "slow_rate": self.slow_rate,
            "slow_scale": self.slow_scale,
            "slow_cycles": self.slow_cycles,
            "partition_rate": self.partition_rate,
            "partition_cycles": self.partition_cycles,
            "events": [event.to_dict() for event in self.events],
        }

    def materialize(self, replicas: int, horizon_cycles: int) -> Tuple[ReplicaFaultEvent, ...]:
        """Resolve the plan into concrete per-replica fault windows.

        Seeded draws decide, per (replica, kind), whether a window occurs
        and where in ``[0, horizon_cycles)`` it starts; explicit ``events``
        ride along after a range check against the actual fleet size.
        Returned sorted by (start, replica, kind) -- the deterministic order
        the fleet event loop consumes.
        """
        if replicas <= 0:
            raise ValueError(f"fleet must have at least one replica, got {replicas}")
        horizon = max(1, horizon_cycles)
        resolved: List[ReplicaFaultEvent] = []
        for event in self.events:
            if event.replica >= replicas:
                raise ValueError(
                    f"fault event targets replica {event.replica} but the fleet "
                    f"has {replicas} replicas (indices 0..{replicas - 1})"
                )
            resolved.append(event)
        seeded = (
            ("crash", self.crash_rate, self.crash_down_cycles, 1.0),
            ("slow", self.slow_rate, self.slow_cycles, self.slow_scale),
            ("partition", self.partition_rate, self.partition_cycles, 1.0),
        )
        for replica in range(replicas):
            for kind, rate, cycles, scale in seeded:
                if rate <= 0.0 or cycles <= 0:
                    continue
                if random.Random(f"{self.seed}:{kind}:{replica}").random() >= rate:
                    continue
                at = int(random.Random(f"{self.seed}:{kind}_at:{replica}").random() * horizon)
                resolved.append(
                    ReplicaFaultEvent(
                        replica=replica,
                        kind=kind,
                        at_cycle=at,
                        duration_cycles=cycles,
                        duration_scale=scale,
                    )
                )
        resolved.sort(key=lambda e: (e.at_cycle, e.replica, _FLEET_EVENT_KINDS.index(e.kind)))
        return tuple(resolved)

    @staticmethod
    def parse(spec: str, seed: int = 0) -> "FleetFaultPlan":
        """Parse a ``fleet --inject`` spec string into a plan.

        Fleet-wide tokens are ``crash:RATE:DOWN_CYCLES``,
        ``slow:RATE:SCALE:CYCLES`` and ``partition:RATE:CYCLES`` (seeded
        per-replica draws).  Targeted tokens pin a window on one replica:
        ``crash@R:AT:DOWN_CYCLES``, ``slow@R:AT:SCALE:CYCLES``,
        ``partition@R:AT:CYCLES``.
        """
        fields: Dict[str, object] = {"seed": seed}
        events: List[ReplicaFaultEvent] = []
        for token in spec.split(","):
            token = token.strip()
            if not token:
                continue
            parts = [part.strip() for part in token.split(":")]
            head = parts[0]
            if "@" in head:
                kind, replica_text = head.split("@", 1)
                replica = _int_field(token, "replica index", replica_text)
                if kind == "slow":
                    if len(parts) != 4:
                        raise ValueError(
                            f"malformed fault token {token!r}; {_FLEET_SPEC_HELP}"
                        )
                    events.append(
                        ReplicaFaultEvent(
                            replica=replica,
                            kind="slow",
                            at_cycle=_int_field(token, "at_cycle", parts[1]),
                            duration_scale=_float_field(token, "scale", parts[2]),
                            duration_cycles=_int_field(token, "cycles", parts[3]),
                        )
                    )
                elif kind in ("crash", "partition"):
                    if len(parts) != 3:
                        raise ValueError(
                            f"malformed fault token {token!r}; {_FLEET_SPEC_HELP}"
                        )
                    events.append(
                        ReplicaFaultEvent(
                            replica=replica,
                            kind=kind,
                            at_cycle=_int_field(token, "at_cycle", parts[1]),
                            duration_cycles=_int_field(token, "cycles", parts[2]),
                        )
                    )
                else:
                    raise ValueError(
                        f"unknown fleet fault kind {kind!r} in {token!r}; {_FLEET_SPEC_HELP}"
                    )
            elif head == "crash":
                if len(parts) != 3:
                    raise ValueError(f"malformed fault token {token!r}; {_FLEET_SPEC_HELP}")
                fields["crash_rate"] = _float_field(token, "rate", parts[1])
                fields["crash_down_cycles"] = _int_field(token, "down cycles", parts[2])
            elif head == "slow":
                if len(parts) != 4:
                    raise ValueError(f"malformed fault token {token!r}; {_FLEET_SPEC_HELP}")
                fields["slow_rate"] = _float_field(token, "rate", parts[1])
                fields["slow_scale"] = _float_field(token, "scale", parts[2])
                fields["slow_cycles"] = _int_field(token, "cycles", parts[3])
            elif head == "partition":
                if len(parts) != 3:
                    raise ValueError(f"malformed fault token {token!r}; {_FLEET_SPEC_HELP}")
                fields["partition_rate"] = _float_field(token, "rate", parts[1])
                fields["partition_cycles"] = _int_field(token, "cycles", parts[2])
            else:
                raise ValueError(
                    f"unknown fleet fault kind {head!r} in {token!r}; {_FLEET_SPEC_HELP}"
                )
        if len(fields) == 1 and not events:
            raise ValueError(f"empty fleet fault spec {spec!r}; {_FLEET_SPEC_HELP}")
        fields["events"] = tuple(events)
        return FleetFaultPlan(**fields)  # type: ignore[arg-type]


def _float_field(token: str, label: str, text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"fault token {token!r}: {label} {text!r} is not a number") from None


def _int_field(token: str, label: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"fault token {token!r}: {label} {text!r} is not an integer") from None
