"""Serving control plane: SLO classes and pluggable scheduling policies.

The PR 4 serving loop admitted every arrived request unconditionally -- a
batcher, not a scheduler.  This module adds the decision layer a production
scheduler needs to degrade *gracefully* under overload instead of
arbitrarily:

* :class:`SloClass` -- a per-request service-level objective: TTFT/TPOT
  targets, a priority, and a queue deadline.  Requests carry one on
  :class:`~repro.workloads.graph.RequestSpec.slo`; finished requests are
  judged ``met`` / ``violated`` against their targets, and the fraction of
  arrivals meeting their SLO is the run's **goodput** -- the headline
  robustness metric beside p99 latency.
* :class:`SchedulingPolicy` -- the protocol the
  :class:`~repro.workloads.serving.ServingScheduler` consults at three
  decision points every iteration boundary: which queued requests to *shed*
  (give up on), which in-flight requests to *evict* (preempt), and which
  queued requests to *admit* under the iteration budget.
* Three shipped policies: :class:`FcfsPolicy` (admit everything in arrival
  order, the default), :class:`KvBudgetPolicy`
  (bound resident bucketed-KV bytes against an HBM budget; over-budget
  arrivals queue and past-deadline requests are shed), and
  :class:`PreemptiveSloPolicy` (additionally lets late high-priority
  arrivals evict the longest-resident low-priority decodes; re-admission
  pays an explicit KV re-read cost, see ``docs/perf-contract.md`` §4).

Policies are deterministic pure functions of the queue/batch state -- no
wall clock, no RNG -- so serving runs stay byte-reproducible, which is what
the fault-injection harness (:mod:`repro.faults`) relies on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Union

from repro.config.soc import DataType, DesignConfig

if TYPE_CHECKING:  # runtime access is duck-typed; avoid import cycles
    from repro.workloads.graph import RequestSpec, ServingTrace
    from repro.workloads.models import ModelSpec


@dataclass(frozen=True)
class SloClass:
    """A per-request service-level objective.

    ``ttft_target_cycles`` bounds arrival-to-first-token;
    ``tpot_target_cycles`` bounds the mean time per subsequent output token
    (``(latency - ttft) / (decode_steps - 1)``).  ``None`` targets are
    unconstrained.  ``queue_deadline_cycles`` is the longest a request may
    sit in the admission queue before a budgeted policy sheds it (``None``
    waits forever).  ``priority`` orders classes for admission and
    preemption: higher wins.
    """

    name: str
    priority: int = 0
    ttft_target_cycles: Optional[int] = None
    tpot_target_cycles: Optional[int] = None
    queue_deadline_cycles: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("SLO classes need a non-empty name")
        for label in ("ttft_target_cycles", "tpot_target_cycles", "queue_deadline_cycles"):
            value = getattr(self, label)
            if value is not None and value <= 0:
                raise ValueError(f"SLO class {self.name!r}: {label} must be positive or None")

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "priority": self.priority,
            "ttft_target_cycles": self.ttft_target_cycles,
            "tpot_target_cycles": self.tpot_target_cycles,
            "queue_deadline_cycles": self.queue_deadline_cycles,
        }


#: The built-in SLO classes the trace zoo's ``*-slo`` variants use.  Targets
#: are in simulation cycles, sized against the tiny request networks in
#: :data:`repro.workloads.models.REQUEST_MODELS`, whose solo decode
#: iterations span roughly 90k cycles: interactive traffic tolerates a
#: small-batch TTFT (a few iterations) and near-solo TPOT with headroom for
#: one co-resident peer, standard traffic roughly twice that, and batch
#: traffic just wants to finish eventually -- no targets, no deadline, never
#: shed.
SLO_CLASSES: Dict[str, SloClass] = {
    "interactive": SloClass(
        name="interactive",
        priority=2,
        ttft_target_cycles=700_000,
        tpot_target_cycles=380_000,
        queue_deadline_cycles=1_500_000,
    ),
    "standard": SloClass(
        name="standard",
        priority=1,
        ttft_target_cycles=1_600_000,
        tpot_target_cycles=460_000,
        queue_deadline_cycles=3_500_000,
    ),
    "batch": SloClass(name="batch", priority=0),
}


def resolve_slo(name: Union[str, SloClass]) -> SloClass:
    """Look up a built-in SLO class, raising with the valid names on a miss."""
    if isinstance(name, SloClass):
        return name
    try:
        return SLO_CLASSES[name]
    except KeyError:
        valid = ", ".join(sorted(SLO_CLASSES))
        raise KeyError(f"unknown SLO class {name!r}; choose one of: {valid}") from None


def request_kv_bytes(model: "ModelSpec", context: int, dtype: DataType) -> int:
    """Resident KV-cache bytes of one request at a (bucketed) context length.

    K and V entries for every block and effective KV head: paged-KV rounding
    is the caller's job (pass the *bucketed* context), so the admission
    arithmetic matches the kernel shapes the scheduler actually runs.
    """
    return 2 * model.blocks * model.effective_kv_heads * model.head_dim * context * dtype.bytes


def _priority(request: "RequestSpec") -> int:
    return request.slo.priority if request.slo is not None else 0


@dataclass
class PolicyContext:
    """Everything a policy decision may depend on, bundled per run.

    ``kv_budget_bytes`` is the resolved HBM budget: an explicit override, or
    the design's :attr:`~repro.config.soc.DramConfig.hbm_capacity_bytes`.
    """

    design: DesignConfig
    dtype: DataType
    trace: "ServingTrace"
    kv_budget_bytes: int

    def kv_bytes(self, request: "RequestSpec", steps_done: int) -> int:
        """The request's resident KV bytes at its current bucketed context."""
        context = self.trace.bucketed_context(request.context_at(steps_done))
        return request_kv_bytes(request.model, context, self.dtype)


class SchedulingPolicy:
    """Admission / eviction / iteration-budget decision points.

    The scheduler calls the three hooks at every iteration boundary, in
    order: :meth:`shed` (queued requests to give up on), :meth:`evict`
    (in-flight requests to preempt back into the queue), :meth:`admit`
    (queued requests to add to the batch).  Hook arguments are the
    scheduler's live queue/batch state objects -- each exposes ``.request``,
    ``.steps_done`` and (queued) ``.enqueued_cycle`` / (active)
    ``.resident_since`` -- and must not be mutated; hooks return subsets of
    the lists they were given.  The base class is FCFS: shed nothing, evict
    nothing, admit everything.
    """

    name = "fcfs"

    def shed(self, queued: Sequence, now: int, ctx: PolicyContext) -> List:
        return []

    def evict(self, active: Sequence, queued: Sequence, now: int, ctx: PolicyContext) -> List:
        return []

    def admit(self, queued: Sequence, active: Sequence, now: int, ctx: PolicyContext) -> List:
        return list(queued)


class FcfsPolicy(SchedulingPolicy):
    """First-come-first-served, unconditional admission (the default)."""

    name = "fcfs"


class KvBudgetPolicy(SchedulingPolicy):
    """Bound resident bucketed-KV bytes per iteration against an HBM budget.

    Admission walks the queue first-fit in (priority desc, enqueue cycle,
    id) order: a request joins the batch only while the batch's total
    resident KV (at each request's current bucketed context) stays within
    the budget; later, smaller requests may be admitted past a blocked head
    -- the head is protected from starvation by its queue deadline and by
    the scheduler's force-admission of the oldest waiter whenever the batch
    would otherwise sit empty.  Queued requests whose SLO queue deadline has
    expired are shed.
    """

    name = "kv-budget"

    def __init__(self, budget_bytes: Optional[int] = None) -> None:
        if budget_bytes is not None and budget_bytes <= 0:
            raise ValueError("kv-budget policies need a positive budget in bytes")
        self.budget_bytes = budget_bytes

    def budget(self, ctx: PolicyContext) -> int:
        return self.budget_bytes if self.budget_bytes is not None else ctx.kv_budget_bytes

    def shed(self, queued: Sequence, now: int, ctx: PolicyContext) -> List:
        expired = []
        for entry in queued:
            slo = entry.request.slo
            if slo is None or slo.queue_deadline_cycles is None:
                continue
            if now - entry.enqueued_cycle > slo.queue_deadline_cycles:
                expired.append(entry)
        return expired

    def admit(self, queued: Sequence, active: Sequence, now: int, ctx: PolicyContext) -> List:
        budget = self.budget(ctx)
        resident = sum(ctx.kv_bytes(state.request, state.steps_done) for state in active)
        admitted = []
        # Priority desc, then queue age, then id: the same ordering the
        # preemptive policy uses to pick whom to make room for, so space
        # freed by an eviction goes to the waiter that caused it.
        waiters = sorted(
            queued,
            key=lambda e: (-_priority(e.request), e.enqueued_cycle, e.request.request_id),
        )
        for entry in waiters:
            need = ctx.kv_bytes(entry.request, entry.steps_done)
            if resident + need <= budget:
                admitted.append(entry)
                resident += need
        return admitted


class PreemptiveSloPolicy(KvBudgetPolicy):
    """KV-budget admission plus SLO-priority preemption.

    When a queued request cannot fit under the budget and strictly
    lower-priority requests are decoding, the longest-resident of those
    victims are evicted (preempted back into the queue, KV state dropped)
    until the arrival fits.  Evicted requests keep their completed decode
    steps; re-admission pays an explicit KV re-read penalty -- streaming the
    evicted KV state back over the DRAM channel -- applied by the scheduler
    (see ``docs/perf-contract.md`` contract 4 for how that penalty is folded
    into the iteration-memo key).
    """

    name = "preemptive-slo"

    def evict(self, active: Sequence, queued: Sequence, now: int, ctx: PolicyContext) -> List:
        if not queued:
            return []
        budget = self.budget(ctx)
        remaining = list(active)
        resident = sum(ctx.kv_bytes(state.request, state.steps_done) for state in remaining)
        evicted: List = []
        # Highest-priority waiters claim space first; ties resolve by queue
        # age then id, so the decision is a pure function of the state.
        waiters = sorted(
            queued,
            key=lambda e: (-_priority(e.request), e.enqueued_cycle, e.request.request_id),
        )
        for entry in waiters:
            need = ctx.kv_bytes(entry.request, entry.steps_done)
            if resident + need <= budget:
                resident += need  # reserved; admit() re-walks the real state
                continue
            victims = [
                state for state in remaining if _priority(state.request) < _priority(entry.request)
            ]
            # Longest-resident first: they have had the most service and the
            # most room to make progress before paying the re-read penalty.
            victims.sort(key=lambda s: (s.resident_since, s.request.request_id))
            while victims and resident + need > budget:
                victim = victims.pop(0)
                remaining.remove(victim)
                evicted.append(victim)
                resident -= ctx.kv_bytes(victim.request, victim.steps_done)
            if resident + need <= budget:
                resident += need
        return evicted


#: Policy registry: CLI/batch names -> factory taking the optional budget.
POLICIES = {
    "fcfs": lambda budget=None: FcfsPolicy(),
    "kv-budget": KvBudgetPolicy,
    "preemptive-slo": PreemptiveSloPolicy,
}


def policy_names() -> List[str]:
    return sorted(POLICIES)


def resolve_policy(
    policy: Union[str, SchedulingPolicy, None],
    kv_budget: Optional[int] = None,
) -> SchedulingPolicy:
    """Resolve a policy name (or pass an instance through) with a KV budget.

    ``kv_budget`` overrides the design's HBM capacity for the budgeted
    policies; it is rejected for policies that would silently ignore it.
    """
    if policy is None:
        policy = "fcfs"
    if isinstance(policy, SchedulingPolicy):
        if kv_budget is not None:
            raise ValueError("pass kv_budget to the policy constructor, not alongside an instance")
        return policy
    try:
        factory = POLICIES[policy]
    except KeyError:
        valid = ", ".join(policy_names())
        raise KeyError(f"unknown policy {policy!r}; choose one of: {valid}") from None
    if policy == "fcfs":
        if kv_budget is not None:
            raise ValueError("the fcfs policy has no KV budget; use kv-budget or preemptive-slo")
        return factory()
    return factory(kv_budget)


def evaluate_disposition(
    request: "RequestSpec",
    ttft_cycles: Optional[int],
    latency_cycles: Optional[int],
) -> str:
    """``met`` or ``violated`` for one *finished* request against its SLO.

    Requests without an SLO class (or without targets) are ``met`` by
    definition -- goodput then degenerates to completion rate, which is what
    an SLO-free trace can meaningfully promise.
    """
    slo = request.slo
    if slo is None:
        return "met"
    if slo.ttft_target_cycles is not None and ttft_cycles > slo.ttft_target_cycles:
        return "violated"
    if slo.tpot_target_cycles is not None and request.decode_steps > 1:
        tpot = (latency_cycles - ttft_cycles) / (request.decode_steps - 1)
        if tpot > slo.tpot_target_cycles:
            return "violated"
    return "met"
