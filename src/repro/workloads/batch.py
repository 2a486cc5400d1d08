"""Sweep runner: model, serving and fleet cells run in the calling process.

Design-space sweeps over whole models multiply quickly: models x designs x
phases x hyperparameter variants.  The sweep builders (:func:`sweep_jobs`,
:func:`serving_sweep_jobs`, :func:`fleet_sweep_jobs`)
cross them into job lists, resolve every name and fault spec at build time
and reject two cells with the same resolved content.  :func:`run_batch`
runs the cells one after another and returns each one's canonical
``to_dict()`` encoding (the same JSON the CLI prints).

Reuse between cells comes from the process-wide timing cache
(:mod:`repro.perf`): cells that share kernel shapes simulate each shape
once, and MoE sweeps profit doubly -- all experts of one layer share a GEMM
shape, so an entire expert fan-out costs one simulation
(``ModelRunResult.timing_cache`` reports the per-run hit/miss split).  The
cache's namespaces also keep each placed model program, the serving
iteration memo and episode templates, so a sweep run inside
:func:`repro.perf.persistent_timing_cache` (``model --batch --cache-dir``)
replays every cell from the snapshot in a later process.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Union

from repro.config.soc import DataType
from repro.faults import FleetFaultPlan
from repro.workloads.fleet import (
    RouterConfig,
    resolve_fleet_designs,
    resolve_router_policy,
    run_fleet,
)
from repro.workloads.graph import ServingTrace
from repro.workloads.models import ModelSpec, resolve_spec, resolve_trace
from repro.workloads.lowering import run_model
from repro.workloads.serving import run_serving


@dataclass(frozen=True)
class BatchJob:
    """One (model, design) cell of a sweep.

    ``model`` is a zoo name or an explicit :class:`ModelSpec`; the cell's
    :attr:`content` holds the resolved spec, so two jobs naming the same
    model are the same cell regardless of how they were spelled.
    """

    model: Union[str, ModelSpec]
    design: str = "virgo"
    heterogeneous: bool = False
    dtype: str = "fp16"

    @cached_property
    def spec(self) -> ModelSpec:
        """The resolved model spec; zoo names are looked up once per job."""
        return resolve_spec(self.model) if isinstance(self.model, str) else self.model

    @property
    def content(self) -> tuple:
        """Everything the cell's result depends on, resolved."""
        return (self.spec, self.design.lower(), self.heterogeneous, self.dtype.lower())

    @property
    def label(self) -> str:
        if isinstance(self.model, str):
            name = self.model
        else:
            # Spec-based jobs (sweeps) need the varied knobs in the label,
            # or every cell of an MoE sweep would print identically.
            name = self.model.family
            if self.model.experts:
                name += f"-{self.model.experts}x{self.model.top_k}"
                if self.model.capacity_factor != 1.0:
                    name += f"-cap{self.model.capacity_factor:g}"
                if self.model.shared_experts:
                    name += f"-s{self.model.shared_experts}"
        suffix = "+hetero" if self.heterogeneous else ""
        return f"{name}@{self.design}{suffix}"


@dataclass(frozen=True)
class ServingJob:
    """One (trace, design) cell of a serving sweep.

    ``trace`` is a trace-zoo name or an explicit :class:`ServingTrace`; the
    cell's :attr:`content` holds the *resolved* trace -- every request's
    arrival, prompt length, decode budget and full model spec -- so two
    jobs naming the same stream are the same cell regardless of spelling.
    """

    trace: Union[str, ServingTrace]
    design: str = "virgo"
    heterogeneous: bool = False
    dtype: str = "fp16"
    policy: str = "fcfs"
    kv_budget: Optional[int] = None

    @cached_property
    def resolved(self) -> ServingTrace:
        """The resolved trace; zoo names are looked up once per job."""
        return resolve_trace(self.trace) if isinstance(self.trace, str) else self.trace

    @property
    def content(self) -> tuple:
        """Everything the cell's result depends on, resolved."""
        return (
            self.resolved,
            self.design.lower(),
            self.heterogeneous,
            self.dtype.lower(),
            self.policy,
            self.kv_budget,
        )

    @property
    def label(self) -> str:
        suffix = "+hetero" if self.heterogeneous else ""
        if self.policy != "fcfs":
            suffix += f"+{self.policy}"
        if self.kv_budget is not None:
            suffix += f"+kv{self.kv_budget}"
        return f"serve:{self.resolved.name}@{self.design}{suffix}"


@dataclass(frozen=True)
class FleetJob:
    """One (trace, fleet, policy, fault plan) cell of a fleet chaos sweep.

    ``fleet`` is a fleet-zoo name, a replica count or an explicit design
    tuple; the cell's :attr:`content` holds the *resolved* replica design
    list, so ``"duo-virgo"`` and ``("virgo", "virgo")`` are the same cell.
    ``faults`` is the textual fault-plan spec (``"crash:0.5:200000"``); the
    content holds the parsed plan (which folds in the seed), so a
    reworded-but-identical spec is the same cell, while any change to a
    rate, duration or the seed makes another.
    """

    trace: Union[str, ServingTrace]
    fleet: Union[str, int, Sequence[str]] = 2
    policy: str = "round-robin"
    heterogeneous: bool = False
    dtype: str = "fp16"
    faults: Optional[str] = None
    fault_seed: int = 0
    failover: bool = True

    @cached_property
    def resolved(self) -> ServingTrace:
        """The resolved trace; zoo names are looked up once per job."""
        return resolve_trace(self.trace) if isinstance(self.trace, str) else self.trace

    @cached_property
    def replica_designs(self) -> tuple:
        """The resolved per-replica design names."""
        return tuple(resolve_fleet_designs(self.fleet))

    @cached_property
    def fault_plan(self) -> Optional[FleetFaultPlan]:
        """The parsed (and therefore validated) fault plan, or ``None``."""
        if self.faults is None:
            return None
        return FleetFaultPlan.parse(self.faults, self.fault_seed)

    @property
    def content(self) -> tuple:
        """Everything the cell's result depends on, resolved."""
        return (
            self.resolved,
            self.replica_designs,
            self.policy,
            self.heterogeneous,
            self.dtype.lower(),
            self.fault_plan,
            self.failover,
        )

    @property
    def label(self) -> str:
        fleet = (
            self.fleet
            if isinstance(self.fleet, str)
            else "x".join(self.replica_designs)
        )
        suffix = "+hetero" if self.heterogeneous else ""
        if self.faults is not None:
            suffix += f"+chaos{self.fault_seed}"
        if not self.failover:
            suffix += "+nofailover"
        return f"fleet:{self.resolved.name}@{fleet}/{self.policy}{suffix}"


@dataclass
class BatchOutcome:
    """One job and its result."""

    job: Union[BatchJob, ServingJob, FleetJob]
    result: Dict[str, object]


@dataclass
class BatchReport:
    """All outcomes of one ``run_batch`` call, in job order."""

    outcomes: List[BatchOutcome] = field(default_factory=list)

    def results(self) -> List[Dict[str, object]]:
        return [outcome.result for outcome in self.outcomes]


def _execute_job(job: Union[BatchJob, ServingJob, FleetJob]) -> Dict[str, object]:
    """Run one job end to end, return the dict encoding."""
    dtype = DataType[job.dtype.upper()]
    if isinstance(job, FleetJob):
        config = RouterConfig() if job.failover else RouterConfig(failover=False)
        return run_fleet(
            job.resolved,
            job.replica_designs,
            heterogeneous=job.heterogeneous,
            dtype=dtype,
            policy=job.policy,
            config=config,
            faults=job.fault_plan,
        ).to_dict()
    if isinstance(job, ServingJob):
        return run_serving(
            job.resolved,
            job.design,
            heterogeneous=job.heterogeneous,
            dtype=dtype,
            policy=job.policy,
            kv_budget=job.kv_budget,
        ).to_dict()
    result = run_model(
        job.spec, job.design, heterogeneous=job.heterogeneous, dtype=dtype
    )
    return result.to_dict()


def run_batch(jobs: Sequence[Union[BatchJob, ServingJob, FleetJob]]) -> BatchReport:
    """Run ``jobs`` (model, serving and/or fleet) in this process, in order.

    Every cell goes through the process-wide timing cache, so later cells
    reuse what earlier ones simulated; run the sweep inside
    :func:`repro.perf.persistent_timing_cache` to reuse it across processes.
    """
    return BatchReport([BatchOutcome(job, _execute_job(job)) for job in jobs])


def _reject_duplicate_cells(jobs: List) -> List:
    """Fail loudly when a sweep contains two jobs with identical content.

    A sweep advertised as N cells must measure N distinct configurations.
    Comparing resolved content catches duplicates however they were spelled
    (zoo name vs. explicit spec, repeated values in a knob range).
    """
    seen: Dict[tuple, str] = {}
    for job in jobs:
        content = job.content
        if content in seen:
            raise ValueError(
                f"duplicate sweep cell {job.label!r}: same content as "
                f"{seen[content]!r}; drop the repeated value so reported sweep "
                f"sizes count distinct configurations"
            )
        seen[content] = job.label
    return jobs


def sweep_jobs(
    models: Sequence[Union[str, ModelSpec]],
    designs: Sequence[str],
    heterogeneous: Union[bool, Sequence[bool]] = False,
) -> List[BatchJob]:
    """The cross product of models x designs (x heterogeneous) as a job list.

    ``heterogeneous`` may be a single flag (the default, applied to every
    job) or a sequence of flags to cross into the sweep -- e.g.
    ``(False, True)`` runs every (model, design) cell with the single- and
    dual-unit configurations in one call.  Two cells with identical content
    (the same resolved spec, design and flags) raise ``ValueError``.
    """
    flags = [heterogeneous] if isinstance(heterogeneous, bool) else list(heterogeneous)
    return _reject_duplicate_cells(
        [
            BatchJob(model=model, design=design, heterogeneous=flag)
            for model in models
            for design in designs
            for flag in flags
        ]
    )


def serving_sweep_jobs(
    traces: Sequence[Union[str, ServingTrace]] = ("poisson-mixed",),
    designs: Sequence[str] = ("virgo",),
    heterogeneous: Union[bool, Sequence[bool]] = (False, True),
    policies: Sequence[str] = ("fcfs",),
    kv_budget: Optional[int] = None,
) -> List[ServingJob]:
    """The (trace x design x unit-config x policy) serving sweep as a job list.

    Each cell continuous-batches one request stream on one design; crossing
    the ``heterogeneous`` flags compares single- vs dual-matrix-unit serving
    under identical load.  Batch mixes are expressed as traces (the trace
    zoo's arrival families over different request-model mixes), so sweeping
    mixes means sweeping traces.  Crossing ``policies`` compares admission
    policies head-to-head on identical load; ``kv_budget`` applies to every
    budgeted policy in the sweep (fcfs cells ignore it -- the job carries it
    as ``None``, so an fcfs cell's content does not depend on the budget).
    Duplicate cells raise ``ValueError``.
    """
    flags = [heterogeneous] if isinstance(heterogeneous, bool) else list(heterogeneous)
    return _reject_duplicate_cells(
        [
            ServingJob(
                trace=trace,
                design=design,
                heterogeneous=flag,
                policy=policy,
                kv_budget=kv_budget if policy != "fcfs" else None,
            )
            for trace in traces
            for design in designs
            for flag in flags
            for policy in policies
        ]
    )


def fleet_sweep_jobs(
    traces: Sequence[Union[str, ServingTrace]] = ("bursty-gpt",),
    fleets: Sequence[Union[str, int, Sequence[str]]] = ("duo-virgo",),
    policies: Sequence[str] = ("round-robin", "least-outstanding"),
    fault_plans: Sequence[Optional[str]] = (None,),
    fault_seed: int = 0,
    heterogeneous: Union[bool, Sequence[bool]] = False,
    failover: Union[bool, Sequence[bool]] = True,
) -> List[FleetJob]:
    """The (trace x fleet x policy x fault plan) chaos sweep as a job list.

    Each cell routes one request stream across one replica fleet under one
    router policy and one seeded fault plan, so a single sweep answers "which
    policy holds goodput best under this failure mix" head-to-head on
    identical load.  ``fault_plans`` entries are textual specs (``None`` for
    the fault-free baseline); every faulted cell shares ``fault_seed`` so the
    *same* chaos hits every policy.  Crossing ``failover`` flags pins the
    failover-beats-no-failover comparison the CI chaos gate asserts.
    Duplicate cells raise ``ValueError``; so do invalid fault specs and
    unknown fleet or policy names -- at build time, before any cell runs.
    """
    flags = [heterogeneous] if isinstance(heterogeneous, bool) else list(heterogeneous)
    failovers = [failover] if isinstance(failover, bool) else list(failover)
    jobs = [
        FleetJob(
            trace=trace,
            fleet=fleet,
            policy=policy,
            heterogeneous=flag,
            faults=plan,
            fault_seed=fault_seed,
            failover=allow,
        )
        for trace in traces
        for fleet in fleets
        for policy in policies
        for plan in fault_plans
        for flag in flags
        for allow in failovers
    ]
    for job in jobs:
        # Force trace/fleet/plan/policy resolution so a bad name or spec
        # fails the sweep build rather than the sweep run.
        try:
            job.resolved, job.replica_designs, job.fault_plan
            resolve_router_policy(job.policy, 0)
        except (KeyError, ValueError) as error:
            raise ValueError(f"invalid fleet sweep cell: {error}") from error
    return _reject_duplicate_cells(jobs)
