"""Parallel batch runner with a content-addressed on-disk result cache.

Design-space sweeps over whole models multiply quickly: models x designs x
phases x hyperparameter variants.  ``run_batch`` fans a list of
:class:`BatchJob` records across a ``concurrent.futures`` process pool and
memoizes every result in a JSON file keyed by a SHA-256 over the *content*
of the job -- the resolved model hyperparameters, the design, the
heterogeneous flag, the dtype and the package version -- so re-running a
sweep after an unrelated change is free, and changing any hyperparameter
transparently invalidates exactly the affected entries.

Cache entries are the canonical ``ModelRunResult.to_dict()`` encoding (the
same JSON the CLI prints), so cached and fresh results are indistinguishable
to consumers.

The on-disk cache composes with the in-process *timing* cache
(:mod:`repro.perf`): worker processes are seeded with a snapshot of the
parent's warm timing cache, so cache-missing jobs that share kernel shapes
still simulate each distinct shape at most once across the sweep.  MoE
sweeps profit doubly -- all experts of one layer share a GEMM shape, so an
entire expert fan-out costs one simulation (``ModelRunResult.timing_cache``
reports the per-run hit/miss split).

When a ``cache_dir`` is configured the timing cache additionally persists
*across processes*: ``run_batch`` wraps the sweep in
:func:`repro.perf.persistent_timing_cache`, loading
``<cache_dir>/timing-cache.pkl`` before seeding workers and atomically
merging the parent's (possibly grown) cache back on exit.  Repeat
invocations therefore start with every previously simulated kernel warm;
entries computed inside pool workers stay worker-local for that run and are
re-simulated at most once by a later parent.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Union

from repro import __version__
from repro.config.soc import DataType
from repro.faults import FleetFaultPlan
from repro.perf import persistent_timing_cache, timing_cache
from repro.workloads.fleet import (
    RouterConfig,
    resolve_fleet_designs,
    resolve_router_policy,
    run_fleet,
)
from repro.workloads.graph import ServingTrace
from repro.workloads.models import ModelSpec, resolve_spec, resolve_trace, scaled_spec
from repro.workloads.lowering import run_model
from repro.workloads.serving import run_serving

#: Bump to invalidate every cache entry when the timing models change shape.
#: 2: ModelSpec grew the MoE hyperparameters (experts/top_k/capacity_factor/
#: shared_experts), which widen the hashed spec payload.
#: 3: serving jobs joined the cache namespace (ServingJob hashes a whole
#: trace payload) and job payloads grew a "kind" discriminator.
#: 4: run-result ``to_dict`` encodings grew the "metrics" snapshot
#: (:mod:`repro.obs.metrics`), changing the cached payload shape.
#: 5: serving jobs grew the control-plane knobs (policy, kv_budget) and
#: serving traces may carry per-request SLO classes in their payloads.
#: 6: serving jobs grew the ``epoch_compression`` knob.  Results are proven
#: byte-identical either way, but keying the execution path keeps a
#: hypothetical compression bug from silently serving stale exact-mode
#: bytes (and vice versa).
#: 7: causal attention work became exact (per-tile trip counts replace the
#: 0.5 ``work_scale`` discount), so every cached causal-prefill timing
#: computed under the approximation is stale at an *unchanged* spec hash --
#: ModelSpec's new mask fields (``window``/``seq_lens``) are omitted from
#: ``to_dict`` when defaulted, deliberately keeping unmasked hashes stable.
#: 8: fleet jobs joined the cache namespace (FleetJob hashes the resolved
#: replica list, router policy/config and the seeded fault plan), and the
#: "kind" discriminator grew a third value.
CACHE_SCHEMA_VERSION = 8


@dataclass(frozen=True)
class BatchJob:
    """One (model, design) cell of a sweep.

    ``model`` is a zoo name or an explicit :class:`ModelSpec`; specs are
    resolved before hashing so two jobs naming the same content share a
    cache entry regardless of how they were spelled.
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

    def key(self) -> str:
        """Content hash identifying this job's result."""
        payload = {
            "schema": CACHE_SCHEMA_VERSION,
            "version": __version__,
            "kind": "model",
            "spec": self.spec.to_dict(),
            "design": self.design.lower(),
            "heterogeneous": self.heterogeneous,
            "dtype": self.dtype.lower(),
        }
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class ServingJob:
    """One (trace, design) cell of a serving sweep.

    ``trace`` is a trace-zoo name or an explicit :class:`ServingTrace`; the
    content hash covers the *resolved* trace -- every request's arrival,
    prompt length, decode budget and full model spec -- so two jobs naming
    the same stream share a cache entry regardless of spelling, and any
    change to the trace content invalidates exactly its own entries.
    """

    trace: Union[str, ServingTrace]
    design: str = "virgo"
    heterogeneous: bool = False
    dtype: str = "fp16"
    policy: str = "fcfs"
    kv_budget: Optional[int] = None
    epoch_compression: bool = True

    @cached_property
    def resolved(self) -> ServingTrace:
        """The resolved trace; zoo names are looked up once per job."""
        return resolve_trace(self.trace) if isinstance(self.trace, str) else self.trace

    @property
    def label(self) -> str:
        suffix = "+hetero" if self.heterogeneous else ""
        if self.policy != "fcfs":
            suffix += f"+{self.policy}"
        if self.kv_budget is not None:
            suffix += f"+kv{self.kv_budget}"
        return f"serve:{self.resolved.name}@{self.design}{suffix}"

    def key(self) -> str:
        """Content hash identifying this job's result."""
        payload = {
            "schema": CACHE_SCHEMA_VERSION,
            "version": __version__,
            "kind": "serving",
            "trace": self.resolved.to_dict(),
            "design": self.design.lower(),
            "heterogeneous": self.heterogeneous,
            "dtype": self.dtype.lower(),
            "policy": self.policy,
            "kv_budget": self.kv_budget,
            "epoch_compression": self.epoch_compression,
        }
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class FleetJob:
    """One (trace, fleet, policy, fault plan) cell of a fleet chaos sweep.

    ``fleet`` is a fleet-zoo name, a replica count or an explicit design
    tuple; the content hash covers the *resolved* replica design list, so
    ``"duo-virgo"`` and ``("virgo", "virgo")`` share a cache entry.
    ``faults`` is the textual fault-plan spec (``"crash:0.5:200000"``);
    hashing the parsed plan's canonical encoding (which folds in the seed)
    means a reworded-but-identical spec still hits, while any change to a
    rate, duration or the seed invalidates exactly its own cells.
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

    def key(self) -> str:
        """Content hash identifying this job's result."""
        # Resolving the policy here surfaces an unknown name at job-build
        # time instead of inside a pool worker.
        resolve_router_policy(self.policy, 0)
        payload = {
            "schema": CACHE_SCHEMA_VERSION,
            "version": __version__,
            "kind": "fleet",
            "trace": self.resolved.to_dict(),
            "fleet": list(self.replica_designs),
            "policy": self.policy,
            "heterogeneous": self.heterogeneous,
            "dtype": self.dtype.lower(),
            "faults": self.fault_plan.to_dict() if self.fault_plan else None,
            "failover": self.failover,
        }
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class ResultCache:
    """A directory of ``<key>.json`` files storing model-run results."""

    def __init__(self, directory: Union[str, Path]) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def path_for(self, key: str) -> Path:
        return self.directory / f"{key}.json"

    def get(self, key: str) -> Optional[Dict[str, object]]:
        path = self.path_for(key)
        try:
            with path.open("r", encoding="utf-8") as handle:
                return json.load(handle)
        except FileNotFoundError:
            return None
        except (json.JSONDecodeError, OSError):
            # A torn write or corrupted entry is treated as a miss; the
            # recompute below overwrites it atomically.
            return None

    def put(self, key: str, result: Dict[str, object]) -> None:
        path = self.path_for(key)
        # Write-to-temp + rename keeps concurrent workers from ever exposing
        # a half-written entry to a reader.
        fd, tmp_name = tempfile.mkstemp(dir=str(self.directory), suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(result, handle, sort_keys=True)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

    def __len__(self) -> int:
        return sum(1 for _ in self.directory.glob("*.json"))


@dataclass
class BatchOutcome:
    """One job's result plus where it came from."""

    job: Union[BatchJob, "ServingJob", "FleetJob"]
    result: Dict[str, object]
    from_cache: bool


@dataclass
class BatchReport:
    """All outcomes of one ``run_batch`` call."""

    outcomes: List[BatchOutcome] = field(default_factory=list)

    @property
    def computed(self) -> int:
        return sum(1 for outcome in self.outcomes if not outcome.from_cache)

    @property
    def cached(self) -> int:
        return sum(1 for outcome in self.outcomes if outcome.from_cache)

    def results(self) -> List[Dict[str, object]]:
        return [outcome.result for outcome in self.outcomes]


def _execute_job(
    job: Union[BatchJob, "ServingJob", "FleetJob"]
) -> Dict[str, object]:
    """Process-pool worker: run one job end to end, return the dict encoding."""
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
            epoch_compression=job.epoch_compression,
        ).to_dict()
    result = run_model(
        job.spec, job.design, heterogeneous=job.heterogeneous, dtype=dtype
    )
    return result.to_dict()


def _seed_worker_cache(snapshot: Mapping[str, Any]) -> None:
    """Pool initializer: pre-load the parent's warm timing-cache snapshot."""
    timing_cache().load(snapshot)


def run_batch(
    jobs: Sequence[Union[BatchJob, ServingJob, FleetJob]],
    cache_dir: Union[str, Path, None] = None,
    max_workers: Optional[int] = None,
) -> BatchReport:
    """Run ``jobs`` (model, serving and/or fleet), reusing cached results
    and computing misses in parallel.

    ``cache_dir=None`` disables caching.  ``max_workers`` <= 1 runs misses
    inline (useful under test and on platforms without fork); otherwise the
    misses fan out over a :class:`ProcessPoolExecutor`.  Failing to start
    the pool (restricted environments) falls back to inline execution.

    With a ``cache_dir``, the in-process timing cache is loaded from and
    flushed back to a snapshot alongside the result cache, so repeat
    invocations in fresh processes start with warm kernel timings.
    """
    if cache_dir is not None:
        with persistent_timing_cache(cache_dir):
            return _run_batch(jobs, ResultCache(cache_dir), max_workers)
    return _run_batch(jobs, None, max_workers)


def _run_batch(
    jobs: Sequence[Union[BatchJob, ServingJob, FleetJob]],
    cache: Optional[ResultCache],
    max_workers: Optional[int],
) -> BatchReport:

    hits: Dict[int, Dict[str, object]] = {}
    misses: List[int] = []
    keys = [job.key() for job in jobs]
    for index, job in enumerate(jobs):
        cached = cache.get(keys[index]) if cache is not None else None
        if cached is not None:
            hits[index] = cached
        else:
            misses.append(index)

    fresh: Dict[int, Dict[str, object]] = {}
    if misses:
        workers = max_workers if max_workers is not None else min(len(misses), os.cpu_count() or 1)
        if workers <= 1 or len(misses) == 1:
            for index in misses:
                fresh[index] = _execute_job(jobs[index])
        else:
            try:
                # Seed each worker with the parent's warm in-process timing
                # cache so shared kernel shapes are simulated at most once
                # across the whole sweep.
                with ProcessPoolExecutor(
                    max_workers=workers,
                    initializer=_seed_worker_cache,
                    initargs=(timing_cache().snapshot(),),
                ) as pool:
                    for index, result in zip(
                        misses, pool.map(_execute_job, [jobs[index] for index in misses])
                    ):
                        fresh[index] = result
            except (OSError, BrokenProcessPool):
                # Restricted environments: the pool failed to start, or its
                # workers were killed mid-sweep.  Results collected before
                # the failure are kept; the remainder runs inline.
                for index in misses:
                    if index not in fresh:
                        fresh[index] = _execute_job(jobs[index])
        if cache is not None:
            for index, result in fresh.items():
                cache.put(keys[index], result)

    report = BatchReport()
    for index, job in enumerate(jobs):
        if index in hits:
            report.outcomes.append(BatchOutcome(job=job, result=hits[index], from_cache=True))
        else:
            report.outcomes.append(BatchOutcome(job=job, result=fresh[index], from_cache=False))
    return report


def _reject_duplicate_cells(jobs: List) -> List:
    """Fail loudly when a sweep contains two jobs with identical content.

    Duplicate cells used to be silently absorbed by the result cache (the
    second cell is a guaranteed hit), so a sweep advertised as N cells could
    measure fewer than N distinct configurations.  Comparing content hashes
    catches duplicates however they were spelled (zoo name vs. explicit
    spec, repeated values in a knob range).
    """
    seen: Dict[str, str] = {}
    for job in jobs:
        key = job.key()
        if key in seen:
            raise ValueError(
                f"duplicate sweep cell {job.label!r}: same content as "
                f"{seen[key]!r}; drop the repeated value so reported sweep "
                f"sizes count distinct configurations"
            )
        seen[key] = job.label
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
    (the same resolved spec, design and flags) raise ``ValueError`` rather
    than being silently deduplicated by the result cache.
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
    epoch_compression: bool = True,
) -> List[ServingJob]:
    """The (trace x design x unit-config x policy) serving sweep as a job list.

    Each cell continuous-batches one request stream on one design; crossing
    the ``heterogeneous`` flags compares single- vs dual-matrix-unit serving
    under identical load.  Batch mixes are expressed as traces (the trace
    zoo's arrival families over different request-model mixes), so sweeping
    mixes means sweeping traces.  Crossing ``policies`` compares admission
    policies head-to-head on identical load; ``kv_budget`` applies to every
    budgeted policy in the sweep (fcfs cells ignore it -- the job carries it
    as ``None`` so their cache keys stay policy-independent).  Duplicate
    cells raise ``ValueError``.
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
                epoch_compression=epoch_compression,
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
    unknown fleet or policy names -- at build time, not inside a pool worker.
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
        # Force trace/fleet/plan resolution so a bad name or spec fails the
        # sweep build with the offending cell's label attached.
        try:
            job.resolved, job.replica_designs, job.fault_plan
        except (KeyError, ValueError) as error:
            raise ValueError(f"invalid fleet sweep cell: {error}") from error
    return _reject_duplicate_cells(jobs)


def moe_sweep_jobs(
    base: Union[str, ModelSpec] = "moe-decode",
    experts: Sequence[int] = (4, 8, 16),
    top_ks: Sequence[int] = (1, 2),
    designs: Sequence[str] = ("virgo",),
    capacity_factors: Sequence[float] = (1.0,),
    heterogeneous: Union[bool, Sequence[bool]] = (False, True),
) -> List[BatchJob]:
    """The (experts x top_k x capacity x design x unit-config) MoE sweep.

    ``base`` supplies every non-MoE hyperparameter (zoo name or explicit
    spec) and must be a ``family="moe"`` model -- other families silently
    ignore the routing knobs, which would make every cell identical.  Each
    cell overrides the knobs via :func:`scaled_spec`, so the batch runner's
    content hash distinguishes every combination.  Infeasible cells
    (``top_k > experts``) are skipped rather than raised, which lets callers
    pass rectangular ranges; cells with identical content (e.g. a repeated
    value in a knob range) raise ``ValueError`` instead of silently
    shrinking the measured sweep.
    """
    base_spec = resolve_spec(base) if isinstance(base, str) else base
    if base_spec.family != "moe":
        raise ValueError(
            f"moe_sweep_jobs needs a family='moe' base spec, got "
            f"family={base_spec.family!r} (the MoE knobs would be ignored)"
        )
    flags = [heterogeneous] if isinstance(heterogeneous, bool) else list(heterogeneous)
    return _reject_duplicate_cells(
        [
            BatchJob(
                model=scaled_spec(
                    base_spec, experts=count, top_k=top_k, capacity_factor=factor
                ),
                design=design,
                heterogeneous=flag,
            )
            for count in experts
            for top_k in top_ks
            if top_k <= count
            for factor in capacity_factors
            for design in designs
            for flag in flags
        ]
    )
