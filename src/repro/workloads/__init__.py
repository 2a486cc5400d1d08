"""End-to-end model workloads lowered onto the kernel timing models.

This subsystem turns whole networks -- not single kernels -- into the unit
of experiment, so cluster-level questions (does disaggregation still win
when decode-phase GEMMs are skinny? what fraction of a serving step is
softmax?) can be answered directly.

Pipeline
--------
1. :mod:`repro.workloads.graph` -- a declarative layer-graph IR with shape
   inference over (batch, sequence, features, heads);
2. :mod:`repro.workloads.models` -- a model zoo building GPT-style decoders
   (prefill and decode as separate graphs), Mixtral-style MoE decoders with
   expert-parallel FFN blocks, BERT-style encoders and a GEMM-chain baseline
   from a :class:`~repro.workloads.models.ModelSpec`;
3. :mod:`repro.workloads.lowering` -- lowers each layer onto the existing
   GEMM / FlashAttention / SIMT kernel models, compiles the resulting
   dependency graph into a step program, list-schedules it on the
   cluster's resources and aggregates it once (the placed model is
   memoized per model and design), and assembles a
   :class:`~repro.workloads.lowering.ModelRunResult`;
4. :mod:`repro.workloads.serving` -- iteration-level continuous batching
   over :class:`~repro.workloads.graph.ServingTrace` request streams: every
   in-flight request's next decode step joins one list schedule per
   iteration, on the same executor, so independent requests overlap on the
   matrix/SIMT units and per-request latency percentiles fall out of the
   placement;
5. :mod:`repro.workloads.batch` -- builds (model, design), (trace, design)
   and fleet chaos sweeps and runs their cells in the calling process
   (:func:`~repro.workloads.batch.serving_sweep_jobs` crosses the serving
   batch mixes); ``--cache-dir`` persists the timing cache they share.

Per-kernel timings flow through the process-wide timing cache
(:mod:`repro.perf`; per-run hit/miss stats land in
``ModelRunResult.timing_cache``) and, for GEMMs, through the closed-form
tile-loop scheduler (``full_expansion=True`` on
:func:`repro.kernels.gemm.simulate_gemm` keeps the expanded oracle path).
``docs/perf-contract.md`` states both contracts precisely.

Usage
-----
>>> from repro.workloads import run_model
>>> result = run_model("gpt-prefill", "virgo")
>>> result.total_cycles, result.mac_utilization_percent  # doctest: +SKIP

From the command line::

    python -m repro model --list
    python -m repro model --name gpt-prefill --design virgo
    python -m repro model --name moe-decode --design virgo --hetero --moe-breakdown
    python -m repro model --batch --names gpt-prefill,gpt-decode \\
        --designs virgo,ampere --cache-dir /tmp/repro-cache
    python -m repro serve --trace poisson-mixed --latency-report
"""

from repro.workloads.control import (
    POLICIES,
    SLO_CLASSES,
    FcfsPolicy,
    KvBudgetPolicy,
    PolicyContext,
    PreemptiveSloPolicy,
    SchedulingPolicy,
    SloClass,
    policy_names,
    request_kv_bytes,
    resolve_policy,
    resolve_slo,
)
from repro.workloads.epochs import (
    EpisodeRun,
    EpisodeTemplate,
    EpochRecord,
    IterationRecord,
    IterationTimeline,
)
from repro.workloads.graph import (
    AttentionLayer,
    ElementwiseLayer,
    Layer,
    LayerGraph,
    LayerKind,
    LinearLayer,
    MoeBlock,
    MoeFfnLayer,
    NormLayer,
    RequestSpec,
    ServingTrace,
    TensorShape,
    build_request_stream,
    build_stream_trace,
)
from repro.workloads.fleet import (
    FLEET_DISPOSITIONS,
    ROUTER_POLICIES,
    FleetRequestResult,
    FleetRunResult,
    ReplicaReport,
    RouterConfig,
    backoff_cycles,
    resolve_fleet_designs,
    resolve_router_policy,
    run_fleet,
)
from repro.workloads.models import (
    FLEET_ZOO,
    MODEL_ZOO,
    REQUEST_MODELS,
    TRACE_ZOO,
    ModelSpec,
    bert_encoder,
    build_model,
    bursty_trace,
    fleet_names,
    gemm_chain,
    gpt_decoder,
    model_names,
    resolve_fleet,
    moe_decoder,
    poisson_stream_trace,
    poisson_trace,
    resolve_spec,
    resolve_trace,
    scaled_spec,
    slo_trace,
    trace_names,
    uniform_trace,
    varlen_trace,
)
from repro.workloads.lowering import (
    KernelInvocation,
    KernelSchedule,
    LayerRunResult,
    ModelRunResult,
    lower_graph,
    run_model,
)
from repro.workloads.serving import (
    DISPOSITIONS,
    RequestResult,
    ServingRunResult,
    ServingScheduler,
    run_serving,
)
from repro.workloads.batch import (
    BatchJob,
    BatchOutcome,
    BatchReport,
    FleetJob,
    ServingJob,
    fleet_sweep_jobs,
    run_batch,
    serving_sweep_jobs,
    sweep_jobs,
)

__all__ = [
    "EpisodeRun",
    "EpisodeTemplate",
    "EpochRecord",
    "IterationRecord",
    "IterationTimeline",
    "POLICIES",
    "SLO_CLASSES",
    "FcfsPolicy",
    "KvBudgetPolicy",
    "PolicyContext",
    "PreemptiveSloPolicy",
    "SchedulingPolicy",
    "SloClass",
    "policy_names",
    "request_kv_bytes",
    "resolve_policy",
    "resolve_slo",
    "AttentionLayer",
    "ElementwiseLayer",
    "Layer",
    "LayerGraph",
    "LayerKind",
    "LinearLayer",
    "MoeBlock",
    "MoeFfnLayer",
    "NormLayer",
    "RequestSpec",
    "ServingTrace",
    "TensorShape",
    "build_request_stream",
    "build_stream_trace",
    "FLEET_DISPOSITIONS",
    "ROUTER_POLICIES",
    "FleetRequestResult",
    "FleetRunResult",
    "ReplicaReport",
    "RouterConfig",
    "backoff_cycles",
    "resolve_fleet_designs",
    "resolve_router_policy",
    "run_fleet",
    "FLEET_ZOO",
    "MODEL_ZOO",
    "REQUEST_MODELS",
    "TRACE_ZOO",
    "ModelSpec",
    "bert_encoder",
    "build_model",
    "bursty_trace",
    "gemm_chain",
    "gpt_decoder",
    "model_names",
    "moe_decoder",
    "poisson_stream_trace",
    "poisson_trace",
    "resolve_spec",
    "resolve_trace",
    "scaled_spec",
    "slo_trace",
    "trace_names",
    "uniform_trace",
    "varlen_trace",
    "KernelInvocation",
    "KernelSchedule",
    "LayerRunResult",
    "ModelRunResult",
    "lower_graph",
    "run_model",
    "DISPOSITIONS",
    "RequestResult",
    "ServingRunResult",
    "ServingScheduler",
    "run_serving",
    "BatchJob",
    "BatchOutcome",
    "BatchReport",
    "FleetJob",
    "ServingJob",
    "fleet_names",
    "fleet_sweep_jobs",
    "resolve_fleet",
    "run_batch",
    "serving_sweep_jobs",
    "sweep_jobs",
]
