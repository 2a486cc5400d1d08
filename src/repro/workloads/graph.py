"""Declarative layer-graph IR for end-to-end model workloads.

A :class:`LayerGraph` is a small DAG of neural-network layers -- linear/GEMM,
attention, elementwise and normalization nodes -- annotated with enough shape
information (batch, sequence, features, heads) that the lowering pass in
:mod:`repro.workloads.lowering` can map every node onto the kernel timing
models without further user input.

The IR is deliberately *not* a tensor program: there is no data, only shapes
and operator hyperparameters.  Shape inference walks the graph in insertion
order (dependencies must be added before dependents, the same discipline the
:class:`repro.sim.taskgraph.OperationGraph` enforces) and checks that feature
dimensions agree across edges, so a malformed model fails at build time
rather than producing a nonsense kernel schedule.

Attention nodes carry the variants a real model frontend must express --
grouped-query / multi-query head counts, causal masking and decode-phase
single-query attention against a longer KV context -- mirroring the variant
matrix of the ROCm flash-attention test harness.

Mixture-of-experts FFN blocks are a single :class:`MoeFfnLayer` node (or
:class:`MoeBlock` when shared experts ride along): the node carries the
routing hyperparameters (expert count, top-k, capacity factor) and the
lowering pass expands it into a router/dispatch prologue, one independent
GEMM pair per active expert and a combine epilogue.  Keeping the fan-out
implicit at the IR level means shape inference stays per-node while the
emitted kernel schedule is as wide as the expert count.

Above single model graphs sits the serving-trace layer: a
:class:`RequestSpec` is a decode-phase model instance with an arrival cycle
and a lifetime in decode steps, and a :class:`ServingTrace` is a named
stream of such requests plus the KV-context bucketing policy.  The
continuous-batching scheduler in :mod:`repro.workloads.serving` consumes
traces and lowers every in-flight request's next decode step into one merged
kernel schedule per iteration.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.workloads.control import SloClass

if TYPE_CHECKING:  # avoid a circular import; models.py imports this module
    from repro.workloads.models import ModelSpec


class LayerKind(enum.Enum):
    """Operator categories the lowering pass knows how to map."""

    LINEAR = "linear"
    ATTENTION = "attention"
    ELEMENTWISE = "elementwise"
    NORM = "norm"
    MOE_FFN = "moe_ffn"


@dataclass(frozen=True)
class TensorShape:
    """Activation shape flowing along a graph edge: (batch, seq, features)."""

    batch: int
    seq: int
    features: int

    def __post_init__(self) -> None:
        if self.batch <= 0 or self.seq <= 0 or self.features <= 0:
            raise ValueError(f"tensor dimensions must be positive, got {self}")

    @property
    def tokens(self) -> int:
        """Rows a row-major GEMM sees: batch x sequence."""
        return self.batch * self.seq

    @property
    def elements(self) -> int:
        return self.batch * self.seq * self.features

    def with_features(self, features: int) -> "TensorShape":
        return replace(self, features=features)


@dataclass(frozen=True)
class Layer:
    """Base class of all graph nodes.

    ``deps`` name the producing layers; a layer with no deps consumes the
    graph input.  ``phase`` is a free-form label ("prefill", "decode",
    "encode", ...) that survives lowering so per-phase aggregation works all
    the way down to the :class:`~repro.workloads.lowering.ModelRunResult`.
    """

    name: str
    deps: Tuple[str, ...] = ()
    phase: str = ""

    @property
    def kind(self) -> LayerKind:
        raise NotImplementedError

    def infer_shape(self, inputs: Sequence[TensorShape]) -> TensorShape:
        """Output shape given the shapes of ``deps`` (graph input if none)."""
        raise NotImplementedError


@dataclass(frozen=True)
class LinearLayer(Layer):
    """A dense projection: (B, S, in_features) -> (B, S, out_features)."""

    in_features: int = 0
    out_features: int = 0

    def __post_init__(self) -> None:
        if self.in_features <= 0 or self.out_features <= 0:
            raise ValueError(f"linear layer {self.name!r} needs positive feature dims")

    @property
    def kind(self) -> LayerKind:
        return LayerKind.LINEAR

    def infer_shape(self, inputs: Sequence[TensorShape]) -> TensorShape:
        shape = inputs[0]
        if shape.features != self.in_features:
            raise ValueError(
                f"linear layer {self.name!r} expects {self.in_features} input features, "
                f"got {shape.features}"
            )
        return shape.with_features(self.out_features)

    def gemm_dims(self, shape: TensorShape) -> Tuple[int, int, int]:
        """(m, n, k) of the GEMM this layer lowers to."""
        return shape.tokens, self.out_features, self.in_features

    @property
    def weight_macs_per_token(self) -> int:
        return self.in_features * self.out_features


@dataclass(frozen=True)
class AttentionLayer(Layer):
    """Scaled-dot-product attention over pre-projected Q/K/V activations.

    ``heads`` is the query head count; ``kv_heads`` < ``heads`` expresses
    grouped-query attention (``kv_heads == 1`` is MQA).  ``kv_seq`` is the
    key/value sequence length; in decode phase the incoming activation has
    ``seq == 1`` while ``kv_seq`` is the full context; causal prefill with
    ``kv_seq > seq`` is chunked prefill over prior context.  ``causal``
    marks the triangular mask of autoregressive attention; its score work
    is counted *exactly* from the integer mask arithmetic in
    :mod:`repro.kernels.masking` (a full triangle keeps ``(seq+1)/(2*seq)``
    of the rectangle, a trapezoid over prior context keeps
    ``(kv - (seq-1)/2)/kv``).  ``window`` keeps only the last ``window``
    allowed keys per query (sliding-window attention); ``seq_lens`` packs a
    ragged batch of causally-independent sequences into one batch-1
    activation (varlen, block-diagonal mask).
    """

    heads: int = 1
    head_dim: int = 64
    kv_heads: int = 0  # 0 means same as heads (vanilla MHA)
    kv_seq: int = 0  # 0 means same as the query sequence length
    causal: bool = False
    window: int = 0  # sliding-window width; 0 = unwindowed
    seq_lens: Tuple[int, ...] = ()  # varlen packed batch; sum == shape.seq

    def __post_init__(self) -> None:
        if self.heads <= 0 or self.head_dim <= 0:
            raise ValueError(f"attention layer {self.name!r} needs positive heads/head_dim")
        if self.kv_heads and self.heads % self.kv_heads != 0:
            raise ValueError(
                f"attention layer {self.name!r}: heads ({self.heads}) must be divisible "
                f"by kv_heads ({self.kv_heads})"
            )
        if (self.window or self.seq_lens) and not self.causal:
            raise ValueError(
                f"attention layer {self.name!r}: window/seq_lens describe causal "
                f"masks; set causal=True"
            )
        if self.window < 0:
            raise ValueError(f"attention layer {self.name!r}: window must be >= 0")
        if self.seq_lens:
            if self.kv_seq:
                raise ValueError(
                    f"attention layer {self.name!r}: varlen batches carry no "
                    f"prior context (kv_seq)"
                )
            if any(length <= 0 for length in self.seq_lens):
                raise ValueError(
                    f"attention layer {self.name!r}: seq_lens must be positive"
                )

    @property
    def kind(self) -> LayerKind:
        return LayerKind.ATTENTION

    @property
    def effective_kv_heads(self) -> int:
        return self.kv_heads or self.heads

    @property
    def model_dim(self) -> int:
        return self.heads * self.head_dim

    def kv_length(self, shape: TensorShape) -> int:
        return self.kv_seq or shape.seq

    def validate_ragged(self, shape: TensorShape) -> None:
        """Check the varlen packing invariants against the activation shape."""
        if not self.seq_lens:
            return
        if shape.batch != 1:
            raise ValueError(
                f"attention layer {self.name!r}: varlen packs the ragged batch "
                f"into batch 1, got batch {shape.batch}"
            )
        if sum(self.seq_lens) != shape.seq:
            raise ValueError(
                f"attention layer {self.name!r}: seq_lens {self.seq_lens} must "
                f"sum to the packed sequence length {shape.seq}"
            )

    def infer_shape(self, inputs: Sequence[TensorShape]) -> TensorShape:
        shape = inputs[0]
        if shape.features != self.model_dim:
            raise ValueError(
                f"attention layer {self.name!r} expects {self.model_dim} features "
                f"(= heads x head_dim), got {shape.features}"
            )
        self.validate_ragged(shape)
        return shape

    def masked_score_elements(self, shape: TensorShape) -> int:
        """Score elements surviving the mask, across heads and batch.

        Exact integer mask counts from :mod:`repro.kernels.masking` -- the
        single source of truth for :meth:`score_macs` and the lowering pass,
        so reported MAC utilization always matches the mask-count oracle.
        """
        from repro.kernels.masking import masked_elements, masked_elements_varlen

        kv = self.kv_length(shape)
        if not self.causal:
            per_head = shape.seq * kv
        elif self.seq_lens:
            self.validate_ragged(shape)
            per_head = masked_elements_varlen(self.seq_lens, self.window)
        else:
            per_head = masked_elements(shape.seq, kv, self.window)
        return shape.batch * self.heads * per_head

    def score_macs(self, shape: TensorShape) -> int:
        """MACs of the two score GEMMs (QK^T and PV) across heads and batch.

        Accumulated in integer mask-element counts -- never a floored
        ``int(macs * fraction)`` float product.
        """
        return 2 * self.masked_score_elements(shape) * self.head_dim


@dataclass(frozen=True)
class MoeFfnLayer(Layer):
    """Mixture-of-experts FFN: router -> top-k dispatch -> experts -> combine.

    A single graph node stands for the whole expert-parallel block; the
    lowering pass fans it out into a SIMT router/dispatch prologue, one
    *independent* GEMM pair (up projection, activation, down projection) per
    active expert, and a SIMT combine epilogue weighted by the router
    probabilities.  Because the expert chains share no edges with each other,
    this is the wide-graph shape where the dual-unit cluster can finally
    overlap its matrix and SIMT resources instead of ping-ponging.

    Routing follows the standard capacity model: each of the ``experts``
    experts processes at most ``expert_capacity`` tokens, where the capacity
    is ``ceil(tokens * top_k * capacity_factor / experts)``; experts that no
    token can reach (``tokens * top_k < experts``, the decode regime) emit no
    kernels at all.
    """

    in_features: int = 0
    expert_hidden: int = 0
    experts: int = 8
    top_k: int = 2
    capacity_factor: float = 1.0
    #: FLOPs/element of the per-expert activation (GeLU by default).
    activation_flops: float = 8.0

    def __post_init__(self) -> None:
        if self.in_features <= 0 or self.expert_hidden <= 0:
            raise ValueError(f"moe layer {self.name!r} needs positive feature dims")
        if self.experts <= 0 or not 0 < self.top_k <= self.experts:
            raise ValueError(
                f"moe layer {self.name!r}: need 0 < top_k ({self.top_k}) <= "
                f"experts ({self.experts})"
            )
        if self.capacity_factor <= 0:
            raise ValueError(f"moe layer {self.name!r} needs a positive capacity factor")

    @property
    def kind(self) -> LayerKind:
        return LayerKind.MOE_FFN

    def infer_shape(self, inputs: Sequence[TensorShape]) -> TensorShape:
        shape = inputs[0]
        if shape.features != self.in_features:
            raise ValueError(
                f"moe layer {self.name!r} expects {self.in_features} input features, "
                f"got {shape.features}"
            )
        return shape

    def active_experts(self, shape: TensorShape) -> int:
        """Experts that receive at least one token: decode steps route
        ``tokens * top_k`` assignments, which can undershoot the expert count."""
        return min(self.experts, shape.tokens * self.top_k)

    def expert_capacity(self, shape: TensorShape) -> int:
        """Tokens each active expert processes (capacity-bound, padded up)."""
        routed = shape.tokens * self.top_k * self.capacity_factor
        return max(1, math.ceil(routed / self.experts))

    def expert_gemm_dims(self, shape: TensorShape) -> Tuple[Tuple[int, int, int], ...]:
        """(m, n, k) of the up and down projections of one expert."""
        m = self.expert_capacity(shape)
        return (
            (m, self.expert_hidden, self.in_features),
            (m, self.in_features, self.expert_hidden),
        )

    @property
    def router_flops_per_token(self) -> float:
        """Gating projection + softmax + top-k selection, all on the SIMT cores."""
        return 2.0 * self.in_features * self.experts + 8.0 * self.experts

    def expert_macs(self, shape: TensorShape) -> int:
        """Matrix-unit MACs across all active experts (both projections)."""
        per_expert = sum(m * n * k for m, n, k in self.expert_gemm_dims(shape))
        return self.active_experts(shape) * per_expert


@dataclass(frozen=True)
class MoeBlock(MoeFfnLayer):
    """A routed MoE FFN with DeepSeek-style always-on shared experts.

    ``shared_experts`` dense experts process *every* token regardless of the
    router's decision; their GEMM chains depend only on the block input, not
    on the router, so they can start before routing resolves -- extra
    router-independent work for the scheduler to overlap.
    """

    shared_experts: int = 1

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.shared_experts < 0:
            raise ValueError(f"moe block {self.name!r} needs shared_experts >= 0")

    def shared_gemm_dims(self, shape: TensorShape) -> Tuple[Tuple[int, int, int], ...]:
        """(m, n, k) of one shared expert's projections: all tokens, no capacity."""
        return (
            (shape.tokens, self.expert_hidden, self.in_features),
            (shape.tokens, self.in_features, self.expert_hidden),
        )

    def expert_macs(self, shape: TensorShape) -> int:
        routed = super().expert_macs(shape)
        shared = sum(m * n * k for m, n, k in self.shared_gemm_dims(shape))
        return routed + self.shared_experts * shared


@dataclass(frozen=True)
class ElementwiseLayer(Layer):
    """Pointwise math on the activation: activations, residual adds, scaling."""

    flops_per_element: float = 1.0
    operator: str = "add"

    @property
    def kind(self) -> LayerKind:
        return LayerKind.ELEMENTWISE

    def infer_shape(self, inputs: Sequence[TensorShape]) -> TensorShape:
        shape = inputs[0]
        for other in inputs[1:]:
            if other != shape:
                raise ValueError(
                    f"elementwise layer {self.name!r} has mismatched input shapes "
                    f"{shape} vs {other}"
                )
        return shape


@dataclass(frozen=True)
class NormLayer(Layer):
    """Layer/RMS normalization: two reduction passes plus a scale pass."""

    flops_per_element: float = 8.0
    norm_type: str = "layernorm"

    @property
    def kind(self) -> LayerKind:
        return LayerKind.NORM

    def infer_shape(self, inputs: Sequence[TensorShape]) -> TensorShape:
        return inputs[0]


class LayerGraph:
    """A DAG of layers plus the input activation shape.

    Layers must be added dependencies-first, which keeps the insertion order
    topological -- the same invariant the kernel operation graphs rely on, so
    lowering can walk ``layers()`` directly.
    """

    def __init__(self, name: str, input_shape: TensorShape) -> None:
        self.name = name
        self.input_shape = input_shape
        self._layers: Dict[str, Layer] = {}
        self._order: List[str] = []
        self._shapes: Dict[str, TensorShape] = {}

    def add(self, layer: Layer) -> Layer:
        if layer.name in self._layers:
            raise ValueError(f"duplicate layer {layer.name!r} in graph {self.name!r}")
        for dep in layer.deps:
            if dep not in self._layers:
                raise ValueError(
                    f"layer {layer.name!r} depends on unknown layer {dep!r}; "
                    "add dependencies before dependents"
                )
        inputs = [self._shapes[dep] for dep in layer.deps] or [self.input_shape]
        self._shapes[layer.name] = layer.infer_shape(inputs)
        self._layers[layer.name] = layer
        self._order.append(layer.name)
        return layer

    def layers(self) -> List[Layer]:
        return [self._layers[name] for name in self._order]

    def output_shape(self, name: str) -> TensorShape:
        """Inferred activation shape produced by layer ``name``."""
        return self._shapes[name]

    def input_shape_of(self, layer: Layer) -> TensorShape:
        """Activation shape the layer consumes (first dependency or graph input)."""
        if layer.deps:
            return self._shapes[layer.deps[0]]
        return self.input_shape

    def phases(self) -> List[str]:
        """Distinct phase labels in first-appearance order."""
        seen: List[str] = []
        for layer in self.layers():
            label = layer.phase or "default"
            if label not in seen:
                seen.append(label)
        return seen

    def total_macs(self) -> int:
        """Matrix-multiply MACs of the whole graph (linear + attention score GEMMs)."""
        total = 0
        for layer in self.layers():
            shape = self.input_shape_of(layer)
            if isinstance(layer, LinearLayer):
                total += shape.tokens * layer.weight_macs_per_token
            elif isinstance(layer, AttentionLayer):
                total += layer.score_macs(shape)
            elif isinstance(layer, MoeFfnLayer):
                total += layer.expert_macs(shape)
        return total

    def __len__(self) -> int:
        return len(self._layers)

    def __contains__(self, name: str) -> bool:
        return name in self._layers

    def __iter__(self) -> Iterator[Layer]:
        return iter(self.layers())

    def __repr__(self) -> str:
        return (
            f"LayerGraph({self.name!r}, {len(self)} layers, "
            f"input={self.input_shape.batch}x{self.input_shape.seq}x{self.input_shape.features})"
        )


# --------------------------------------------------------------------------- #
# Serving traces: the time-multiplexed layer above single model graphs
# --------------------------------------------------------------------------- #

#: Model families whose builders emit a decode-phase graph; only these can be
#: driven one decode step at a time by the serving scheduler.
DECODE_FAMILIES = ("gpt", "moe")


def bucket_context(context: int, bucket: int) -> int:
    """Round a KV context length up to the page granularity ``bucket``.

    The single definition of the paged-KV rounding policy: both the batched
    serving run and the isolated baseline must bucket identically, or the
    merged-vs-isolated comparisons would measure the policy, not scheduling.
    """
    return ((context + bucket - 1) // bucket) * bucket


@dataclass(frozen=True)
class RequestSpec:
    """One serving request: a decode-phase model instance with a lifetime.

    ``model`` carries every hyperparameter of the request's network (family,
    hidden size, head layout, MoE routing knobs); the serving scheduler
    re-derives the per-step graph from it with ``phase="decode"`` and a
    context length of ``prompt_len`` plus the decode steps completed so far.
    ``arrival_cycle`` is when the request enters the system; it joins the
    batch at the next iteration boundary (iteration-level continuous
    batching), and runs for exactly ``decode_steps`` decode iterations.
    ``slo`` optionally attaches a service-level objective
    (:class:`~repro.workloads.control.SloClass`): TTFT/TPOT targets judged
    after the run, a priority for admission/preemption, and a queue deadline
    after which a budgeted policy may shed the request.
    """

    request_id: str
    model: "ModelSpec"
    arrival_cycle: int = 0
    prompt_len: int = 128
    decode_steps: int = 4
    slo: Optional[SloClass] = None

    def __post_init__(self) -> None:
        if not self.request_id:
            raise ValueError("requests need a non-empty request_id")
        if "/" in self.request_id:
            # The id becomes the request's "<id>/" kernel namespace in merged
            # schedules; a "/" inside it would let one id be a string-prefix
            # of another's namespace and misattribute layers across requests.
            raise ValueError(
                f"request id {self.request_id!r} must not contain '/'"
            )
        if self.arrival_cycle < 0:
            raise ValueError(f"request {self.request_id!r} needs arrival_cycle >= 0")
        if self.prompt_len <= 0 or self.decode_steps <= 0:
            raise ValueError(
                f"request {self.request_id!r} needs positive prompt_len and decode_steps"
            )
        if self.model.family not in DECODE_FAMILIES:
            raise ValueError(
                f"request {self.request_id!r}: family {self.model.family!r} has no "
                f"decode phase; serving requests must be one of {DECODE_FAMILIES}"
            )

    def context_at(self, steps_done: int) -> int:
        """KV context length the given decode step attends over."""
        return self.prompt_len + steps_done

    def to_dict(self) -> Dict[str, object]:
        return {
            "request_id": self.request_id,
            "arrival_cycle": self.arrival_cycle,
            "prompt_len": self.prompt_len,
            "decode_steps": self.decode_steps,
            "model": self.model.to_dict(),
            "slo": self.slo.to_dict() if self.slo is not None else None,
        }


@dataclass(frozen=True)
class ServingTrace:
    """A named stream of requests plus the KV-context bucketing policy.

    ``context_bucket`` rounds every step's KV length up to a multiple of the
    bucket (a paged-KV-cache model): nearby context lengths share one kernel
    shape, so the timing cache converges to a small working set instead of
    simulating a fresh GEMM per token position.
    """

    name: str
    requests: Tuple[RequestSpec, ...]
    context_bucket: int = 64

    def __post_init__(self) -> None:
        if not self.requests:
            raise ValueError(f"trace {self.name!r} needs at least one request")
        if self.context_bucket <= 0:
            raise ValueError(f"trace {self.name!r} needs a positive context bucket")
        seen = set()
        previous: Optional[RequestSpec] = None
        for request in self.requests:
            if request.request_id in seen:
                raise ValueError(
                    f"trace {self.name!r} has duplicate request id {request.request_id!r}"
                )
            seen.add(request.request_id)
            # Traces must already be in arrival order (ties broken by id):
            # an unsorted stream would silently disagree with the arrival
            # order every consumer assumes, so reject it at construction.
            if previous is not None and (
                (request.arrival_cycle, request.request_id)
                < (previous.arrival_cycle, previous.request_id)
            ):
                raise ValueError(
                    f"trace {self.name!r} is not sorted by arrival: request "
                    f"{request.request_id!r} (arrival {request.arrival_cycle}) follows "
                    f"{previous.request_id!r} (arrival {previous.arrival_cycle}); "
                    "sort requests by (arrival_cycle, request_id)"
                )
            previous = request

    def sorted_requests(self) -> Tuple[RequestSpec, ...]:
        """Requests in arrival order (ties broken by id, deterministically).

        Construction already rejects unsorted streams (``__post_init__``),
        so this is the stored tuple -- O(1), which matters when the serving
        scheduler walks million-request traces.
        """
        return self.requests

    def bucketed_context(self, context: int) -> int:
        """Round ``context`` up to the trace's KV page granularity."""
        return bucket_context(context, self.context_bucket)

    @property
    def total_decode_steps(self) -> int:
        return sum(request.decode_steps for request in self.requests)

    def __len__(self) -> int:
        return len(self.requests)

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "context_bucket": self.context_bucket,
            "requests": [request.to_dict() for request in self.requests],
        }


def build_request_stream(
    model: "ModelSpec",
    arrival_cycles: Sequence[int],
    prompt_len: int = 128,
    decode_steps: int = 4,
    id_prefix: str = "s",
    slo: Optional[SloClass] = None,
) -> Tuple[RequestSpec, ...]:
    """Bulk-construct a sorted, uniform-shape request stream.

    Million-request traces cannot afford one ``__post_init__`` per request;
    this builder validates the shared shape once (by constructing a probe
    spec through the normal path), checks the arrival vector in one numpy
    pass, then allocates the remaining frozen specs directly.  Ids are
    ``<prefix><zero-padded index>``, so (arrival, id) order equals
    construction order and every id is unique -- exactly the invariants
    ``ServingTrace.__post_init__`` would re-derive per request.
    """
    arrivals = np.asarray(arrival_cycles, dtype=np.int64)
    if arrivals.size == 0:
        raise ValueError("a request stream needs at least one arrival")
    if int(arrivals[0]) < 0:
        raise ValueError("request streams need arrival_cycle >= 0")
    if arrivals.size > 1 and int(np.diff(arrivals).min()) < 0:
        raise ValueError("request streams must be sorted by arrival_cycle")
    width = len(str(arrivals.size - 1))
    fmt = (f"{id_prefix}%0{width}d").__mod__
    probe = RequestSpec(
        request_id=fmt(0),
        model=model,
        arrival_cycle=int(arrivals[0]),
        prompt_len=prompt_len,
        decode_steps=decode_steps,
        slo=slo,
    )
    new = RequestSpec.__new__
    set_dict = object.__setattr__
    requests = [new(RequestSpec) for _ in range(arrivals.size - 1)]
    for index, (request, arrival) in enumerate(
        zip(requests, arrivals[1:].tolist()), start=1
    ):
        set_dict(
            request,
            "__dict__",
            {
                "request_id": fmt(index),
                "model": model,
                "arrival_cycle": arrival,
                "prompt_len": prompt_len,
                "decode_steps": decode_steps,
                "slo": slo,
            },
        )
    requests.insert(0, probe)
    return tuple(requests)


def build_stream_trace(
    name: str,
    requests: Iterable[RequestSpec],
    context_bucket: int = 64,
) -> ServingTrace:
    """Construct a :class:`ServingTrace` from a pre-validated stream.

    Skips the per-request ``__post_init__`` walk (duplicate ids, sort
    order), which the :func:`build_request_stream` invariants already
    guarantee -- the O(n) validation pass is the bottleneck when wrapping a
    million-request stream.  Only use with streams whose ordering and id
    uniqueness are guaranteed by construction.
    """
    if context_bucket <= 0:
        raise ValueError(f"trace {name!r} needs a positive context bucket")
    stream = tuple(requests)
    if not stream:
        raise ValueError(f"trace {name!r} needs at least one request")
    trace = ServingTrace.__new__(ServingTrace)
    object.__setattr__(
        trace,
        "__dict__",
        {"name": name, "requests": stream, "context_bucket": context_bucket},
    )
    return trace
