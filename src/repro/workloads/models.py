"""Model zoo: build full layer graphs from a handful of hyperparameters.

Four families cover the scenario space the evaluation cares about:

* GPT-style decoder blocks, with the **prefill** phase (full-sequence causal
  attention) and the **decode** phase (one query token against a long KV
  context) built as separate graphs, since their kernel mixes differ sharply;
* Mixtral-style **MoE decoders**: the same attention sublayers, but every
  dense FFN replaced by an expert-parallel routed mixture
  (:class:`~repro.workloads.graph.MoeFfnLayer`) whose independent expert
  GEMM pairs give the scheduler a graph wide enough to keep the matrix and
  SIMT units busy simultaneously;
* BERT-style encoder blocks (bidirectional attention, no mask);
* a GEMM-chain baseline (an MLP / im2col-style CNN stand-in) that exercises
  the matrix-unit path with no attention at all.

All builders take a :class:`ModelSpec` so a design-space sweep can vary
hidden size, depth, head layout (including GQA/MQA via ``kv_heads``),
sequence length and batch from one record -- and so the sweep builders can
compare the exact workload of two cells.

The serving-trace zoo at the bottom of the module builds request *streams*
for the continuous-batching scheduler (:mod:`repro.workloads.serving`):
deterministic poisson / bursty / uniform arrival families over mixes of the
decode-phase request presets in :data:`REQUEST_MODELS`.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.workloads.graph import (
    AttentionLayer,
    ElementwiseLayer,
    LayerGraph,
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
from repro.workloads.control import SloClass, resolve_slo

#: FLOPs per element of a GeLU evaluated with the tanh approximation.
GELU_FLOPS = 8.0
#: FLOPs per element of a residual add.
RESIDUAL_FLOPS = 1.0


@dataclass(frozen=True)
class ModelSpec:
    """Hyperparameters of one model workload instance.

    ``phase`` selects prefill vs decode for GPT models; ``context_len`` is
    the KV length decode attends over (ignored for other phases).
    """

    family: str = "gpt"
    batch: int = 1
    seq_len: int = 256
    hidden: int = 512
    blocks: int = 2
    heads: int = 8
    kv_heads: int = 0  # 0 = same as heads; 1 = MQA; in between = GQA
    ffn_mult: int = 4
    phase: str = "prefill"
    context_len: int = 0  # decode KV length (0 = seq_len); prefill: prior context
    # Mixture-of-experts hyperparameters (family "moe"; ignored elsewhere).
    experts: int = 0  # 0 = dense FFN
    top_k: int = 2
    capacity_factor: float = 1.0
    shared_experts: int = 0  # DeepSeek-style always-on dense experts
    # Attention mask variants (GPT/MoE families).
    window: int = 0  # sliding-window attention width; 0 = unwindowed
    seq_lens: Tuple[int, ...] = ()  # ragged prefill batch packed varlen

    def __post_init__(self) -> None:
        if self.hidden % self.heads != 0:
            raise ValueError(
                f"hidden ({self.hidden}) must be divisible by heads ({self.heads})"
            )
        if self.batch <= 0 or self.seq_len <= 0 or self.blocks <= 0:
            raise ValueError("batch, seq_len and blocks must be positive")
        if self.family == "moe" and self.experts <= 0:
            raise ValueError("moe models need a positive expert count")
        if self.experts and not 0 < self.top_k <= self.experts:
            raise ValueError(
                f"top_k ({self.top_k}) must be in 1..experts ({self.experts})"
            )
        if self.window < 0:
            raise ValueError(f"window ({self.window}) must be >= 0")
        # An encoding carries ``seq_lens`` as a list: a tuple keeps a rebuilt
        # spec equal to the original, and hashable.
        object.__setattr__(self, "seq_lens", tuple(self.seq_lens))
        if self.phase == "prefill" and self.context_len:
            if self.context_len < self.seq_len:
                raise ValueError(
                    f"prefill over prior context needs context_len "
                    f"({self.context_len}) >= seq_len ({self.seq_len})"
                )
        if self.seq_lens:
            if self.phase != "prefill":
                raise ValueError("seq_lens describes a ragged prefill batch")
            if self.batch != 1:
                raise ValueError("varlen packs the ragged batch; use batch=1")
            if self.context_len:
                raise ValueError("varlen batches carry no prior context")
            if sum(self.seq_lens) != self.seq_len:
                raise ValueError(
                    f"seq_lens {self.seq_lens} must sum to seq_len {self.seq_len}"
                )

    def __hash__(self) -> int:
        """The generated field-tuple hash, computed once and pinned.

        Serving memo keys hash the spec at every iteration boundary;
        the instance is frozen, so caching is observationally identical
        to the dataclass-generated ``__hash__`` (same tuple, same value).
        """
        cached = self.__dict__.get("_spec_hash")
        if cached is None:
            cached = hash(
                (
                    self.family,
                    self.batch,
                    self.seq_len,
                    self.hidden,
                    self.blocks,
                    self.heads,
                    self.kv_heads,
                    self.ffn_mult,
                    self.phase,
                    self.context_len,
                    self.experts,
                    self.top_k,
                    self.capacity_factor,
                    self.shared_experts,
                    self.window,
                    self.seq_lens,
                )
            )
            object.__setattr__(self, "_spec_hash", cached)
        return cached

    def __setstate__(self, state: dict) -> None:
        # Unpickle without the pin: string hashes differ between processes
        # (``PYTHONHASHSEED``), so a pin written by another process would
        # make equal specs hash apart and persisted memo keys never match.
        self.__dict__.update(state)
        self.__dict__.pop("_spec_hash", None)

    @property
    def head_dim(self) -> int:
        return self.hidden // self.heads

    @property
    def ffn_hidden(self) -> int:
        return self.ffn_mult * self.hidden

    @property
    def effective_kv_heads(self) -> int:
        return self.kv_heads or self.heads

    @property
    def qkv_features(self) -> int:
        """Output width of the fused QKV projection (GQA shrinks K/V)."""
        return (self.heads + 2 * self.effective_kv_heads) * self.head_dim

    def to_dict(self) -> Dict[str, object]:
        # The mask fields are emitted only when set, so an unmasked spec
        # encodes as it did before they existed: emitting them always would
        # add two keys to every spec in every serving, fleet and model
        # encoding, goldens included.
        encoded = asdict(self)
        if not self.window:
            del encoded["window"]
        if not self.seq_lens:
            del encoded["seq_lens"]
        else:
            encoded["seq_lens"] = list(self.seq_lens)
        return encoded


def _transformer_block(
    graph: LayerGraph,
    spec: ModelSpec,
    index: int,
    previous: str,
    phase: str,
    causal: bool,
    kv_seq: int,
    moe: bool = False,
) -> str:
    """Append one pre-norm transformer block; returns the output layer name.

    ``moe=True`` replaces the dense FFN sublayer with an expert-parallel
    :class:`~repro.workloads.graph.MoeFfnLayer` (or
    :class:`~repro.workloads.graph.MoeBlock` when ``spec.shared_experts``
    asks for always-on dense experts).
    """
    prefix = f"block{index}"
    deps = (previous,) if previous else ()

    graph.add(NormLayer(name=f"{prefix}.ln1", deps=deps, phase=phase))
    # The fused QKV projection keeps its full width; attention then operates
    # on the query slice (heads x head_dim), which is what reaches the output
    # projection -- the K/V slices feed the score GEMMs inside the attention
    # node itself.
    graph.add(
        LinearLayer(
            name=f"{prefix}.qkv",
            deps=(f"{prefix}.ln1",),
            phase=phase,
            in_features=spec.hidden,
            out_features=spec.qkv_features,
        )
    )
    graph.add(
        ElementwiseLayer(
            name=f"{prefix}.qkv_split",
            deps=(f"{prefix}.qkv",),
            phase=phase,
            flops_per_element=0.0,
            operator="slice",
        )
    )
    graph.add(
        _AttentionOnQuerySlice(
            name=f"{prefix}.attn",
            deps=(f"{prefix}.qkv_split",),
            phase=phase,
            heads=spec.heads,
            head_dim=spec.head_dim,
            kv_heads=spec.kv_heads,
            kv_seq=kv_seq,
            causal=causal,
            window=spec.window if causal else 0,
            seq_lens=spec.seq_lens if causal else (),
            query_features=spec.qkv_features,
        )
    )
    graph.add(
        LinearLayer(
            name=f"{prefix}.proj",
            deps=(f"{prefix}.attn",),
            phase=phase,
            in_features=spec.hidden,
            out_features=spec.hidden,
        )
    )
    residual_deps = (f"{prefix}.proj", previous) if previous else (f"{prefix}.proj",)
    graph.add(
        ElementwiseLayer(
            name=f"{prefix}.residual1",
            deps=residual_deps,
            phase=phase,
            flops_per_element=RESIDUAL_FLOPS,
        )
    )

    graph.add(NormLayer(name=f"{prefix}.ln2", deps=(f"{prefix}.residual1",), phase=phase))
    if moe:
        moe_kwargs = dict(
            name=f"{prefix}.moe",
            deps=(f"{prefix}.ln2",),
            phase=phase,
            in_features=spec.hidden,
            expert_hidden=spec.ffn_hidden,
            experts=spec.experts,
            top_k=spec.top_k,
            capacity_factor=spec.capacity_factor,
            activation_flops=GELU_FLOPS,
        )
        if spec.shared_experts:
            graph.add(MoeBlock(shared_experts=spec.shared_experts, **moe_kwargs))
        else:
            graph.add(MoeFfnLayer(**moe_kwargs))
        graph.add(
            ElementwiseLayer(
                name=f"{prefix}.residual2",
                deps=(f"{prefix}.moe", f"{prefix}.residual1"),
                phase=phase,
                flops_per_element=RESIDUAL_FLOPS,
            )
        )
        return f"{prefix}.residual2"
    graph.add(
        LinearLayer(
            name=f"{prefix}.ffn_up",
            deps=(f"{prefix}.ln2",),
            phase=phase,
            in_features=spec.hidden,
            out_features=spec.ffn_hidden,
        )
    )
    graph.add(
        ElementwiseLayer(
            name=f"{prefix}.gelu",
            deps=(f"{prefix}.ffn_up",),
            phase=phase,
            flops_per_element=GELU_FLOPS,
            operator="gelu",
        )
    )
    graph.add(
        LinearLayer(
            name=f"{prefix}.ffn_down",
            deps=(f"{prefix}.gelu",),
            phase=phase,
            in_features=spec.ffn_hidden,
            out_features=spec.hidden,
        )
    )
    graph.add(
        ElementwiseLayer(
            name=f"{prefix}.residual2",
            deps=(f"{prefix}.ffn_down", f"{prefix}.residual1"),
            phase=phase,
            flops_per_element=RESIDUAL_FLOPS,
        )
    )
    return f"{prefix}.residual2"


@dataclass(frozen=True)
class _AttentionOnQuerySlice(AttentionLayer):
    """Attention fed by a fused-QKV activation: validates the fused width,
    emits the query-width output that the rest of the block consumes."""

    query_features: int = 0

    def infer_shape(self, inputs):  # type: ignore[override]
        shape = inputs[0]
        if self.query_features and shape.features != self.query_features:
            raise ValueError(
                f"attention layer {self.name!r} expects the fused QKV width "
                f"{self.query_features}, got {shape.features}"
            )
        self.validate_ragged(shape)
        return shape.with_features(self.model_dim)


def _decoder_shape(spec: ModelSpec) -> Tuple[TensorShape, int]:
    """Activation shape and attention KV length for a GPT/MoE decoder spec.

    Decode: single-token queries over the ``context_len`` KV cache.
    Prefill: full-sequence causal attention; ``context_len`` (if set) adds
    prior KV context (chunked prefill), and ``seq_lens`` packs a ragged
    batch varlen (batch 1, sequences concatenated).
    """
    if spec.phase == "decode":
        kv_seq = spec.context_len or spec.seq_len
        return TensorShape(batch=spec.batch, seq=1, features=spec.hidden), kv_seq
    kv_seq = spec.context_len or 0
    return (
        TensorShape(batch=spec.batch, seq=spec.seq_len, features=spec.hidden),
        kv_seq,
    )


def gpt_decoder(spec: ModelSpec) -> LayerGraph:
    """GPT-style stack of pre-norm decoder blocks.

    ``spec.phase == "prefill"`` builds causal full-sequence attention --
    over prior KV context when ``context_len`` is set (chunked prefill),
    sliding-window when ``window`` is set, varlen-packed when ``seq_lens``
    describes a ragged batch; ``spec.phase == "decode"`` builds single-token
    queries (seq 1) attending over ``context_len`` cached KV entries -- the
    kernel mix that dominates serving, where every GEMM degenerates to a
    skinny matrix-vector shape.
    """
    shape, kv_seq = _decoder_shape(spec)
    graph = LayerGraph(f"gpt-{spec.phase}", shape)
    previous = ""
    for index in range(spec.blocks):
        previous = _transformer_block(
            graph,
            spec,
            index,
            previous,
            phase=spec.phase,
            # Decode is causal attention too: the single query's mask row is
            # trivially full, but a sliding window still prunes old keys.
            causal=True,
            kv_seq=kv_seq,
        )
    graph.add(NormLayer(name="final_ln", deps=(previous,), phase=spec.phase))
    return graph


def moe_decoder(spec: ModelSpec) -> LayerGraph:
    """Mixtral-style decoder: GPT attention sublayers + expert-parallel FFNs.

    Every block's dense FFN is replaced by a routed mixture of
    ``spec.experts`` experts (``spec.top_k`` active per token,
    ``spec.capacity_factor`` padding); ``spec.shared_experts`` adds
    DeepSeek-style always-on dense experts.  Decode-phase specs want
    ``batch * top_k >= experts`` so every expert is active and the emitted
    kernel graph is as wide as the expert count.
    """
    shape, kv_seq = _decoder_shape(spec)
    graph = LayerGraph(f"moe-{spec.phase}", shape)
    previous = ""
    for index in range(spec.blocks):
        previous = _transformer_block(
            graph,
            spec,
            index,
            previous,
            phase=spec.phase,
            causal=True,  # decode included -- see gpt_decoder
            kv_seq=kv_seq,
            moe=True,
        )
    graph.add(NormLayer(name="final_ln", deps=(previous,), phase=spec.phase))
    return graph


def bert_encoder(spec: ModelSpec) -> LayerGraph:
    """BERT-style bidirectional encoder: full-sequence attention, no mask."""
    shape = TensorShape(batch=spec.batch, seq=spec.seq_len, features=spec.hidden)
    graph = LayerGraph("bert-encoder", shape)
    previous = ""
    for index in range(spec.blocks):
        previous = _transformer_block(
            graph, spec, index, previous, phase="encode", causal=False, kv_seq=0
        )
    graph.add(NormLayer(name="final_ln", deps=(previous,), phase="encode"))
    return graph


def gemm_chain(spec: ModelSpec) -> LayerGraph:
    """MLP / im2col-CNN-style chain: alternating projections and activations.

    Widths alternate hidden <-> ffn_hidden so both fat and skinny GEMMs
    appear, which is what distinguishes the designs' scheduling behaviour.
    """
    shape = TensorShape(batch=spec.batch, seq=spec.seq_len, features=spec.hidden)
    graph = LayerGraph("gemm-chain", shape)
    previous = ""
    width = spec.hidden
    for index in range(spec.blocks):
        next_width = spec.ffn_hidden if index % 2 == 0 else spec.hidden
        deps = (previous,) if previous else ()
        graph.add(
            LinearLayer(
                name=f"fc{index}",
                deps=deps,
                phase="forward",
                in_features=width,
                out_features=next_width,
            )
        )
        graph.add(
            ElementwiseLayer(
                name=f"relu{index}",
                deps=(f"fc{index}",),
                phase="forward",
                flops_per_element=1.0,
                operator="relu",
            )
        )
        previous = f"relu{index}"
        width = next_width
    return graph


#: Zoo entries: name -> (spec, builder).  Sizes are kept modest so a full
#: model run completes in seconds while still spanning dozens of kernels.
_BUILDERS: Dict[str, Callable[[ModelSpec], LayerGraph]] = {
    "gpt": gpt_decoder,
    "moe": moe_decoder,
    "bert": bert_encoder,
    "mlp": gemm_chain,
}

MODEL_ZOO: Dict[str, ModelSpec] = {
    "gpt-prefill": ModelSpec(family="gpt", phase="prefill", seq_len=256, hidden=512,
                             blocks=2, heads=8),
    "gpt-decode": ModelSpec(family="gpt", phase="decode", seq_len=256, hidden=512,
                            blocks=2, heads=8, context_len=1024),
    "gpt-gqa-prefill": ModelSpec(family="gpt", phase="prefill", seq_len=256, hidden=512,
                                 blocks=2, heads=8, kv_heads=2),
    # Masked-attention variants (exact per-tile accounting, no 0.5 scaling):
    # chunked prefill over prior KV context, sliding-window attention, and a
    # ragged batch packed varlen (no bucket padding waste).
    "gpt-prefill-history": ModelSpec(family="gpt", phase="prefill", seq_len=128,
                                     hidden=512, blocks=2, heads=8, context_len=384),
    "gpt-prefill-sw": ModelSpec(family="gpt", phase="prefill", seq_len=256, hidden=512,
                                blocks=2, heads=8, window=64),
    "gpt-prefill-varlen": ModelSpec(family="gpt", phase="prefill", seq_len=320,
                                    hidden=512, blocks=2, heads=8,
                                    seq_lens=(96, 160, 64)),
    "bert-base-ish": ModelSpec(family="bert", phase="encode", seq_len=128, hidden=768,
                               blocks=2, heads=12),
    "mlp-chain": ModelSpec(family="mlp", phase="forward", seq_len=64, hidden=1024,
                           blocks=4, heads=8),
    # Mixtral-style expert-parallel variants.  Decode batches are sized so
    # batch * top_k >= experts: every expert is active and the lowered graph
    # is as wide as the expert count (the dual-unit overlap showcase).
    "moe-prefill": ModelSpec(family="moe", phase="prefill", seq_len=256, hidden=512,
                             blocks=2, heads=8, experts=8, top_k=2),
    "moe-decode": ModelSpec(family="moe", phase="decode", batch=4, seq_len=256,
                            hidden=512, blocks=2, heads=8, context_len=1024,
                            experts=8, top_k=2),
    "moe-decode-16x2": ModelSpec(family="moe", phase="decode", batch=8, seq_len=256,
                                 hidden=512, blocks=2, heads=8, context_len=1024,
                                 experts=16, top_k=2),
    "moe-decode-top1": ModelSpec(family="moe", phase="decode", batch=8, seq_len=256,
                                 hidden=512, blocks=2, heads=8, context_len=1024,
                                 experts=8, top_k=1),
    "moe-prefill-cap15": ModelSpec(family="moe", phase="prefill", seq_len=256,
                                   hidden=512, blocks=2, heads=8, experts=8,
                                   top_k=2, capacity_factor=1.5),
    "moe-shared-decode": ModelSpec(family="moe", phase="decode", batch=4, seq_len=256,
                                   hidden=512, blocks=2, heads=8, context_len=1024,
                                   experts=8, top_k=2, shared_experts=1),
}


def model_names() -> List[str]:
    return sorted(MODEL_ZOO)


def resolve_spec(name: str) -> ModelSpec:
    """Look up a zoo entry, raising with the valid names on a miss."""
    try:
        return MODEL_ZOO[name]
    except KeyError:
        valid = ", ".join(model_names())
        raise KeyError(f"unknown model {name!r}; choose one of: {valid}") from None


def build_model(spec_or_name) -> LayerGraph:
    """Build the layer graph for a zoo name or an explicit :class:`ModelSpec`."""
    spec = resolve_spec(spec_or_name) if isinstance(spec_or_name, str) else spec_or_name
    try:
        builder = _BUILDERS[spec.family]
    except KeyError:
        valid = ", ".join(sorted(_BUILDERS))
        raise ValueError(f"unknown model family {spec.family!r}; one of: {valid}") from None
    return builder(spec)


def scaled_spec(base: ModelSpec, **overrides) -> ModelSpec:
    """A copy of ``base`` with hyperparameters overridden (sweep helper)."""
    return replace(base, **overrides)


# --------------------------------------------------------------------------- #
# Serving-trace zoo: request streams for the continuous-batching scheduler
# --------------------------------------------------------------------------- #

#: Per-request network presets.  Requests are single sequences (batch 1) and
#: deliberately small -- a serving run executes one merged schedule per decode
#: iteration, so the interesting structure is the request mix, not the size.
REQUEST_MODELS: Dict[str, ModelSpec] = {
    "gpt-request": ModelSpec(family="gpt", phase="decode", batch=1, seq_len=64,
                             hidden=256, blocks=1, heads=4),
    "gqa-request": ModelSpec(family="gpt", phase="decode", batch=1, seq_len=64,
                             hidden=256, blocks=1, heads=4, kv_heads=1),
    "moe-request": ModelSpec(family="moe", phase="decode", batch=1, seq_len=64,
                             hidden=256, blocks=1, heads=4, experts=4, top_k=2),
}


def _cycle(values: Sequence, index: int):
    return values[index % len(values)]


def poisson_trace(
    name: str,
    models: Sequence[ModelSpec],
    requests: int = 8,
    mean_interarrival: float = 20_000.0,
    prompt_lens: Sequence[int] = (64, 128, 256),
    decode_steps: Sequence[int] = (3, 5, 8),
    seed: int = 20250730,
    context_bucket: int = 64,
) -> ServingTrace:
    """Poisson arrivals: exponential interarrival gaps from a seeded RNG.

    Prompt lengths and decode budgets rotate deterministically through the
    given menus so the trace content is a pure function of its arguments --
    sweeps compare traces by content, so builders must be reproducible.
    """
    rng = random.Random(seed)
    arrival = 0
    specs = []
    for index in range(requests):
        arrival += int(rng.expovariate(1.0 / mean_interarrival))
        specs.append(
            RequestSpec(
                request_id=f"r{index}",
                model=_cycle(models, index),
                arrival_cycle=arrival,
                prompt_len=_cycle(prompt_lens, index),
                decode_steps=_cycle(decode_steps, index),
            )
        )
    return ServingTrace(name=name, requests=tuple(specs), context_bucket=context_bucket)


def bursty_trace(
    name: str,
    models: Sequence[ModelSpec],
    bursts: int = 3,
    burst_size: int = 3,
    burst_gap: int = 120_000,
    prompt_lens: Sequence[int] = (64, 192),
    decode_steps: Sequence[int] = (4, 6),
    context_bucket: int = 64,
) -> ServingTrace:
    """Bursty arrivals: ``bursts`` groups of simultaneous requests, far apart.

    Each burst lands at once (the co-residency stress case), then the system
    drains before the next burst -- the trace family that exposes both the
    deep-batch and the near-empty regimes in one run.
    """
    specs = []
    for burst in range(bursts):
        for slot in range(burst_size):
            index = burst * burst_size + slot
            specs.append(
                RequestSpec(
                    request_id=f"b{burst}.{slot}",
                    model=_cycle(models, index),
                    arrival_cycle=burst * burst_gap,
                    prompt_len=_cycle(prompt_lens, index),
                    decode_steps=_cycle(decode_steps, index),
                )
            )
    return ServingTrace(name=name, requests=tuple(specs), context_bucket=context_bucket)


def uniform_trace(
    name: str,
    models: Sequence[ModelSpec],
    requests: int = 6,
    interarrival: int = 15_000,
    prompt_len: int = 128,
    decode_steps: int = 4,
    context_bucket: int = 64,
) -> ServingTrace:
    """Uniform arrivals: a fixed gap between requests (closed-loop clients)."""
    specs = tuple(
        RequestSpec(
            request_id=f"u{index}",
            model=_cycle(models, index),
            arrival_cycle=index * interarrival,
            prompt_len=prompt_len,
            decode_steps=decode_steps,
        )
        for index in range(requests)
    )
    return ServingTrace(name=name, requests=specs, context_bucket=context_bucket)


def poisson_stream_trace(
    name: str,
    requests: int = 1_000_000,
    mean_interarrival: float = 60_000_000.0,
    model: Optional[ModelSpec] = None,
    prompt_len: int = 105,
    decode_steps: int = 24,
    seed: int = 20250807,
    context_bucket: int = 64,
) -> ServingTrace:
    """A million-request-scale poisson trace, built in bulk.

    The epoch-compression stress shape: uniform request specs under a
    stationary poisson arrival process, constructed through the bulk
    builders (:func:`~repro.workloads.graph.build_request_stream`) so trace
    construction itself stays O(seconds) at a million requests.  The
    default prompt/decode pair (105 + 24 steps under a 64-wide bucket)
    keeps every decode step of a request inside one KV bucket, so a solo
    request's whole service is a single invariant composition -- the shape
    the episode templates compress best.  Content is a pure function of the
    arguments (seeded numpy RNG), as sweeps that compare traces by content
    require.
    """
    rng = np.random.default_rng(seed)
    gaps = rng.exponential(mean_interarrival, requests).astype(np.int64)
    gaps[0] = 0
    arrivals = np.cumsum(gaps)
    stream = build_request_stream(
        model if model is not None else REQUEST_MODELS["gpt-request"],
        arrivals,
        prompt_len=prompt_len,
        decode_steps=decode_steps,
        id_prefix="p",
    )
    trace = build_stream_trace(name, stream, context_bucket=context_bucket)
    # Pre-stash the episode-walk arrays (arrivals, inter-arrival gaps,
    # shape ids -- uniform stream, so all zero): the scheduler would
    # otherwise re-derive them with an O(n) python pass per run.
    trace.__dict__["_stream_arrays"] = (
        arrivals,
        gaps[1:],
        np.zeros(requests, dtype=np.int64),
    )
    return trace


def slo_trace(
    name: str,
    base: Union[str, ServingTrace],
    classes: Sequence = ("interactive", "standard", "batch"),
) -> ServingTrace:
    """A copy of ``base`` (zoo name or explicit) with SLO classes round-robin.

    ``classes`` accepts :class:`~repro.workloads.control.SloClass` instances
    or built-in class names (:data:`~repro.workloads.control.SLO_CLASSES`).
    Round-robin over the request tuple keeps the assignment a pure function
    of the trace content, so comparing traces by content still holds.
    """
    if isinstance(base, str):
        base = resolve_trace(base)
    resolved: List[SloClass] = [resolve_slo(entry) for entry in classes]
    specs = tuple(
        replace(request, slo=_cycle(resolved, index))
        for index, request in enumerate(base.requests)
    )
    return replace(base, name=name, requests=specs)


def _mixed_models() -> Tuple[ModelSpec, ...]:
    return (
        REQUEST_MODELS["gpt-request"],
        REQUEST_MODELS["moe-request"],
        REQUEST_MODELS["gqa-request"],
    )


TRACE_ZOO: Dict[str, ServingTrace] = {
    # Poisson arrivals over a GPT/GQA/MoE decode mix: the headline scenario.
    "poisson-mixed": poisson_trace("poisson-mixed", _mixed_models()),
    # All requests at cycle 0: the offline / maximum-co-residency case the
    # serving benchmark uses to measure merged-vs-isolated makespan.  Ten
    # co-resident requests give the heterogeneous unit assignment enough
    # granularity to fill the small unit's work budget.
    "offline-mixed": bursty_trace(
        "offline-mixed", _mixed_models(), bursts=1, burst_size=10
    ),
    "bursty-gpt": bursty_trace(
        "bursty-gpt", (REQUEST_MODELS["gpt-request"], REQUEST_MODELS["gqa-request"])
    ),
    "uniform-moe": uniform_trace("uniform-moe", (REQUEST_MODELS["moe-request"],)),
}

# SLO-classed variants: the same arrival streams with interactive / standard /
# batch classes attached round-robin, for exercising the admission policies
# and the goodput metric.  Defined after the base entries so they reuse them.
TRACE_ZOO["bursty-slo"] = slo_trace("bursty-slo", TRACE_ZOO["bursty-gpt"])
TRACE_ZOO["poisson-slo"] = slo_trace("poisson-slo", TRACE_ZOO["poisson-mixed"])


def varlen_trace(name: str, base: Union[str, ServingTrace]) -> ServingTrace:
    """A copy of ``base`` served at exact per-request KV lengths.

    ``context_bucket=1`` disables KV bucket padding: every decode step
    attends over the request's true context length instead of the next
    64-wide bucket boundary -- the ragged-batch serving counterpart of the
    varlen prefill packing, now that masked attention work is counted
    exactly per length.
    """
    if isinstance(base, str):
        base = resolve_trace(base)
    return replace(base, name=name, context_bucket=1)


# Varlen variants: the same arrival streams without bucket padding, so the
# latency percentiles reflect exact ragged context lengths.
TRACE_ZOO["poisson-varlen"] = varlen_trace("poisson-varlen", TRACE_ZOO["poisson-mixed"])
TRACE_ZOO["bursty-varlen"] = varlen_trace("bursty-varlen", TRACE_ZOO["bursty-gpt"])


def trace_names() -> List[str]:
    return sorted(TRACE_ZOO)


def resolve_trace(name: str) -> ServingTrace:
    """Look up a trace-zoo entry, raising with the valid names on a miss."""
    try:
        return TRACE_ZOO[name]
    except KeyError:
        valid = ", ".join(trace_names())
        raise KeyError(f"unknown trace {name!r}; choose one of: {valid}") from None


#: Named fleet compositions for the replica router: each entry is the tuple
#: of design preset names the fleet's replicas run, in replica-index order.
#: Homogeneous fleets pin routing behavior; the mixed entries make
#: heterogeneity a design-space axis (a volta replica is slower, so
#: load-aware policies should visibly shift traffic off it).
FLEET_ZOO: Dict[str, Tuple[str, ...]] = {
    "duo-virgo": ("virgo", "virgo"),
    "trio-virgo": ("virgo", "virgo", "virgo"),
    "quad-virgo": ("virgo",) * 4,
    "mixed-pair": ("virgo", "volta"),
    "mixed-quad": ("virgo", "virgo", "hopper", "volta"),
}


def fleet_names() -> List[str]:
    return sorted(FLEET_ZOO)


def resolve_fleet(name: str) -> Tuple[str, ...]:
    """Look up a fleet-zoo entry, raising with the valid names on a miss."""
    try:
        return FLEET_ZOO[name]
    except KeyError:
        valid = ", ".join(fleet_names())
        raise KeyError(f"unknown fleet {name!r}; choose one of: {valid}") from None
