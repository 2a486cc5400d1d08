"""Tests for the model-workloads subsystem: IR, zoo, lowering, execution."""

import json

import pytest

from differential import execute_schedule
from repro.config.presets import DesignKind, make_design
from repro.config.soc import DataType
from repro.runner import run_flash_attention, run_gemm, to_json
from repro.workloads import (
    AttentionLayer,
    ElementwiseLayer,
    LayerGraph,
    LinearLayer,
    ModelSpec,
    NormLayer,
    TensorShape,
    build_model,
    lower_graph,
    model_names,
    resolve_spec,
    run_model,
    scaled_spec,
)
from repro.workloads.graph import (
    LayerKind,
    MoeBlock,
    MoeFfnLayer,
    RequestSpec,
    ServingTrace,
    build_request_stream,
    build_stream_trace,
)
from repro.workloads.models import MODEL_ZOO, REQUEST_MODELS, resolve_trace, varlen_trace
from repro.workloads.lowering import (
    MATRIX_RESOURCE,
    SIMT_RESOURCE,
    SMALL_MATRIX_RESOURCE,
)


class TestLayerGraphIR:
    def test_shape_inference_through_linear_chain(self):
        graph = LayerGraph("chain", TensorShape(batch=2, seq=8, features=16))
        graph.add(LinearLayer(name="fc1", in_features=16, out_features=32))
        graph.add(LinearLayer(name="fc2", deps=("fc1",), in_features=32, out_features=4))
        assert graph.output_shape("fc1") == TensorShape(2, 8, 32)
        assert graph.output_shape("fc2") == TensorShape(2, 8, 4)

    def test_linear_feature_mismatch_rejected(self):
        graph = LayerGraph("bad", TensorShape(batch=1, seq=4, features=16))
        with pytest.raises(ValueError, match="expects 8 input features"):
            graph.add(LinearLayer(name="fc", in_features=8, out_features=8))

    def test_dependency_must_exist(self):
        graph = LayerGraph("bad", TensorShape(batch=1, seq=4, features=8))
        with pytest.raises(ValueError, match="unknown layer"):
            graph.add(LinearLayer(name="fc", deps=("ghost",), in_features=8, out_features=8))

    def test_duplicate_layer_rejected(self):
        graph = LayerGraph("dup", TensorShape(batch=1, seq=4, features=8))
        graph.add(NormLayer(name="ln"))
        with pytest.raises(ValueError, match="duplicate"):
            graph.add(NormLayer(name="ln"))

    def test_attention_shape_and_head_validation(self):
        graph = LayerGraph("attn", TensorShape(batch=1, seq=64, features=128))
        layer = AttentionLayer(name="attn", heads=2, head_dim=64)
        graph.add(layer)
        assert graph.output_shape("attn").features == 128
        with pytest.raises(ValueError, match="divisible"):
            AttentionLayer(name="bad", heads=3, head_dim=32, kv_heads=2)

    def test_causal_score_macs_exact_triangle(self):
        # A full causal mask keeps (seq+1)/(2*seq) of the rectangle -- the
        # exact triangle count seq*(seq+1)/2 per head, not the old 0.5.
        shape = TensorShape(batch=1, seq=64, features=128)
        full = AttentionLayer(name="full", heads=2, head_dim=64, causal=False)
        masked = AttentionLayer(name="masked", heads=2, head_dim=64, causal=True)
        triangle = 64 * 65 // 2
        assert masked.score_macs(shape) == 2 * 2 * triangle * 64
        assert masked.score_macs(shape) * (2 * 64) == full.score_macs(shape) * 65

    def test_elementwise_mismatched_inputs_rejected(self):
        graph = LayerGraph("ew", TensorShape(batch=1, seq=4, features=8))
        graph.add(LinearLayer(name="fc", in_features=8, out_features=16))
        graph.add(NormLayer(name="ln"))
        with pytest.raises(ValueError, match="mismatched"):
            graph.add(ElementwiseLayer(name="add", deps=("fc", "ln")))

    def test_total_macs_counts_linear_and_attention(self):
        graph = LayerGraph("mix", TensorShape(batch=1, seq=64, features=128))
        graph.add(LinearLayer(name="fc", in_features=128, out_features=128))
        graph.add(AttentionLayer(name="attn", deps=("fc",), heads=2, head_dim=64))
        expected = 64 * 128 * 128 + 2 * 2 * 64 * 64 * 64
        assert graph.total_macs() == expected


    @pytest.mark.parametrize("build, message", [
        (lambda: TensorShape(batch=0, seq=4, features=8), "dimensions must be positive"),
        (lambda: LinearLayer(name="fc", in_features=0, out_features=8), "positive feature dims"),
        (lambda: AttentionLayer(name="attn", heads=0), "positive heads/head_dim"),
        (lambda: AttentionLayer(name="attn", causal=True, window=-1), "window must be >= 0"),
        (lambda: AttentionLayer(name="attn", causal=True, seq_lens=(4, 4), kv_seq=16),
         "no prior context"),
        (lambda: AttentionLayer(name="attn", causal=True, seq_lens=(4, 0)),
         "seq_lens must be positive"),
        (lambda: MoeBlock(name="moe", in_features=8, expert_hidden=16, shared_experts=-1),
         "shared_experts >= 0"),
    ])
    def test_invalid_layer_rejected(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()

    def test_attention_width_must_match_input(self):
        graph = LayerGraph("attn", TensorShape(batch=1, seq=16, features=96))
        with pytest.raises(ValueError, match="expects 128 features"):
            graph.add(AttentionLayer(name="attn", heads=2, head_dim=64))

    def test_varlen_attention_needs_packed_batch(self):
        layer = AttentionLayer(name="attn", heads=2, head_dim=64, causal=True, seq_lens=(8, 8))
        graph = LayerGraph("varlen", TensorShape(batch=2, seq=16, features=128))
        with pytest.raises(ValueError, match="into batch 1, got batch 2"):
            graph.add(layer)
        packed = LayerGraph("varlen", TensorShape(batch=1, seq=16, features=128))
        assert packed.add(layer) is layer

    def test_moe_input_width_must_match(self):
        graph = LayerGraph("moe", TensorShape(batch=1, seq=8, features=32))
        with pytest.raises(ValueError, match="expects 16 input features, got 32"):
            graph.add(MoeFfnLayer(name="moe", in_features=16, expert_hidden=64))

    def test_each_layer_reports_its_kind(self):
        layers = {
            LinearLayer(name="fc", in_features=8, out_features=8): LayerKind.LINEAR,
            AttentionLayer(name="attn", heads=2, head_dim=4): LayerKind.ATTENTION,
            MoeFfnLayer(name="moe", in_features=8, expert_hidden=16): LayerKind.MOE_FFN,
            ElementwiseLayer(name="add"): LayerKind.ELEMENTWISE,
            NormLayer(name="ln"): LayerKind.NORM,
        }
        for layer, kind in layers.items():
            assert layer.kind is kind

    def test_kv_heads_default_to_query_heads(self):
        assert AttentionLayer(name="mha", heads=4, head_dim=8).effective_kv_heads == 4
        assert AttentionLayer(name="mqa", heads=4, head_dim=8, kv_heads=1).effective_kv_heads == 1

    def test_graph_phases_membership_and_repr(self):
        graph = LayerGraph("phased", TensorShape(batch=2, seq=4, features=8))
        graph.add(NormLayer(name="ln", phase="encode"))
        graph.add(LinearLayer(name="fc", deps=("ln",), in_features=8, out_features=8))
        graph.add(NormLayer(name="ln2", deps=("fc",), phase="encode"))
        assert graph.phases() == ["encode", "default"]
        assert "fc" in graph and "ghost" not in graph
        assert [layer.name for layer in graph] == ["ln", "fc", "ln2"]
        assert repr(graph) == "LayerGraph('phased', 3 layers, input=2x4x8)"


class TestModelSpecValidation:
    @pytest.mark.parametrize("fields, message", [
        ({"batch": 0}, "must be positive"),
        ({"family": "moe", "experts": 4, "top_k": 5}, r"top_k \(5\) must be in 1..experts \(4\)"),
        ({"window": -1}, r"window \(-1\) must be >= 0"),
        ({"seq_len": 64, "context_len": 32}, "needs context_len"),
        ({"phase": "decode", "seq_len": 8, "seq_lens": (4, 4)}, "ragged prefill batch"),
        ({"batch": 2, "seq_len": 8, "seq_lens": (4, 4)}, "use batch=1"),
        ({"seq_len": 8, "context_len": 16, "seq_lens": (4, 4)}, "no prior context"),
        ({"seq_len": 8, "seq_lens": (4, 3)}, "must sum to seq_len 8"),
    ])
    def test_invalid_spec_rejected(self, fields, message):
        with pytest.raises(ValueError, match=message):
            ModelSpec(**fields)

    def test_unknown_family_lists_builders(self):
        with pytest.raises(ValueError, match="unknown model family 'rnn'; one of: bert"):
            build_model(ModelSpec(family="rnn"))

    def test_mask_fields_encoded_only_when_set(self):
        assert "seq_lens" not in ModelSpec().to_dict()
        assert "window" not in ModelSpec().to_dict()
        encoded = ModelSpec(seq_len=8, seq_lens=(5, 3), window=2).to_dict()
        assert encoded["seq_lens"] == [5, 3] and encoded["window"] == 2

    @pytest.mark.parametrize(
        "spec",
        [*MODEL_ZOO.values(), *REQUEST_MODELS.values()],
        ids=[*MODEL_ZOO, *REQUEST_MODELS],
    )
    def test_every_zoo_and_request_spec_rebuilds_from_its_encoding(self, spec):
        rebuilt = ModelSpec(**json.loads(json.dumps(spec.to_dict())))
        assert rebuilt == spec
        assert hash(rebuilt) == hash(spec)


class TestServingTraceValidation:
    def _request(self, request_id="r0", arrival=0):
        return RequestSpec(request_id=request_id, model=ModelSpec(phase="decode"),
                           arrival_cycle=arrival)

    def test_trace_needs_requests_and_bucket(self):
        with pytest.raises(ValueError, match="at least one request"):
            ServingTrace(name="empty", requests=())
        with pytest.raises(ValueError, match="positive context bucket"):
            ServingTrace(name="bad", requests=(self._request(),), context_bucket=0)

    @pytest.mark.parametrize("arrivals, message", [
        ([], "at least one arrival"),
        ([-1, 5], "arrival_cycle >= 0"),
        ([10, 5], "sorted by arrival_cycle"),
    ])
    def test_invalid_request_stream_rejected(self, arrivals, message):
        with pytest.raises(ValueError, match=message):
            build_request_stream(ModelSpec(phase="decode"), arrivals)

    def test_stream_trace_needs_requests_and_bucket(self):
        stream = build_request_stream(ModelSpec(phase="decode"), [0, 10])
        with pytest.raises(ValueError, match="positive context bucket"):
            build_stream_trace("bad", stream, context_bucket=0)
        with pytest.raises(ValueError, match="at least one request"):
            build_stream_trace("empty", ())
        assert build_stream_trace("ok", stream).requests == stream

    def test_varlen_trace_from_zoo_name(self):
        trace = varlen_trace("exact", "bursty-gpt")
        assert trace.context_bucket == 1 and trace.name == "exact"
        assert trace.requests == resolve_trace("bursty-gpt").requests


class TestModelZoo:
    def test_zoo_names_resolve_and_build(self):
        for name in model_names():
            graph = build_model(name)
            assert len(graph) > 0

    def test_unknown_name_lists_alternatives(self):
        with pytest.raises(KeyError, match="gpt-prefill"):
            resolve_spec("nope")

    def test_gpt_prefill_vs_decode_shapes(self):
        prefill = build_model("gpt-prefill")
        decode = build_model("gpt-decode")
        assert prefill.input_shape.seq == 256
        assert decode.input_shape.seq == 1  # single-query decode step
        attn = next(l for l in decode.layers() if l.name == "block0.attn")
        assert attn.kv_seq == 1024  # attends over the KV cache

    def test_gqa_shrinks_qkv_projection(self):
        mha = resolve_spec("gpt-prefill")
        gqa = resolve_spec("gpt-gqa-prefill")
        assert gqa.qkv_features < mha.qkv_features
        assert gqa.qkv_features == (8 + 2 * 2) * gqa.head_dim

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValueError, match="divisible"):
            ModelSpec(hidden=100, heads=3)

    def test_scaled_spec_override(self):
        spec = scaled_spec(resolve_spec("gpt-prefill"), blocks=5)
        assert spec.blocks == 5
        assert spec.hidden == resolve_spec("gpt-prefill").hidden


class TestLowering:
    def test_schedule_is_dependency_ordered(self):
        schedule = lower_graph(build_model("gpt-prefill"), DesignKind.VIRGO)
        seen = set()
        for invocation in schedule.invocations:
            for dep in invocation.deps:
                assert dep == "" or dep in seen
            seen.add(invocation.name)

    def test_fused_attention_on_virgo_and_ampere(self):
        for kind in (DesignKind.VIRGO, DesignKind.AMPERE):
            schedule = lower_graph(build_model("gpt-prefill"), kind)
            kinds = {inv.kind for inv in schedule.invocations}
            assert "flash" in kinds

    def test_attention_decomposes_on_volta_and_hopper(self):
        for kind in (DesignKind.VOLTA, DesignKind.HOPPER):
            schedule = lower_graph(build_model("gpt-prefill"), kind)
            kinds = {inv.kind for inv in schedule.invocations}
            assert "flash" not in kinds
            names = {inv.name for inv in schedule.invocations}
            assert "block0.attn.scores" in names
            assert "block0.attn.softmax" in names
            assert "block0.attn.context" in names

    def test_decode_attention_always_decomposes(self):
        schedule = lower_graph(build_model("gpt-decode"), DesignKind.VIRGO)
        kinds = {inv.kind for inv in schedule.invocations}
        assert "flash" not in kinds

    def test_causal_mask_reaches_fused_workload(self):
        # No work_scale discount anywhere: the mask rides the flash workload
        # itself and its iteration count is the exact visited-tile total.
        schedule = lower_graph(build_model("gpt-prefill"), DesignKind.VIRGO)
        flash = next(inv for inv in schedule.invocations if inv.kind == "flash")
        assert not hasattr(flash, "work_scale")
        assert flash.workload.causal
        spec = MODEL_ZOO["gpt-prefill"]
        triangle = spec.seq_len * (spec.seq_len + 1) // 2
        assert flash.workload.gemm_macs == (
            2 * spec.heads * triangle * spec.head_dim
        )
        assert flash.workload.iterations < (
            spec.heads * (spec.seq_len // 64) ** 2
        )

    def test_zero_cost_layers_lower_to_nothing(self):
        schedule = lower_graph(build_model("gpt-prefill"), DesignKind.VIRGO)
        names = {inv.name for inv in schedule.invocations}
        assert not any("qkv_split" in name for name in names)

    def test_a_zero_cost_join_passes_on_every_dependency(self):
        """``act`` waits for both GEMMs through the zero-flop ``view`` join:
        it used to wait for ``a`` alone and start at 28,144, under ``b``."""
        graph = LayerGraph("join", TensorShape(batch=1, seq=64, features=256))
        graph.add(LinearLayer(name="a", in_features=256, out_features=256))
        graph.add(LinearLayer(name="b", in_features=256, out_features=256))
        graph.add(ElementwiseLayer(name="view", deps=("a", "b"), flops_per_element=0.0))
        graph.add(ElementwiseLayer(name="act", deps=("view",)))
        schedule = lower_graph(graph, DesignKind.VIRGO)
        assert [inv.name for inv in schedule.invocations] == ["a.gemm", "b.gemm", "act.simt"]
        assert schedule.invocations[-1].deps == ("a.gemm", "b.gemm")
        layers = {layer.layer: layer for layer in run_model(graph, DesignKind.VIRGO).layers}
        assert (layers["a"].end, layers["b"].end, layers["act"].start) == (28_144, 56_288, 56_288)

    def test_heterogeneous_requires_disaggregated(self):
        with pytest.raises(ValueError, match="disaggregated"):
            lower_graph(build_model("gpt-decode"), DesignKind.AMPERE, heterogeneous=True)

    def test_heterogeneous_routes_small_gemms(self):
        schedule = lower_graph(build_model("gpt-decode"), DesignKind.VIRGO, heterogeneous=True)
        resources = {inv.resource for inv in schedule.invocations}
        assert SMALL_MATRIX_RESOURCE in resources
        assert schedule.small_design is not None
        small = schedule.small_design.matrix_unit
        full = schedule.design.matrix_unit
        assert small.macs_per_cycle < full.macs_per_cycle


class TestExecution:
    def test_model_run_reports_per_layer_metrics(self):
        result = run_model("gpt-prefill", DesignKind.VIRGO)
        assert result.total_cycles > 0
        assert result.layers  # one entry per costed layer
        for layer in result.layers:
            assert layer.cycles > 0
            assert layer.energy_uj > 0
            assert layer.end >= layer.start
        gemm_layers = [l for l in result.layers if "gemm" in l.kinds]
        assert all(l.mac_utilization_percent > 0 for l in gemm_layers)

    def test_phase_aggregation(self):
        result = run_model("gpt-prefill", DesignKind.VIRGO)
        assert set(result.phase_cycles) == {"prefill"}
        assert result.phase_cycles["prefill"] == sum(l.cycles for l in result.layers)

    def test_virgo_beats_baseline_on_prefill(self):
        virgo = run_model("gpt-prefill", DesignKind.VIRGO)
        ampere = run_model("gpt-prefill", DesignKind.AMPERE)
        assert virgo.total_cycles < ampere.total_cycles
        assert virgo.active_energy_uj < ampere.active_energy_uj

    def test_decode_utilization_collapses(self):
        prefill = run_model("gpt-prefill", DesignKind.VIRGO)
        decode = run_model("gpt-decode", DesignKind.VIRGO)
        assert decode.mac_utilization < prefill.mac_utilization / 2

    def test_all_designs_execute_all_models(self):
        spec = scaled_spec(resolve_spec("gpt-prefill"), blocks=1, seq_len=64, hidden=128)
        for kind in DesignKind:
            result = run_model(spec, kind)
            assert result.total_cycles > 0

    def test_schedule_overlap_never_exceeds_serial_sum(self):
        schedule = lower_graph(build_model("mlp-chain"), DesignKind.VIRGO)
        result = execute_schedule(schedule)
        serial = sum(layer.cycles for layer in result.layers)
        assert result.total_cycles <= serial

    def test_heterogeneous_execution_populates_small_resource(self):
        result = run_model("gpt-decode", DesignKind.VIRGO, heterogeneous=True)
        assert result.heterogeneous
        assert result.resource_busy.get(SMALL_MATRIX_RESOURCE, 0) > 0

    def test_model_result_to_dict_round_trips_json(self):
        result = run_model("mlp-chain", DesignKind.VIRGO)
        encoded = json.dumps(result.to_dict(), sort_keys=True)
        decoded = json.loads(encoded)
        assert decoded["total_cycles"] == result.total_cycles
        assert len(decoded["layers"]) == len(result.layers)

    def test_counters_feed_power_report(self):
        result = run_model("mlp-chain", DesignKind.VIRGO)
        assert result.active_power_mw > 0
        assert result.power.cycles == result.total_cycles


class TestRunnerSerializationHelpers:
    def test_gemm_run_result_to_dict(self):
        run = run_gemm(DesignKind.VIRGO, 256)
        encoded = run.to_dict()
        assert encoded["kind"] == "gemm"
        assert encoded["design"] == "Virgo"
        assert encoded["total_cycles"] == run.total_cycles
        json.dumps(encoded)

    def test_flash_run_result_to_dict(self):
        run = run_flash_attention(DesignKind.VIRGO)
        encoded = run.to_dict()
        assert encoded["kind"] == "flash_attention"
        assert encoded["seq_len"] == 1024
        json.dumps(encoded)

    def test_to_json_helper_is_canonical(self):
        run = run_gemm(DesignKind.VOLTA, 256)
        text = to_json(run)
        assert json.loads(text) == json.loads(to_json(run))
        assert json.loads(text)["design"] == "Volta-style"

    def test_model_resources_used(self):
        result = run_model("gpt-prefill", DesignKind.VIRGO)
        assert result.resource_busy[MATRIX_RESOURCE] > 0
        assert result.resource_busy[SIMT_RESOURCE] > 0
