"""Tests for the mixture-of-experts workloads: IR, lowering, dual-unit overlap."""

import json
import re

import pytest

from differential import execute_schedule
from repro.analysis.model_breakdown import format_overlap_report, model_overlap_report
from repro.config.presets import DesignKind
from repro.workloads import (
    MoeBlock,
    MoeFfnLayer,
    TensorShape,
    build_model,
    lower_graph,
    resolve_spec,
    run_model,
    scaled_spec,
    sweep_jobs,
)
from repro.workloads.graph import LayerGraph
from repro.workloads.lowering import (
    MATRIX_RESOURCE,
    SIMT_RESOURCE,
    SMALL_MATRIX_RESOURCE,
)
from repro.workloads.models import ModelSpec

#: Kernel names of one expert chain look like "block0.moe.e3.up".
EXPERT_TAG = re.compile(r"\.([es]\d+)\.")


def expert_tag(kernel_name: str) -> str:
    match = EXPERT_TAG.search(kernel_name)
    return match.group(1) if match else ""


class TestMoeIR:
    def layer(self, **overrides) -> MoeFfnLayer:
        params = dict(name="moe", in_features=512, expert_hidden=2048,
                      experts=8, top_k=2)
        params.update(overrides)
        return MoeFfnLayer(**params)

    def test_prefill_capacity_and_active_experts(self):
        shape = TensorShape(batch=1, seq=256, features=512)
        layer = self.layer()
        assert layer.active_experts(shape) == 8
        assert layer.expert_capacity(shape) == 256 * 2 // 8

    def test_decode_undershoots_expert_count(self):
        shape = TensorShape(batch=1, seq=1, features=512)
        layer = self.layer(top_k=2)
        assert layer.active_experts(shape) == 2  # only top_k assignments exist
        assert layer.expert_capacity(shape) == 1

    def test_capacity_factor_pads_capacity(self):
        shape = TensorShape(batch=1, seq=256, features=512)
        relaxed = self.layer(capacity_factor=1.5)
        assert relaxed.expert_capacity(shape) == 96  # ceil(256*2*1.5/8)

    def test_validation(self):
        with pytest.raises(ValueError, match="top_k"):
            self.layer(top_k=9)
        with pytest.raises(ValueError, match="capacity"):
            self.layer(capacity_factor=0.0)
        with pytest.raises(ValueError, match="feature"):
            self.layer(in_features=0)
        with pytest.raises(ValueError, match="positive expert count"):
            ModelSpec(family="moe", experts=0)

    def test_expert_macs_count_both_projections(self):
        shape = TensorShape(batch=1, seq=256, features=512)
        layer = self.layer()
        capacity = layer.expert_capacity(shape)
        expected = 8 * 2 * capacity * 512 * 2048
        assert layer.expert_macs(shape) == expected

    def test_shared_experts_add_full_token_macs(self):
        shape = TensorShape(batch=1, seq=256, features=512)
        routed = self.layer()
        block = MoeBlock(name="moe", in_features=512, expert_hidden=2048,
                         experts=8, top_k=2, shared_experts=1)
        assert block.expert_macs(shape) == (
            routed.expert_macs(shape) + 2 * 256 * 512 * 2048
        )

    def test_graph_total_macs_includes_moe(self):
        graph = LayerGraph("moe", TensorShape(batch=1, seq=64, features=512))
        layer = graph.add(self.layer())
        assert graph.total_macs() == layer.expert_macs(graph.input_shape)


class TestMoeLowering:
    def test_zoo_moe_entries_build_and_lower(self):
        for name in ("moe-prefill", "moe-decode", "moe-decode-16x2",
                     "moe-decode-top1", "moe-prefill-cap15", "moe-shared-decode"):
            schedule = lower_graph(build_model(name), DesignKind.VIRGO)
            assert any(".router" in inv.name for inv in schedule.invocations)

    def test_no_cross_expert_edges(self):
        schedule = lower_graph(build_model("moe-decode"), DesignKind.VIRGO)
        by_name = {inv.name: inv for inv in schedule.invocations}
        for inv in schedule.invocations:
            tag = expert_tag(inv.name)
            if not tag:
                continue
            for dep in inv.deps:
                dep_tag = expert_tag(dep)
                assert dep_tag in ("", tag), (
                    f"{inv.name} depends on another expert's kernel {dep}"
                )
                # Non-expert dependencies are the dispatch/router prologue.
                if not dep_tag:
                    assert by_name[dep].kind == "simt"

    def test_fanout_matches_active_expert_count(self):
        schedule = lower_graph(build_model("moe-decode"), DesignKind.VIRGO)
        ups = [inv for inv in schedule.invocations if inv.name.endswith(".up")]
        spec = resolve_spec("moe-decode")
        # batch 4 x top_k 2 assignments cover all 8 experts, twice (2 blocks).
        assert len(ups) == spec.blocks * spec.experts
        for inv in ups:
            assert inv.workload.m == 1  # capacity-bound decode GEMMs

    def test_router_and_combine_are_simt(self):
        schedule = lower_graph(build_model("moe-prefill"), DesignKind.VIRGO)
        router = next(inv for inv in schedule.invocations if inv.name.endswith(".router"))
        combine = next(inv for inv in schedule.invocations if inv.name.endswith(".combine"))
        assert router.resource == SIMT_RESOURCE and router.kind == "simt"
        assert combine.resource == SIMT_RESOURCE
        # The combine joins every expert chain of its layer.
        tags = {expert_tag(dep) for dep in combine.deps}
        assert len(tags) == resolve_spec("moe-prefill").experts

    def test_heterogeneous_spreads_experts_across_units(self):
        schedule = lower_graph(
            build_model("moe-decode"), DesignKind.VIRGO, heterogeneous=True
        )
        expert_resources = {
            inv.resource
            for inv in schedule.invocations
            if inv.kind == "gemm" and expert_tag(inv.name)
        }
        assert expert_resources == {MATRIX_RESOURCE, SMALL_MATRIX_RESOURCE}
        # Up and down projections of one expert stay on the same unit.
        by_chain = {}
        for inv in schedule.invocations:
            tag = expert_tag(inv.name)
            if tag and inv.kind == "gemm":
                by_chain.setdefault((inv.layer, tag), set()).add(inv.resource)
        assert all(len(resources) == 1 for resources in by_chain.values())

    def test_shared_experts_skip_the_router(self):
        schedule = lower_graph(build_model("moe-shared-decode"), DesignKind.VIRGO)
        shared_ups = [
            inv for inv in schedule.invocations
            if inv.name.endswith(".up") and expert_tag(inv.name).startswith("s")
        ]
        assert shared_ups
        for inv in shared_ups:
            assert all(".router" not in dep and ".dispatch" not in dep for dep in inv.deps)

    def test_moe_runs_on_every_design(self):
        spec = scaled_spec(resolve_spec("moe-decode"), blocks=1, context_len=256)
        for kind in DesignKind:
            assert run_model(spec, kind).total_cycles > 0


class TestMoeOverlap:
    def test_dual_unit_overlap_on_heterogeneous_design(self):
        """Acceptance: makespan strictly below the serialized sum of kernel
        times, with both matrix units measurably occupied."""
        result = run_model("moe-decode", DesignKind.VIRGO, heterogeneous=True)
        serialized = sum(layer.cycles for layer in result.layers)
        assert result.total_cycles < serialized
        assert result.resource_busy[MATRIX_RESOURCE] > 0
        assert result.resource_busy[SMALL_MATRIX_RESOURCE] > 0
        report = model_overlap_report(result)
        assert report["overlap_cycles_saved"] > 0
        assert report["overlap_speedup"] > 1.0
        occupancy = report["unit_occupancy_percent"]
        assert occupancy[MATRIX_RESOURCE] > 0
        assert occupancy[SMALL_MATRIX_RESOURCE] > 0
        assert report["moe_layers"], "expert fan-out must be surfaced"
        assert all(entry["experts"] == 8 for entry in report["moe_layers"])

    def test_overlap_without_second_matrix_unit(self):
        # Expert activations (SIMT) overlap the next expert's GEMMs even on
        # the single-unit configuration.
        result = run_model("moe-decode", DesignKind.VIRGO)
        assert result.total_cycles < sum(layer.cycles for layer in result.layers)

    def test_heterogeneous_beats_single_unit_on_moe_decode(self):
        single = run_model("moe-decode", DesignKind.VIRGO)
        dual = run_model("moe-decode", DesignKind.VIRGO, heterogeneous=True)
        assert dual.total_cycles < single.total_cycles

    def test_expert_gemms_share_timing_cache_entries(self):
        result = run_model("moe-decode-16x2", DesignKind.VIRGO)
        stats = result.timing_cache
        # 16 identical expert pairs per block: nearly everything hits.
        assert stats["hits"] > stats["misses"]

    def test_moe_result_to_dict_round_trips_json(self):
        result = run_model("moe-decode", DesignKind.VIRGO, heterogeneous=True)
        decoded = json.loads(json.dumps(result.to_dict(), sort_keys=True))
        assert decoded["total_cycles"] == result.total_cycles
        assert decoded["heterogeneous"] is True
        assert len(decoded["layers"]) == len(result.layers)
        moe_layers = [l for l in decoded["layers"] if l["layer"].endswith(".moe")]
        assert moe_layers and all("gemm" in l["kinds"] for l in moe_layers)

    def test_formatted_report_mentions_both_units(self):
        result = run_model("moe-decode", DesignKind.VIRGO, heterogeneous=True)
        text = format_overlap_report(result)
        assert "unit occupancy" in text
        assert MATRIX_RESOURCE in text and SMALL_MATRIX_RESOURCE in text
        assert "expert chains" in text

    def test_prefill_overlap_with_capacity_factor(self):
        base = execute_schedule(
            lower_graph(build_model("moe-prefill"), DesignKind.VIRGO)
        )
        padded = execute_schedule(
            lower_graph(build_model("moe-prefill-cap15"), DesignKind.VIRGO)
        )
        # Padding tokens to 1.5x capacity does strictly more work.
        assert padded.total_cycles > base.total_cycles


def moe_cells(shared=(0,)):
    """moe-decode at each (experts, top_k, capacity factor, shared experts) cell."""
    base = resolve_spec("moe-decode")
    return [
        scaled_spec(base, experts=count, top_k=top_k, capacity_factor=factor,
                    shared_experts=shared_count)
        for count in (4, 8)
        for top_k in (1, 2)
        for factor in (1.0, 1.5)
        for shared_count in shared
    ]


class TestMoeSweeps:
    def test_moe_sweep_crosses_all_knobs(self):
        jobs = sweep_jobs(moe_cells(), ["virgo"], heterogeneous=(False, True))
        assert len(jobs) == 2 * 2 * 2 * 2
        assert len({job.content for job in jobs}) == len(jobs)

    def test_moe_sweep_labels_distinguish_cells(self):
        jobs = sweep_jobs(moe_cells(shared=(0, 1)), ["virgo"], heterogeneous=(False, True))
        labels = [job.label for job in jobs]
        assert len(set(labels)) == len(labels)
        assert "moe-8x2-cap1.5-s1@virgo+hetero" in labels

    def test_moe_cli_breakdown(self, capsys):
        from repro.__main__ import main

        assert main([
            "model", "--name", "moe-decode", "--design", "virgo",
            "--hetero", "--moe-breakdown",
        ]) == 0
        out = capsys.readouterr().out
        assert "overlap: makespan" in out
        assert "unit occupancy" in out
        assert "matrix.small" in out
        makespan, serialized = re.search(
            r"makespan ([\d,]+) vs serialized ([\d,]+)", out
        ).groups()
        assert int(makespan.replace(",", "")) < int(serialized.replace(",", ""))
