"""Tests for the ablation analyses, multi-cluster scaling and the CLI."""

import json

import pytest

from repro.__main__ import build_parser, main
from repro.analysis.ablations import (
    accumulator_placement_ablation,
    async_interface_ablation,
    granularity_ablation,
    run_all_ablations,
    unified_unit_ablation,
)
from repro.config.presets import DesignKind, make_design, virgo
from repro.config.soc import DataType
from repro.energy.model import EnergyTable
from repro.kernels.gemm import GemmWorkload, VirgoGemmKernel, simulate_gemm
from repro.runner import run_gemm
from repro.sim.stats import Counters
from repro.workloads import model_names


class TestAblations:
    def test_granularity_monotonic(self):
        results = granularity_ablation(size=256)
        utils = [entry["mac_utilization_percent"] for entry in results]
        assert utils[0] >= utils[-1]
        instructions = [entry["retired_instructions"] for entry in results]
        assert instructions[-1] > instructions[0]

    def test_accumulator_placement_costs_energy(self):
        result = accumulator_placement_ablation(size=256)
        assert result["accumulator_in_rf_class_storage_uj"] > result["accumulator_in_sram_uj"]
        assert 0 < result["energy_increase_percent"] < 50

    def test_accumulator_placement_reprices_only_the_accumulator(self):
        # Moving the accumulator to RF-class storage (1200 / 1500 fJ per
        # word read / written) changes nothing but the accumulator's words.
        result = accumulator_placement_ablation(size=256)
        counters = VirgoGemmKernel(virgo()).simulate(GemmWorkload.square(256)).counters
        table = EnergyTable.for_design(virgo().style)

        def per_word(key):
            return table.energy_femtojoules(Counters({key: 1}))

        expected_fj = (
            counters.get("accum.read_words") * (1200 - per_word("accum.read_words"))
            + counters.get("accum.write_words") * (1500 - per_word("accum.write_words"))
        )
        increase_uj = (
            result["accumulator_in_rf_class_storage_uj"] - result["accumulator_in_sram_uj"]
        )
        assert expected_fj > 0
        assert increase_uj == pytest.approx(expected_fj / 1e9, rel=1e-9)

    def test_unified_unit_reduces_footprint(self):
        result = unified_unit_ablation()
        assert result["per_core_mib"] == pytest.approx(4.0, rel=0.05)
        assert result["unified_mib"] == pytest.approx(2.25, rel=0.05)
        assert result["footprint_increase_percent"] > 50

    def test_async_interface_wins(self):
        result = async_interface_ablation(size=256)
        assert (
            result["asynchronous_utilization_percent"]
            > result["synchronous_utilization_percent"]
        )

    def test_run_all_bundle(self):
        bundle = run_all_ablations()
        assert set(bundle) == {
            "granularity",
            "accumulator_placement",
            "unified_unit",
            "async_interface",
        }


class TestMultiCluster:
    def test_two_clusters_halve_runtime(self):
        from dataclasses import replace

        single = make_design(DesignKind.VIRGO)
        dual = replace(single, soc=replace(single.soc, clusters=2))
        one = simulate_gemm(single, 1024)
        two = simulate_gemm(dual, 1024)
        assert two.total_cycles < 0.6 * one.total_cycles
        # Utilization stays comparable: the ideal also doubles.
        assert abs(two.mac_utilization - one.mac_utilization) < 0.1

    def test_multi_cluster_energy_unchanged(self):
        """The same total work is done, so active energy stays ~constant."""
        from dataclasses import replace

        single = make_design(DesignKind.VIRGO)
        dual = replace(single, soc=replace(single.soc, clusters=2))
        one = run_gemm(single, 512)
        two = run_gemm(dual, 512)
        assert two.active_energy_uj == pytest.approx(one.active_energy_uj, rel=0.05)

    def test_multi_cluster_for_core_coupled_design(self):
        from dataclasses import replace

        single = make_design(DesignKind.HOPPER)
        quad = replace(single, soc=replace(single.soc, clusters=4))
        result = simulate_gemm(quad, 1024)
        assert result.mac_utilization > 0.5


class TestCli:
    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_gemm_command(self, capsys):
        assert main(["gemm", "--design", "virgo", "--size", "256"]) == 0
        output = capsys.readouterr().out
        assert "Virgo" in output and "MAC util" in output

    def test_gemm_all_designs(self, capsys):
        main(["gemm", "--all-designs", "--size", "256"])
        output = capsys.readouterr().out
        for name in ("Volta-style", "Ampere-style", "Hopper-style", "Virgo"):
            assert name in output

    def test_unknown_design_rejected(self):
        with pytest.raises(SystemExit):
            main(["gemm", "--design", "blackwell"])

    def test_table_command(self, capsys):
        main(["table", "--number", "4"])
        data = json.loads(capsys.readouterr().out)
        assert "Disaggregated" in data

    @pytest.mark.parametrize("number, key", [(1, "H100"), (2, "Virgo")])
    def test_static_table_commands(self, capsys, number, key):
        main(["table", "--number", str(number)])
        data = json.loads(capsys.readouterr().out)
        assert key in data

    def test_model_list_names_every_zoo_entry(self, capsys):
        main(["model", "--list"])
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[0] for line in lines] == model_names()
        moe = next(line for line in lines if " family=moe " in line)
        assert "experts=" in moe and "top_k=" in moe

    def test_invalid_table_rejected(self):
        with pytest.raises(SystemExit):
            main(["table", "--number", "9"])

    def test_hetero_command(self, capsys):
        main(["hetero"])
        data = json.loads(capsys.readouterr().out)
        assert "parallel_utilization_percent" in data

    def test_figure_command(self, capsys):
        main(["figure", "--number", "7"])
        data = json.loads(capsys.readouterr().out)
        assert "Virgo" in data

    def test_flash_command(self, capsys):
        main(["flash"])
        output = capsys.readouterr().out
        assert "FlashAttention-3" in output


class TestFp32Designs:
    @pytest.mark.parametrize("kind", list(DesignKind))
    def test_fp32_gemm_all_designs(self, kind):
        result = simulate_gemm(kind, 256, DataType.FP32)
        assert 0.1 < result.mac_utilization <= 1.0

    def test_fp32_virgo_macs(self):
        design = virgo(DataType.FP32)
        assert design.cluster.total_macs_per_cycle == 64
