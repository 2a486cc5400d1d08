"""Tests for the runner and analysis layers (headline claims, tables, figures)."""

import pytest

from repro import DesignKind, run_all_gemm_designs, run_flash_attention, run_gemm
from repro.analysis.figures import (
    figure7_area_breakdown,
    figure8_power_energy,
    figure9_soc_power_breakdown,
    figure10_core_power_breakdown,
    figure11_matrix_unit_energy,
    figure12_flash_attention,
    gemm_power_reduction,
)
from repro.analysis.tables import (
    format_table,
    table1_scaling_trends,
    table2_hardware_configuration,
    table3_mac_utilization,
    table4_smem_footprint,
)


class TestRunner:
    @pytest.fixture(scope="class")
    def runs(self):
        return run_all_gemm_designs(512)

    def test_all_designs_run(self, runs):
        assert set(runs) == set(DesignKind)

    def test_power_and_energy_positive(self, runs):
        for run in runs.values():
            assert run.active_power_mw > 0
            assert run.active_energy_uj > 0

    def test_virgo_power_reduction_vs_ampere(self, runs):
        """Headline: Virgo reduces active power by ~67% vs the Ampere-style design."""
        virgo = runs[DesignKind.VIRGO]
        ampere = runs[DesignKind.AMPERE]
        reduction = 1.0 - virgo.active_power_mw / ampere.active_power_mw
        assert 0.45 <= reduction <= 0.80

    def test_virgo_power_reduction_vs_hopper(self, runs):
        """Headline: ~24% active power reduction vs the Hopper-style design."""
        virgo = runs[DesignKind.VIRGO]
        hopper = runs[DesignKind.HOPPER]
        reduction = 1.0 - virgo.active_power_mw / hopper.active_power_mw
        assert 0.10 <= reduction <= 0.40

    def test_virgo_energy_reduction_vs_ampere(self, runs):
        """Headline: ~80% energy reduction vs the Ampere-style design."""
        virgo = runs[DesignKind.VIRGO]
        ampere = runs[DesignKind.AMPERE]
        reduction = 1.0 - virgo.active_energy_uj / ampere.active_energy_uj
        assert 0.65 <= reduction <= 0.90

    def test_virgo_energy_reduction_vs_hopper(self, runs):
        """Headline: ~32% energy reduction vs the Hopper-style design."""
        virgo = runs[DesignKind.VIRGO]
        hopper = runs[DesignKind.HOPPER]
        reduction = 1.0 - virgo.active_energy_uj / hopper.active_energy_uj
        assert 0.15 <= reduction <= 0.50

    def test_breakdowns_available(self, runs):
        run = runs[DesignKind.VIRGO]
        assert run.soc_breakdown().total_fj > 0
        assert run.core_breakdown().total_fj > 0
        assert run.matrix_unit_breakdown().total_fj > 0

    def test_core_power_reduced_in_virgo(self, runs):
        """Figure 10: the core (issue/RF) power collapses in Virgo."""
        virgo_core = runs[DesignKind.VIRGO].core_breakdown().parts_pj["Core: Issue"]
        ampere_core = runs[DesignKind.AMPERE].core_breakdown().parts_pj["Core: Issue"]
        assert virgo_core < 0.1 * ampere_core

    def test_flash_attention_runner(self):
        virgo = run_flash_attention(DesignKind.VIRGO)
        ampere = run_flash_attention(DesignKind.AMPERE)
        assert virgo.active_energy_uj < ampere.active_energy_uj
        assert virgo.mac_utilization_percent > ampere.mac_utilization_percent

    def test_run_gemm_accepts_design_config(self, virgo_design):
        result = run_gemm(virgo_design, 256)
        assert result.design_name == "Virgo"


class TestTables:
    def test_table1(self):
        table = table1_scaling_trends()
        assert set(table) == {"V100", "A100", "H100"}
        assert table["H100"]["tensor_fp16_tflops_rel"] == pytest.approx(7.9)
        for row in table.values():
            assert 5.0 <= row["occupancy_percent"] <= 25.0

    def test_table2(self):
        table = table2_hardware_configuration()
        assert table["Virgo"]["matrix_units"] == 1
        assert table["Volta-style"]["macs_per_cluster"] == 256
        assert table["Hopper-style"]["cores_per_cluster"] == 4

    def test_table3(self):
        table = table3_mac_utilization(sizes=(256,))
        assert table["Virgo"][256] > table["Volta-style"][256]
        assert len(table) == 4

    def test_table4(self):
        table = table4_smem_footprint()
        assert table["Disaggregated"]["normalized"] == pytest.approx(1.0)
        assert table["Tightly-coupled"]["mib"] > table["Operand-decoupled"]["mib"]

    def test_format_table(self):
        text = format_table(["a", "b"], [[1, 2], [3, 4]])
        assert "a" in text and "3" in text
        assert len(text.splitlines()) == 4


class TestFigures:
    def test_figure7(self):
        areas = figure7_area_breakdown()
        assert set(areas) == {"Volta-style", "Hopper-style", "Virgo"}
        assert areas["Virgo"]["Accum Mem"] > 0

    def test_figure8(self):
        data = figure8_power_energy(sizes=(512,))
        assert data[512]["Virgo"]["active_power_mw"] < data[512]["Ampere-style"]["active_power_mw"]

    def test_figure9(self):
        breakdown = figure9_soc_power_breakdown(size=256)
        assert breakdown["Volta-style"]["Vortex Core"] > breakdown["Virgo"]["Vortex Core"]

    def test_figure10(self):
        breakdown = figure10_core_power_breakdown(size=256)
        assert breakdown["Ampere-style"]["Core: Issue"] > breakdown["Virgo"]["Core: Issue"]

    def test_figure11(self):
        breakdown = figure11_matrix_unit_energy(size=256)
        virgo = breakdown["Virgo"]
        ampere = breakdown["Ampere-style"]
        # PE energy is similar across designs (within ~35%), per Section 6.1.2.
        assert virgo["PEs"] == pytest.approx(ampere["PEs"], rel=0.35)

    def test_figure12(self):
        data = figure12_flash_attention()
        assert (
            data["Virgo"]["mac_utilization_percent"]
            > data["Ampere-style"]["mac_utilization_percent"]
        )
        assert data["Virgo"]["active_energy_uj"] < data["Ampere-style"]["active_energy_uj"]

    def test_power_reduction_summary(self):
        reductions = gemm_power_reduction(size=512)
        assert reductions["power_reduction_vs_ampere_percent"] > 45
        assert reductions["energy_reduction_vs_ampere_percent"] > 65
