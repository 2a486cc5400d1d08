"""Per-layer and per-phase breakdown reporting for model-level runs.

Consumes a :class:`repro.workloads.lowering.ModelRunResult` and produces the
table rows and summary dictionaries the CLI ``model`` subcommand prints --
the model-scale analogue of the per-kernel tables in
:mod:`repro.analysis.tables`.
"""

from __future__ import annotations

import re
from typing import Dict, List, Sequence, Tuple

from repro.obs import occupancy_percent
from repro.workloads.lowering import ModelRunResult

#: Kernel-name segment marking one routed (``e<j>``) or shared (``s<j>``)
#: expert chain emitted by the MoE lowering.
_EXPERT_TAG = re.compile(r"\.([es]\d+)\.")

LAYER_HEADERS = [
    "layer",
    "phase",
    "kinds",
    "cycles",
    "span",
    "MAC util %",
    "energy uJ",
]


def model_layer_rows(result: ModelRunResult) -> List[List[str]]:
    """One formatted row per layer: cycles, schedule span, utilization, energy."""
    rows: List[List[str]] = []
    for layer in result.layers:
        rows.append(
            [
                layer.layer,
                layer.phase,
                "+".join(layer.kinds),
                f"{layer.cycles:,}",
                f"{layer.start:,}..{layer.end:,}",
                f"{layer.mac_utilization_percent:.1f}" if layer.macs else "-",
                f"{layer.energy_uj:.2f}",
            ]
        )
    return rows


def model_phase_summary(result: ModelRunResult) -> Dict[str, Dict[str, float]]:
    """Per-phase totals: busy cycles, energy, and share of total energy."""
    total_energy = sum(result.phase_energy_fj.values()) or 1
    summary: Dict[str, Dict[str, float]] = {}
    for phase, cycles in result.phase_cycles.items():
        energy = result.phase_energy_fj.get(phase, 0)
        summary[phase] = {
            "busy_cycles": cycles,
            "energy_uj": energy / 1e9,
            "energy_share_percent": 100.0 * energy / total_energy,
        }
    return summary


def model_kind_cycles(result: ModelRunResult) -> Dict[str, int]:
    """Busy cycles grouped by kernel kind (gemm / flash / simt): each kind's
    kernel durations summed, kinds in first-seen order."""
    return dict(result.kind_cycles)


def _expert_width(kernels: Sequence[str]) -> int:
    """Distinct expert chains among a layer's kernel names (0 for non-MoE)."""
    return len({match.group(1) for name in kernels for match in _EXPERT_TAG.finditer(name)})


def model_overlap_report(result: ModelRunResult) -> Dict[str, object]:
    """Measured dual-unit overlap: makespan vs. the sum of kernel times.

    ``serialized_cycles`` is what the schedule would cost if every kernel ran
    back to back on one timeline; the gap to the real makespan is work the
    scheduler overlapped across the matrix / small-matrix / SIMT units.
    ``unit_occupancy_percent`` is each resource's busy share of the makespan,
    so a heterogeneous MoE run shows *both* matrix units substantially
    occupied at the same time -- the paper's dual-unit claim at model scale.
    """
    makespan = max(1, result.total_cycles)
    serialized = sum(layer.cycles for layer in result.layers)
    moe_layers = [
        {
            "layer": layer.layer,
            "experts": width,
            "kernels": len(layer.kernels),
            "busy_cycles": layer.cycles,
            "span_cycles": layer.end - layer.start,
        }
        for layer in result.layers
        if (width := _expert_width(layer.kernels)) > 0
    ]
    return {
        "makespan_cycles": result.total_cycles,
        "serialized_cycles": serialized,
        "overlap_cycles_saved": serialized - result.total_cycles,
        "overlap_speedup": serialized / makespan,
        "unit_occupancy_percent": occupancy_percent(
            result.resource_busy, result.total_cycles
        ),
        "moe_layers": moe_layers,
    }


def format_overlap_report(result: ModelRunResult) -> str:
    """Human-readable rendering of :func:`model_overlap_report` for the CLI."""
    report = model_overlap_report(result)
    occupancy = "  ".join(
        f"{resource} {percent:.1f}%"
        for resource, percent in report["unit_occupancy_percent"].items()
    )
    lines = [
        (
            f"overlap: makespan {report['makespan_cycles']:,} vs "
            f"serialized {report['serialized_cycles']:,} cycles "
            f"({report['overlap_speedup']:.2f}x, "
            f"{report['overlap_cycles_saved']:,} cycles overlapped)"
        ),
        f"unit occupancy: {occupancy}",
    ]
    for entry in report["moe_layers"]:
        lines.append(
            f"{entry['layer']}: {entry['experts']} expert chains, "
            f"{entry['kernels']} kernels, {entry['busy_cycles']:,} busy cycles "
            f"in a {entry['span_cycles']:,}-cycle span"
        )
    return "\n".join(lines)


def model_breakdown_report(result: ModelRunResult) -> Dict[str, object]:
    """The full JSON report the CLI emits with ``--json``."""
    report = result.to_dict()
    report["phase_summary"] = model_phase_summary(result)
    report["kind_busy_cycles"] = model_kind_cycles(result)
    report["overlap"] = model_overlap_report(result)
    return report


def compare_models(
    results: Sequence[ModelRunResult],
) -> Tuple[List[str], List[List[str]]]:
    """Headline comparison rows across several model runs (designs/phases)."""
    headers = [
        "model",
        "design",
        "kernels",
        "total cycles",
        "MAC util %",
        "power mW",
        "energy uJ",
    ]
    rows = [
        [
            result.model,
            result.design_name + ("+hetero" if result.heterogeneous else ""),
            str(result.kernel_count),
            f"{result.total_cycles:,}",
            f"{result.mac_utilization_percent:.1f}",
            f"{result.active_power_mw:.1f}",
            f"{result.active_energy_uj:.1f}",
        ]
        for result in results
    ]
    return headers, rows
