"""The step-program compiler resolves each distinct kernel and layer once.

``lowering.compile_step_program`` identifies a kernel by its kind, unit,
workload and reported MACs (a SIMT kernel by its elements and FLOPs per
element), probes the timing cache once per distinct kernel in
first-appearance order, credits every repeat as the hit its probe would
have been, and folds each distinct sequence of kernel records once.  The
reference is the compiler that probed and folded every instance
(``differential.oracle_compile_step_program``).  Both must build the same
``StepProgram`` field for field -- the counter totals' key order
included -- and move the timing cache's hits, misses and entries alike on a
cold, a warm and a cleared cache; with the cache disabled the programs must
still agree.
"""

import dataclasses
import math
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from differential import (
    assert_byte_identical,
    oracle_compile_step_program,
    oracle_run_model,
)
from repro.config.presets import DesignKind, make_design
from repro.config.soc import DataType
from repro.energy.model import EnergyTable
from repro.kernels.flash_attention import FlashAttentionWorkload
from repro.kernels.gemm import GemmWorkload
from repro.kernels.heterogeneous import design_with_unit, small_unit_config
from repro.perf import cache_disabled, design_fingerprint, timing_cache
from repro.sim.stats import Counters
from repro.workloads import build_model, lowering, model_names, run_model
from repro.workloads.graph import AttentionLayer, LayerGraph
from repro.workloads.lowering import (
    MATRIX_RESOURCE,
    SIMT_RESOURCE,
    SMALL_MATRIX_RESOURCE,
    KernelInvocation,
    KernelSchedule,
    StepProgram,
    compile_step_program,
    lower_graph,
)
from repro.workloads.models import ModelSpec
from test_model_programs import CONFIG_IDS, CONFIGS, FOLD_KEYS, _count_calls


@pytest.fixture(autouse=True)
def fresh_cache():
    timing_cache().clear()
    yield
    timing_cache().clear()


def assert_same_program(program: StepProgram, reference: StepProgram, context: str = "") -> None:
    """Every field equal, dicts in order."""
    for f in dataclasses.fields(StepProgram):
        value, expected = getattr(program, f.name), getattr(reference, f.name)
        label = f"{context} {f.name}"
        if isinstance(expected, dict):
            assert list(value.items()) == list(expected.items()), label
        else:
            assert value == expected, label


def _compiled(compile, schedule):
    """The program, and the hits, misses and entries the compile added."""
    cache = timing_cache()
    before = cache.stats()
    program = compile(schedule)
    after = cache.stats()
    return program, tuple(after[name] - before[name] for name in ("hits", "misses", "entries"))


def _laps(compile, schedules):
    """Cold, warm, cleared-and-recompiled, then disabled compiles of every
    schedule in order."""
    timing_cache().clear()
    runs = [_compiled(compile, schedule) for schedule in schedules]
    runs += [_compiled(compile, schedule) for schedule in schedules]
    timing_cache().clear()
    runs += [_compiled(compile, schedule) for schedule in schedules]
    with cache_disabled():
        runs += [_compiled(compile, schedule) for schedule in schedules]
    return runs


def _assert_same_laps(schedules):
    for index, ((program, deltas), (reference, expected)) in enumerate(
        zip(_laps(compile_step_program, schedules), _laps(oracle_compile_step_program, schedules))
    ):
        context = f"compile {index} ({schedules[index % len(schedules)].model})"
        assert_same_program(program, reference, context)
        assert deltas == expected, context


def _kernel_key(inv: KernelInvocation):
    """How a kernel is told apart, written out independently of the compiler."""
    if inv.kind == "simt":
        return inv.kind, inv.elements, inv.flops_per_element
    return inv.kind, inv.resource, inv.workload, inv.reported_macs


# --------------------------------------------------------------------------- #
# The zoo
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize("kind, heterogeneous", CONFIGS, ids=CONFIG_IDS)
def test_zoo_programs_equal_the_per_kernel_oracle(kind, heterogeneous):
    design = make_design(kind, DataType.FP16)
    schedules = [
        lower_graph(build_model(name), design, heterogeneous=heterogeneous)
        for name in model_names()
    ]
    _assert_same_laps(schedules)


@pytest.mark.parametrize("kind, heterogeneous", CONFIGS, ids=CONFIG_IDS)
def test_a_cold_compile_probes_each_distinct_kernel_and_prices_each_distinct_layer_once(
    monkeypatch, kind, heterogeneous
):
    design = make_design(kind, DataType.FP16)
    probes = {
        name: _count_calls(monkeypatch, lowering, name)
        for name in ("run_gemm", "run_flash_attention", "_simt_cost")
    }
    pricings = _count_calls(monkeypatch, EnergyTable, "energy_femtojoules")
    for name in model_names():
        schedule = lower_graph(build_model(name), design, heterogeneous=heterogeneous)
        distinct = {_kernel_key(inv): inv.kind for inv in schedule.invocations}
        layers = {}
        for inv in schedule.invocations:
            layers.setdefault(inv.layer, []).append(_kernel_key(inv))
        for calls in (*probes.values(), pricings):
            calls.clear()
        timing_cache().clear()
        program = compile_step_program(schedule)
        kinds = list(distinct.values())
        assert [len(calls) for calls in probes.values()] == [
            kinds.count(probed) for probed in ("gemm", "flash", "simt")
        ], name
        assert len(pricings) == len({tuple(keys) for keys in layers.values()}), name
        assert len(program) == len(schedule)
        if name == "moe-decode-16x2":
            assert (len(schedule), len(distinct)) == ((121, 15) if heterogeneous else (121, 13))


def _varlen_list_graph() -> LayerGraph:
    """A hand-built graph whose attention layers carry ``seq_lens`` as a
    list, which the timing-cache key derivation cannot hash: two packings,
    one of them twice."""
    spec = ModelSpec(family="gpt", phase="prefill", batch=1, seq_len=96, hidden=128,
                     blocks=3, heads=4, seq_lens=(32, 64))
    source = build_model(spec)
    graph = LayerGraph("varlen-list", source.input_shape)
    packings = iter(([16, 80], [48, 48], [16, 80]))
    for layer in source.layers():
        if isinstance(layer, AttentionLayer):
            layer = dataclasses.replace(layer, seq_lens=next(packings))
        graph.add(layer)
    return graph


@pytest.mark.parametrize("kind", (DesignKind.VIRGO, DesignKind.AMPERE, DesignKind.HOPPER))
def test_an_unhashable_workload_compiles_as_the_oracle(kind):
    graph = _varlen_list_graph()
    schedule = lower_graph(graph, make_design(kind))
    if kind is not DesignKind.HOPPER:
        assert any(isinstance(inv.workload, FlashAttentionWorkload)
                   and isinstance(inv.workload.seq_lens, list) for inv in schedule.invocations)
    _assert_same_laps([schedule, schedule])
    timing_cache().clear()
    references = [oracle_run_model(graph, kind) for _ in range(2)]  # cold, then warm
    timing_cache().clear()
    results = [run_model(graph, kind) for _ in range(2)]
    for result, reference in zip(results, references):
        assert_byte_identical(result, reference)
        assert list(result.counters.items()) == list(reference.counters.items())
        assert result.timing_cache == reference.timing_cache


# --------------------------------------------------------------------------- #
# Synthetic schedules
# --------------------------------------------------------------------------- #

VIRGO = make_design(DesignKind.VIRGO)
SMALL_VIRGO = design_with_unit(VIRGO, small_unit_config(VIRGO.matrix_unit))


def _tilt(design) -> int:
    """A per-design factor, so one GEMM differs between the two units."""
    return int(design_fingerprint(design), 16) % 89 + 2


def _stand_in_counters(work: int, scale: float) -> Counters:
    """Whole counts in a per-kernel key order."""
    counters = Counters()
    offset = work % len(FOLD_KEYS)
    for rank in range(1 + work % 5):
        counters.add(
            FOLD_KEYS[(offset + 3 * rank) % len(FOLD_KEYS)], math.ceil(work * scale / (rank + 3))
        )
    return counters


def _stand_in_kernel(design, work: int):
    tilt = _tilt(design)
    return SimpleNamespace(
        total_cycles=max(1, work * tilt // 7),
        counters=_stand_in_counters(work, tilt / 11),
        schedule_stats={"operation_count": work % 13, "executed_operations": work % 7,
                        "extrapolated_operations": work % 3},
        mac_utilization=(work % 97 + 1) / (97 * tilt),
    )


def _stand_in(kind, work):
    """A ``run_gemm``/``run_flash_attention`` stand-in that goes through the
    timing cache, so hits, misses and entries count as the real ones do."""
    def run(design, workload, dtype=None):
        cache = timing_cache()
        key = cache.key(f"stand-in.{kind}", design, {"workload": workload})
        return cache.get_or_compute(
            key, lambda: SimpleNamespace(kernel=_stand_in_kernel(design, work(workload)))
        )
    return run


def _stand_in_simt(design, elements, flops_per_element):
    cache = timing_cache()
    key = cache.key("stand-in.simt", design,
                    {"elements": elements, "flops_per_element": flops_per_element})
    return cache.get_or_compute(
        key,
        lambda: (max(1, int(elements * flops_per_element / 7)),
                 _stand_in_counters(elements, flops_per_element)),
    )


def _stand_ins():
    return (
        mock.patch.object(lowering, "run_gemm", _stand_in("gemm", lambda w: w.macs)),
        mock.patch.object(lowering, "run_flash_attention",
                          _stand_in("flash", lambda w: w.seq_len * w.heads + 5)),
        mock.patch.object(lowering, "_simt_cost", _stand_in_simt),
    )


@st.composite
def kernel_specs(draw, heterogeneous):
    """One kernel, minus its name, layer and dependencies.

    Workloads come from small pools, so one GEMM repeats within and across
    layers, with and without ``reported_macs`` and on both units.
    """
    kind = draw(st.sampled_from(("gemm", "gemm", "flash", "simt", "simt")))
    if kind == "gemm":
        m, n = draw(st.sampled_from(((1, 64), (8, 64), (16, 128))))
        units = (MATRIX_RESOURCE, SMALL_MATRIX_RESOURCE) if heterogeneous else (MATRIX_RESOURCE,)
        return dict(kind=kind, resource=draw(st.sampled_from(units)),
                    workload=GemmWorkload(m, n, 64),
                    reported_macs=draw(st.sampled_from((None, None, 1000, 3))))
    if kind == "flash":
        return dict(kind=kind, resource=MATRIX_RESOURCE,
                    workload=FlashAttentionWorkload(seq_len=draw(st.sampled_from((64, 128))),
                                                    heads=draw(st.sampled_from((1, 2)))),
                    reported_macs=draw(st.sampled_from((None, 7))))
    return dict(kind=kind, resource=draw(st.sampled_from((SIMT_RESOURCE, MATRIX_RESOURCE))),
                elements=draw(st.sampled_from((5, 96, 4099))),
                flops_per_element=draw(st.sampled_from((0.1, 1.0, 3.7))))


@st.composite
def compile_schedules(draw):
    """A dependency-ordered schedule of repeated blocks of non-contiguous
    layers, plus a random tail."""
    heterogeneous = draw(st.booleans())
    block = []
    for _ in range(draw(st.integers(1, 8))):
        layer = draw(st.integers(0, max((layer for layer, _ in block), default=-1) + 1))
        block.append((layer, draw(kernel_specs(heterogeneous))))
    kernels = [
        (f"b{copy}.L{layer}", spec)
        for copy in range(draw(st.integers(1, 3)))
        for layer, spec in block
    ]
    for _ in range(draw(st.integers(0, 6))):
        kernels.append((f"t.L{draw(st.integers(0, 2))}", draw(kernel_specs(heterogeneous))))
    invocations = []
    for index, (layer, spec) in enumerate(kernels):
        deps = draw(st.lists(st.integers(0, index - 1), max_size=2, unique=True)) if index else []
        invocations.append(
            KernelInvocation(
                name=f"k{index}",
                layer=layer,
                phase=draw(st.sampled_from(("prefill", "decode"))),
                deps=tuple(f"k{dep}" for dep in deps) + draw(st.sampled_from(((), ("",)))),
                **spec,
            )
        )
    return KernelSchedule(
        model="synthetic",
        design=VIRGO,
        invocations=invocations,
        heterogeneous=heterogeneous,
        small_design=SMALL_VIRGO if heterogeneous else None,
        ideal_mac_cycles=draw(st.floats(0.0, 1e6)),
    )


def test_the_stand_ins_tell_the_two_units_apart():
    assert _tilt(VIRGO) != _tilt(SMALL_VIRGO)


@settings(deadline=None, max_examples=120)
@given(schedule=compile_schedules())
def test_synthetic_programs_equal_the_per_kernel_oracle(schedule):
    gemm, flash, simt = _stand_ins()
    with gemm, flash, simt:
        _assert_same_laps([schedule])
