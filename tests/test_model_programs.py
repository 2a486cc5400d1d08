"""``run_model`` on compiled step programs, memoized per model and design.

``run_model`` lowers a model, compiles it into a ``StepProgram`` and places
that program with the list-scheduling loop serving batches run on.  The
reference is the ``OperationGraph`` executor it replaced
(``differential.oracle_run_model``).  Every run must match it on the
canonical ``to_dict()``, the counters item for item in first-seen key
order, power, timing-cache stats, diagnostic metrics, and trace spans and
flows.  Programs of zoo names and ``ModelSpec``s are placed once and
memoized, as plain-data ``PlacedModel``s, in the
``lowering.model_programs`` timing-cache namespace
(``docs/perf-contract.md`` contract 11); the memo must stay invisible in
all of those, over its whole lifecycle, and a hit must only assemble its
result.
"""

import dataclasses
import math
import pickle
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from differential import (
    assert_byte_identical,
    execute_schedule,
    oracle_isolated_step_spans,
    oracle_run_model,
)
from repro.config.presets import DesignKind, gemm_design_kinds, make_design
from repro.config.soc import DataType, DesignConfig
from repro.kernels.flash_attention import FlashAttentionWorkload
from repro.kernels.gemm import GemmWorkload
from repro.kernels.heterogeneous import small_unit_stride
from repro.obs import TraceRecorder, tracing
from repro.perf import SCHEMA_VERSION, cache_disabled, timing_cache
from repro.sim.stats import Counters
from repro.workloads import (
    ModelSpec,
    RequestSpec,
    ServingScheduler,
    build_model,
    lowering,
    model_names,
    resolve_spec,
    run_model,
)
from repro.workloads.graph import LayerGraph
from repro.workloads.lowering import (
    LOWERED_MODELS,
    MODEL_PROGRAMS,
    PROGRAM_RESOURCES,
    KernelInvocation,
    KernelSchedule,
    compile_step_program,
    lower_graph,
    lowered_model,
)
from repro.workloads.models import REQUEST_MODELS
from test_kernel_iteration_memo import DESIGN_LEAVES, _get_leaf, _perturbed, _replace_leaf

#: The four designs, plus the heterogeneous dual-unit Virgo.
CONFIGS = [(kind, False) for kind in gemm_design_kinds()] + [(DesignKind.VIRGO, True)]
CONFIG_IDS = [f"{kind.value}{'-hetero' if hetero else ''}" for kind, hetero in CONFIGS]


def _table():
    return timing_cache().namespace(MODEL_PROGRAMS)


@pytest.fixture(autouse=True)
def fresh_cache():
    timing_cache().clear()
    yield
    timing_cache().clear()


def _view(run):
    """Everything a model run reports, its trace included."""
    recorder = TraceRecorder(capture_phases=False)
    with tracing(recorder):
        result = run()
    return result, (
        list(result.counters.items()),
        result.power.to_dict(),
        dict(result.timing_cache),
        result.metrics.snapshot(include_diagnostic=True),
        recorder.spans,
        recorder.flows,
    )


def _zoo(run, config, heterogeneous):
    return [
        _view(lambda name=name: run(name, config, heterogeneous=heterogeneous))
        for name in model_names()
    ]


def _assert_same_runs(compiled, oracle, config, label):
    for name, (result, view), (reference, reference_view) in zip(
        model_names(), compiled, oracle
    ):
        context = f"{label} {name} on {config.name}"
        assert_byte_identical(result, reference, context=context)
        assert view == reference_view, context
        assert result.design is config, context


# --------------------------------------------------------------------------- #
# The executor against the oracle
# --------------------------------------------------------------------------- #


class TestOracleDifferential:
    @pytest.mark.parametrize("kind, heterogeneous", CONFIGS, ids=CONFIG_IDS)
    def test_zoo_cold_warm_and_memo_hits(self, kind, heterogeneous):
        config = make_design(kind, DataType.FP16)
        oracle_cold = _zoo(oracle_run_model, config, heterogeneous)
        oracle_warm = _zoo(oracle_run_model, config, heterogeneous)
        assert len(_table()) == 0
        compiled_warm = _zoo(run_model, config, heterogeneous)  # compiles, all hits
        assert len(_table()) == len(model_names())
        compiled_hits = _zoo(run_model, config, heterogeneous)  # replays the memo
        timing_cache().clear()
        compiled_cold = _zoo(run_model, config, heterogeneous)
        _assert_same_runs(compiled_cold, oracle_cold, config, "cold")
        _assert_same_runs(compiled_warm, oracle_warm, config, "warm")
        _assert_same_runs(compiled_hits, oracle_warm, config, "memo hit")

    def test_zoo_with_cache_disabled(self):
        """Each zoo model on one of the five configurations, round robin."""
        for index, name in enumerate(model_names()):
            kind, heterogeneous = CONFIGS[index % len(CONFIGS)]
            config = make_design(kind, DataType.FP16)
            with cache_disabled():
                result, view = _view(lambda: run_model(name, config, heterogeneous=heterogeneous))
                reference, reference_view = _view(
                    lambda: oracle_run_model(name, config, heterogeneous=heterogeneous)
                )
            assert_byte_identical(result, reference, context=f"disabled {name}")
            assert view == reference_view, name
            assert result.timing_cache == {"hits": 0, "misses": 0}
        assert len(_table()) == 0

    def test_design_kinds_names_and_layer_graphs_match_the_oracle(self):
        spec = resolve_spec("gpt-decode")
        for model, design in (("gpt-decode", "ampere"), (spec, DesignKind.HOPPER),
                              (build_model(spec), DesignKind.VIRGO)):
            timing_cache().clear()
            references = [_view(lambda: oracle_run_model(model, design)) for _ in range(2)]
            timing_cache().clear()
            runs = [_view(lambda: run_model(model, design)) for _ in range(2)]  # cold, then warm
            for (result, view), (reference, reference_view) in zip(runs, references):
                assert_byte_identical(result, reference)
                assert view == reference_view


# --------------------------------------------------------------------------- #
# Synthetic schedules: counter key order
# --------------------------------------------------------------------------- #

#: Counter keys the fake SIMT cost model draws from, all priced by the table.
FOLD_KEYS = (
    "core.fpu.ops",
    "core.issue.instructions",
    "core.alu.ops",
    "smem.core.read_words",
    "smem.core.write_words",
    "matrix_unit.pe.macs",
    "matrix_unit.operand_buffer_words",
    "dma.bytes",
    "l2.bytes",
)


def _fake_simt_cost(design, elements, flops_per_element):
    """Cycles and whole counts whose key order and values vary per kernel.

    Kernels list their keys in different orders, so a layer's own key order
    differs from the first-seen order across layers.
    """
    counters = Counters()
    offset = elements % len(FOLD_KEYS)
    for rank in range(1 + elements % 5):
        key = FOLD_KEYS[(offset + 3 * rank) % len(FOLD_KEYS)]
        counters.add(key, math.ceil(elements * flops_per_element / (rank + 3)))
    return max(1, int(elements * flops_per_element / 7)), counters


@st.composite
def fold_schedules(draw):
    """A random dependency-ordered schedule with non-contiguous layers.

    Half the kernels open a new layer, so a schedule often has many layers.
    """
    heterogeneous = draw(st.booleans())
    resources = PROGRAM_RESOURCES if heterogeneous else PROGRAM_RESOURCES[:2]
    invocations, layers = [], 0
    for index in range(draw(st.integers(1, 30))):
        layer = draw(st.one_of(st.just(layers), st.integers(0, layers)))
        layers = max(layers, layer + 1)
        deps = draw(st.lists(st.integers(0, index - 1), max_size=3, unique=True)) if index else []
        invocations.append(
            KernelInvocation(
                name=f"k{index}",
                layer=f"L{layer}",
                phase=draw(st.sampled_from(("prefill", "decode"))),
                kind="simt",
                resource=draw(st.sampled_from(resources)),
                deps=tuple(f"k{dep}" for dep in deps) + draw(st.sampled_from(((), ("",)))),
                elements=draw(st.integers(1, 5000)),
                flops_per_element=draw(st.floats(0.01, 10.0)),
            )
        )
    return KernelSchedule(
        model="fold",
        design=make_design(DesignKind.VIRGO),
        invocations=invocations,
        heterogeneous=heterogeneous,
        ideal_mac_cycles=draw(st.floats(0.0, 1e6)),
    )


@settings(deadline=None, max_examples=60)
@given(schedule=fold_schedules())
def test_model_execution_folds_as_the_oracle_on_synthetic_schedules(schedule):
    stats = {"hits": 0, "misses": 0}
    with mock.patch.object(lowering, "_simt_cost", _fake_simt_cost):
        result, view = _view(
            lambda: lowering._model_result(
                lowering._place_model(compile_step_program(schedule), schedule.design),
                schedule.design,
                dict(stats),
            )
        )
        reference, reference_view = _view(lambda: execute_schedule(schedule))
    assert_byte_identical(result, reference)
    assert view == reference_view


# --------------------------------------------------------------------------- #
# Key completeness
# --------------------------------------------------------------------------- #

SPECS = (
    ModelSpec(family="gpt", phase="decode", batch=1, seq_len=32, hidden=128, blocks=1,
              heads=4, context_len=64),
    ModelSpec(family="gpt", phase="prefill", batch=1, seq_len=32, hidden=128, blocks=1,
              heads=4),
    ModelSpec(family="moe", phase="decode", batch=2, seq_len=32, hidden=128, blocks=1,
              heads=4, context_len=64, experts=4, top_k=2),
)

#: Per ModelSpec field, replacements valid for every spec in SPECS.
SPEC_CHANGES = {
    "family": ("bert", "mlp"),
    "batch": (2, 3),
    "seq_len": (16, 64),
    "hidden": (64, 256),
    "blocks": (2,),
    "heads": (2, 8),
    "kv_heads": (1, 2),
    "ffn_mult": (2, 3),
    "context_len": (96, 128),
    "top_k": (1,),
    "capacity_factor": (1.5,),
    "shared_experts": (1,),
    "window": (8, 24),
}


def _stored_key(case, namespace=MODEL_PROGRAMS):
    """The one memo key a run stores in ``namespace``, read from the table."""
    spec, design, heterogeneous, dtype = case
    timing_cache().clear()
    run_model(spec, design, heterogeneous=heterogeneous, dtype=dtype)
    (key,) = timing_cache().namespace(namespace).keys()
    return key


def _disabled_view(case):
    spec, design, heterogeneous, dtype = case
    with cache_disabled():
        result = run_model(spec, design, heterogeneous=heterogeneous, dtype=dtype)
    return result.to_dict(), list(result.counters.items())


@st.composite
def perturbations(draw, targets=("spec", "design", "kind", "heterogeneous", "dtype")):
    """A run and the same run with one input changed: a spec field, a
    design leaf, the whole design (another preset, so another style),
    ``heterogeneous`` or the dtype."""
    spec = draw(st.sampled_from(SPECS))
    dtype = draw(st.sampled_from((DataType.FP16, DataType.FP32)))
    heterogeneous = draw(st.booleans())
    kind = DesignKind.VIRGO if heterogeneous else draw(st.sampled_from(gemm_design_kinds()))
    design = make_design(kind, dtype)
    base = (spec, design, heterogeneous, dtype)
    target = draw(st.sampled_from(targets))
    if target == "spec":
        name = draw(st.sampled_from(sorted(SPEC_CHANGES) + ["phase"]))
        if name == "phase":
            value = "prefill" if spec.phase == "decode" else "decode"
        elif name == "family" and spec.family == "moe":
            value = "gpt"
        else:
            value = draw(st.sampled_from(SPEC_CHANGES[name]))
        return base, (dataclasses.replace(spec, **{name: value}), design, heterogeneous, dtype)
    if target == "design":
        path = draw(st.sampled_from(DESIGN_LEAVES))
        leaf = _perturbed(_get_leaf(design, path), draw(st.booleans()))
        return base, (spec, _replace_leaf(design, path, leaf), heterogeneous, dtype)
    if target == "kind":
        other = make_design(draw(st.sampled_from(gemm_design_kinds())), dtype)
        return (spec, design, False, dtype), (spec, other, False, dtype)
    if target == "heterogeneous":
        return (spec, make_design(DesignKind.VIRGO, dtype), False, dtype), (
            spec, make_design(DesignKind.VIRGO, dtype), True, dtype
        )
    other = DataType.FP32 if dtype is DataType.FP16 else DataType.FP16
    return base, (spec, design, heterogeneous, other)


@settings(deadline=None, max_examples=50)
@given(case=perturbations())
def test_model_program_key_is_complete(case):
    """Either the stored key changes, or the cache-disabled run is identical."""
    base, perturbed = case
    if _stored_key(base) != _stored_key(perturbed):
        return
    assert _disabled_view(base) == _disabled_view(perturbed)


def _disabled_lowering(case):
    spec, design, heterogeneous, dtype = case
    with cache_disabled():
        return lowered_model(spec, design, heterogeneous, dtype)


#: A prefill spec lowers its attention fused on Virgo and decomposed on Volta.
FUSED_AND_NOT = (
    (SPECS[1], make_design(DesignKind.VOLTA), False, DataType.FP16),
    (SPECS[1], make_design(DesignKind.VIRGO), False, DataType.FP16),
)


@settings(deadline=None, max_examples=50)
@given(case=perturbations(("design", "kind", "dtype")))
@example(case=FUSED_AND_NOT)
def test_lowering_key_is_complete(case):
    """Either the stored lowering key changes, or the cache-disabled
    lowering is identical: the key holds all of the design lowering reads."""
    base, perturbed = case
    if _stored_key(base, LOWERED_MODELS) != _stored_key(perturbed, LOWERED_MODELS):
        return
    assert _disabled_lowering(base) == _disabled_lowering(perturbed)


def test_the_lowering_key_is_spec_fused_flag_stride_dtype_and_unit():
    volta, virgo = make_design(DesignKind.VOLTA), make_design(DesignKind.VIRGO)
    assert _stored_key((SPECS[1], volta, False, DataType.FP32), LOWERED_MODELS) == (
        SPECS[1], False, None, DataType.FP32, None
    )
    assert _stored_key((SPECS[1], virgo, True, DataType.FP16), LOWERED_MODELS) == (
        SPECS[1], True, small_unit_stride(virgo), DataType.FP16, None
    )


def test_the_key_is_spec_fingerprint_flag_and_dtype():
    design = make_design(DesignKind.AMPERE, DataType.FP32)
    key = _stored_key((SPECS[0], design, False, DataType.FP16))
    assert key[0] == SPECS[0] and key[2:] == (False, DataType.FP16)
    assert key == _stored_key((SPECS[0], dataclasses.replace(design), False, DataType.FP16))


# --------------------------------------------------------------------------- #
# Lifecycle
# --------------------------------------------------------------------------- #

MIX = (("gpt-decode", DesignKind.VIRGO, True), ("moe-decode", DesignKind.AMPERE, False),
       ("bert-base-ish", DesignKind.HOPPER, False))


def _run_mix():
    return [
        _view(lambda m=model, d=kind, h=hetero: run_model(m, make_design(d), heterogeneous=h))
        for model, kind, hetero in MIX
    ]


def _comparable(runs):
    return [(result.to_dict(), view) for result, view in runs]


def _count_calls(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


def _front_end_calls(monkeypatch):
    """Counters on every step a memo hit skips: build, lower, kernel probes."""
    return [
        _count_calls(monkeypatch, lowering, name)
        for name in ("build_model", "lower_graph", "run_gemm", "run_flash_attention",
                     "_simt_cost")
    ]


#: What the zoo x 4 designs table pickled to when it held compiled programs.
FORMER_ZOO_TABLE_KIB = 380


def _zoo_lap():
    """``run_model`` over every zoo model on each of the four designs."""
    for name in model_names():
        for kind in gemm_design_kinds():
            run_model(name, make_design(kind, DataType.FP16))


def _arrays(value):
    """Every numpy array inside ``value``."""
    if isinstance(value, np.ndarray):
        yield value
    elif dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            yield from _arrays(getattr(value, f.name))
    elif isinstance(value, dict):
        for item in value.values():
            yield from _arrays(item)
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from _arrays(item)


def _plain(value):
    """True if ``value`` holds no schedule, invocation, workload or design."""
    if isinstance(value, (KernelSchedule, KernelInvocation, GemmWorkload,
                          FlashAttentionWorkload, DesignConfig)):
        return False
    if dataclasses.is_dataclass(value):
        return all(_plain(getattr(value, f.name)) for f in dataclasses.fields(value))
    if isinstance(value, dict):
        return all(_plain(k) and _plain(v) for k, v in value.items())
    if isinstance(value, (tuple, list)):
        return all(_plain(item) for item in value)
    return isinstance(value, (str, int, float, bool, type(None), np.ndarray))


class TestLifecycle:
    def test_a_hit_skips_the_front_end_and_credits_every_kernel(self, monkeypatch):
        first = _run_mix()
        calls = _front_end_calls(monkeypatch)
        before = timing_cache().stats()
        again = _run_mix()
        assert all(not counted for counted in calls)
        kernels = sum(result.kernel_count for result, _ in again)
        for result, _ in again:
            assert result.timing_cache == {"hits": result.kernel_count, "misses": 0}
        after = timing_cache().stats()
        assert after["hits"] - before["hits"] == kernels
        assert (after["misses"], after["entries"]) == (before["misses"], before["entries"])
        warm = [_view(lambda m=m, d=d, h=h: oracle_run_model(m, make_design(d), heterogeneous=h))
                for m, d, h in MIX]
        assert _comparable(again) == _comparable(warm)
        assert [result.to_dict() for result, _ in first] == [
            result.to_dict() for result, _ in again
        ]

    def test_a_hit_neither_compiles_nor_places(self, monkeypatch):
        """A lap of the zoo x 4 designs places each pair once, a repeat none."""
        placements = _count_calls(monkeypatch, lowering, "_place")
        compiles = _count_calls(monkeypatch, lowering, "compile_lowered")
        _zoo_lap()
        pairs = len(model_names()) * len(gemm_design_kinds())
        assert (len(placements), len(compiles)) == (pairs, pairs)
        placements.clear()
        compiles.clear()
        _zoo_lap()
        assert (len(placements), len(compiles)) == (0, 0)

    def test_a_traced_hit_emits_the_oracle_spans_and_flows(self, monkeypatch):
        _run_mix()
        placements = _count_calls(monkeypatch, lowering, "_place")
        hits = _run_mix()
        assert not placements
        warm = [_view(lambda m=m, d=d, h=h: oracle_run_model(m, make_design(d), heterogeneous=h))
                for m, d, h in MIX]
        for (_, view), (_, reference_view) in zip(hits, warm):
            spans, flows = view[4:]
            assert spans and flows
            assert (spans, flows) == reference_view[4:]

    def test_clear_empties_the_table(self):
        _run_mix()
        assert len(_table()) == len(MIX)
        timing_cache().clear()
        assert len(_table()) == 0

    def test_values_are_plain_data(self):
        _run_mix()
        assert all(_plain(value) for value in _table().values())

    def test_no_value_holds_a_dense_array(self):
        _zoo_lap()
        _run_mix()
        assert not [
            array.shape
            for value in _table().values()
            for array in _arrays(value)
            if array.ndim >= 2
        ]

    def test_the_zoo_table_pickles_to_under_half_its_former_size(self):
        """Compiled programs with dense (layers x keys) counter rows pickled
        to 380 KiB over the zoo x 4 designs; placed models hold none."""
        _zoo_lap()
        size = len(pickle.dumps(_table(), pickle.HIGHEST_PROTOCOL))
        assert size < FORMER_ZOO_TABLE_KIB * 1024 / 2

    def test_layer_graphs_compile_on_every_call(self, monkeypatch):
        graph = build_model("gpt-decode")
        run_model(graph)
        compiles = _count_calls(monkeypatch, lowering, "compile_lowered")
        run_model(graph)
        assert len(compiles) == 1 and len(_table()) == 0

    def test_cache_disabled_neither_reads_nor_writes(self, monkeypatch):
        with cache_disabled():
            _run_mix()
        assert len(_table()) == 0
        _run_mix()
        probes = _count_calls(monkeypatch, lowering, "run_gemm")
        with cache_disabled():
            _run_mix()
        assert probes

    def test_snapshot_serves_a_fresh_cache_with_no_kernel_probes(self, monkeypatch):
        expected = _comparable(_run_mix())
        snapshot = pickle.loads(pickle.dumps(timing_cache().snapshot()))
        timing_cache().clear()
        timing_cache().load(snapshot)
        calls = _front_end_calls(monkeypatch)
        replayed = _run_mix()
        assert all(not counted for counted in calls)
        # The snapshot-served runs credit every kernel as a hit, as the warm
        # runs they replay would report.
        assert all(
            result.timing_cache == {"hits": result.kernel_count, "misses": 0}
            for result, _ in replayed
        )
        def outputs(runs):
            return [(result, view[:2], view[4:]) for result, view in runs]

        assert outputs(_comparable(replayed)) == outputs(expected)

    def test_a_schema_1_snapshot_of_step_programs_is_orphaned(self, monkeypatch):
        """Schema 1 memoized compiled ``StepProgram``s: load none of it."""
        spec, design = resolve_spec("gpt-decode"), make_design(DesignKind.VIRGO)
        run_model(spec, design)
        snapshot = timing_cache().snapshot()
        (key,) = snapshot["namespaces"][MODEL_PROGRAMS]
        program = compile_step_program(lower_graph(build_model(spec), design))
        written = pickle.dumps(
            dict(snapshot, schema=1, namespaces={MODEL_PROGRAMS: {key: program}})
        )
        timing_cache().clear()
        assert timing_cache().load(pickle.loads(written)) == 0
        assert (len(timing_cache()), len(_table())) == (0, 0)
        compiles = _count_calls(monkeypatch, lowering, "compile_lowered")
        result, view = _view(lambda: run_model(spec, design))
        assert len(compiles) == 1 and len(_table()) == 1
        timing_cache().clear()
        reference, reference_view = _view(lambda: oracle_run_model(spec, design))
        assert_byte_identical(result, reference)
        assert view == reference_view

    def test_stale_schema_snapshot_is_orphaned(self, monkeypatch):
        _run_mix()
        snapshot = timing_cache().snapshot()
        timing_cache().clear()
        timing_cache().load(dict(snapshot, schema=SCHEMA_VERSION + 1))
        assert len(_table()) == 0
        lowered = _count_calls(monkeypatch, lowering, "lower_graph")
        _run_mix()
        assert len(lowered) == len(MIX)

    def test_mutating_a_result_leaves_the_next_hit_alone(self):
        run_model("gpt-decode", "virgo")
        pristine, pristine_view = _view(lambda: run_model("gpt-decode", "virgo"))
        expected = (pristine.to_dict(), pristine_view)
        result = run_model("gpt-decode", "virgo")
        result.counters.add("core.fpu.ops", 1e9)
        result.power.energy_by_component_fj["core"] = 0
        result.layers[0].cycles += 1
        result.layers.pop()
        result.phase_cycles["decode"] = -1
        result.phase_energy_fj.clear()
        result.resource_busy["matrix"] = 0
        result.timing_cache["hits"] = -1
        result.metrics.counter("schedule.kernels").inc(5)
        again, view = _view(lambda: run_model("gpt-decode", "virgo"))
        assert (again.to_dict(), view) == expected


# --------------------------------------------------------------------------- #
# The lowering memo
# --------------------------------------------------------------------------- #


def _lowered():
    return timing_cache().namespace(LOWERED_MODELS)


#: One cache lifetime's sweep: the four designs, heterogeneous Virgo, and
#: Volta in FP32, so designs share lowerings and dtypes must not.
SWEEP = [(kind, False, DataType.FP16) for kind in gemm_design_kinds()] + [
    (DesignKind.VIRGO, True, DataType.FP16),
    (DesignKind.VOLTA, False, DataType.FP32),
]


def _sweep(run):
    timing_cache().clear()
    return [
        _view(lambda n=name, k=kind, h=hetero, d=dtype: run(
            n, make_design(k, d), heterogeneous=h, dtype=d
        ))
        for kind, hetero, dtype in SWEEP
        for name in model_names()
    ]


def _lean(value):
    """True if ``value`` holds no graph, schedule or design."""
    if isinstance(value, (LayerGraph, KernelSchedule, DesignConfig, dict)):
        return False
    if dataclasses.is_dataclass(value):
        return all(_lean(getattr(value, f.name)) for f in dataclasses.fields(value))
    if isinstance(value, (tuple, list)):
        return all(_lean(item) for item in value)
    return True


class TestLoweringMemo:
    def test_a_sweep_lowers_each_model_once_per_lowering_key(self, monkeypatch):
        """The zoo x 4 designs has two keys per spec (attention fused or
        not), 22 distinct lowerings; heterogeneous Virgo adds one per spec."""
        builds = _count_calls(monkeypatch, lowering, "build_model")
        lowerings = _count_calls(monkeypatch, lowering, "lower_graph")
        _zoo_lap()
        specs = len(model_names())
        assert len(builds) == len(lowerings) == len(_lowered()) == 2 * specs
        assert len(set(_lowered().values())) == 22
        for name in model_names():
            run_model(name, make_design(DesignKind.VIRGO), heterogeneous=True)
        assert len(lowerings) == len(_lowered()) == 3 * specs

    def test_designs_sharing_a_lowering_match_the_oracle(self):
        for (result, view), (reference, reference_view) in zip(
            _sweep(run_model), _sweep(oracle_run_model)
        ):
            assert_byte_identical(result, reference)
            assert view == reference_view

    def test_clear_empties_the_table(self):
        _run_mix()
        assert len(_lowered()) == len(MIX)
        timing_cache().clear()
        assert len(_lowered()) == 0

    def test_cache_disabled_neither_reads_nor_writes(self, monkeypatch):
        with cache_disabled():
            _run_mix()
        assert len(_lowered()) == 0
        _run_mix()
        lowerings = _count_calls(monkeypatch, lowering, "lower_graph")
        with cache_disabled():
            _run_mix()
        assert len(lowerings) == len(MIX) and len(_lowered()) == len(MIX)

    def test_a_snapshot_carries_the_lowerings(self, monkeypatch):
        expected = [(result.to_dict(), view[:2]) for result, view in _run_mix()]
        snapshot = pickle.loads(pickle.dumps(timing_cache().snapshot()))
        timing_cache().clear()
        timing_cache().load(snapshot)
        assert len(_lowered()) == len(MIX)
        _table().clear()
        calls = _count_calls(monkeypatch, lowering, "build_model"), _count_calls(
            monkeypatch, lowering, "lower_graph"
        )
        replayed = [(result.to_dict(), view[:2]) for result, view in _run_mix()]
        assert calls == ([], []) and replayed == expected

    def test_values_hold_no_graph_schedule_or_design(self):
        _zoo_lap()
        _run_mix()
        assert all(_lean(value) for value in _lowered().values())

    def test_layer_graphs_lower_on_every_call(self, monkeypatch):
        graph = build_model("gpt-decode")
        lowerings = _count_calls(monkeypatch, lowering, "lower_graph")
        run_model(graph)
        run_model(graph)
        assert len(lowerings) == 2 and len(_lowered()) == 0

    def test_schedulers_share_step_lowerings(self, monkeypatch):
        """A later scheduler, on another design with the same lowering key,
        lowers nothing; a heterogeneous one pins its units in its own keys."""
        request = RequestSpec(
            request_id="r0", model=REQUEST_MODELS["gpt-request"], prompt_len=60, decode_steps=5
        )
        ServingScheduler("virgo").isolated_step_spans(request, 64)
        lowerings = _count_calls(monkeypatch, lowering, "lower_graph")
        scheduler = ServingScheduler("ampere")
        spans = scheduler.isolated_step_spans(request, 64)
        assert not lowerings
        assert spans == oracle_isolated_step_spans(scheduler, request, 64)
        keys = len(_lowered())
        ServingScheduler("virgo", heterogeneous=True).isolated_step_spans(request, 64)
        assert len(_lowered()) == 2 * keys
        assert all(key[-1] in (None, "matrix") for key in _lowered())


# --------------------------------------------------------------------------- #
# Serving's isolated baseline runs on the same executor
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize("name", sorted(REQUEST_MODELS))
def test_isolated_step_spans_equal_the_oracle(name):
    request = RequestSpec(
        request_id="r0", model=REQUEST_MODELS[name], prompt_len=60, decode_steps=5
    )
    scheduler = ServingScheduler("virgo")

    def traced(run):
        recorder = TraceRecorder(capture_phases=False)
        cache = timing_cache()
        cache.clear()
        with tracing(recorder):
            spans = run()
        return spans, recorder.spans, recorder.flows, cache.stats()

    compiled = traced(lambda: scheduler.isolated_step_spans(request, 64))
    reference = traced(lambda: oracle_isolated_step_spans(scheduler, request, 64))
    assert compiled == reference
