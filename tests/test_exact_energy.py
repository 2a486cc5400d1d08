"""Energy is an exact integer number of femtojoules until the report boundary.

Every ``EnergyTable`` cost is a whole number of femtojoules and every
priced count is whole, so every energy total -- a kernel's, a step
program's, a placed model's, an iteration outcome's, an episode template's,
a stepper's -- is a Python ``int`` that no addition order can change.
Properties here pin that down: pricing rejects a fractional count, the
totals are ``int``s and their encodings floats, a batch's energy is the sum
of its rows' in any order, an epoch and an episode run add exact multiples,
and the sources of fractional counts (the SIMT sweep's per-lane counts,
for elementwise kernels and the flash softmax alike, and the heterogeneous
retry traffic) round up to whole events.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config.presets import DesignKind, gemm_design_kinds, make_design
from repro.energy.model import EnergyTable
from repro.kernels.flash_attention import SOFTMAX_FLOPS_PER_ELEMENT
from repro.kernels.heterogeneous import simulate_heterogeneous
from repro.perf import timing_cache
from repro.sim.stats import Counters
from repro.simt.core import sweep_cost
from repro.workloads import (
    REQUEST_MODELS,
    RequestSpec,
    ServingTrace,
    build_model,
    build_request_stream,
    build_stream_trace,
    run_fleet,
    run_model,
    run_serving,
)
from repro.workloads.lowering import (
    MATRIX_RESOURCE,
    MODEL_PROGRAMS,
    compile_step_program,
    execute_step_programs,
    lower_graph,
)
from repro.workloads.serving import ServingScheduler, _Stepper

#: Every counter key the tables price.
PRICED_KEYS = tuple(EnergyTable()._table)

#: Widely spaced solo requests: after the first, whole requests replay the
#: learned episode template.
EPISODE_TRACE = build_stream_trace(
    "exact-energy-episodes",
    build_request_stream(
        REQUEST_MODELS["gpt-request"],
        [index * 3_000_000 for index in range(4)],
        prompt_len=105,
        decode_steps=24,
    ),
)

#: Three requests arriving together: their shared batch runs as epochs.
EPOCH_TRACE = ServingTrace(
    name="exact-energy-epochs",
    requests=tuple(
        RequestSpec(request_id=f"e{index}", model=REQUEST_MODELS["gpt-request"],
                    arrival_cycle=0, prompt_len=40, decode_steps=20 + 4 * index)
        for index in range(3)
    ),
    context_bucket=64,
)


@pytest.fixture(autouse=True)
def fresh_cache():
    timing_cache().clear()
    yield
    timing_cache().clear()


@settings(deadline=None, max_examples=60)
@given(
    key=st.sampled_from(PRICED_KEYS),
    whole=st.integers(0, 10**9),
    fraction=st.floats(0.001, 0.999),
)
def test_a_fractional_count_raises_naming_its_key(key, whole, fraction):
    table = EnergyTable()
    assert table.energy_femtojoules(Counters({key: float(whole)})) == (
        whole * table.energy_femtojoules(Counters({key: 1}))
    )
    with pytest.raises(ValueError, match=key.replace(".", r"\.")):
        table.energy_femtojoules(Counters({key: whole + fraction}))


def test_energy_totals_are_ints_until_the_report_boundary():
    run_serving(EPISODE_TRACE, DesignKind.VIRGO)  # learns the template
    served = run_serving(EPISODE_TRACE, DesignKind.VIRGO)
    assert served.epochs["episode_runs"] >= 1
    epochs = run_serving(EPOCH_TRACE, DesignKind.VIRGO)
    assert epochs.epochs["epochs"] >= 1
    fleet = run_fleet(EPOCH_TRACE, 2)
    model = run_model("gpt-decode", DesignKind.VIRGO)
    program = compile_step_program(
        lower_graph(build_model("gpt-decode"), make_design(DesignKind.VIRGO))
    )

    cache = timing_cache()
    outcomes = list(cache.namespace("serving.iteration_memo").values())
    templates = list(cache.namespace("serving.episodes").values())
    (placed,) = cache.namespace(MODEL_PROGRAMS).values()
    totals = [served.energy_fj, epochs.energy_fj, program.energy_fj, model.power.total_energy_fj]
    totals += [replica.energy_fj for replica in fleet.replicas]
    totals += [outcome.energy_fj for outcome in outcomes]
    totals += [template.energy_fj for template in templates]
    totals += [segment.energy_fj for template in templates for segment in template.segments]
    totals += [layer.energy_fj for layer in (*program.layers, *placed.layers, *model.layers)]
    totals += [*placed.phase_energy_fj.values(), *model.power.energy_by_component_fj.values()]
    assert outcomes and templates
    assert {type(total) for total in totals} == {int}

    encoded = [served.to_dict()["energy_uj"], model.to_dict()["active_energy_uj"]]
    encoded += list(model.to_dict()["phase_energy_uj"].values())
    encoded += [layer["energy_uj"] for layer in model.to_dict()["layers"]]
    encoded += [replica["energy_uj"] for replica in fleet.to_dict()["replicas"]]
    encoded += list(model.power.to_dict()["energy_by_component_uj"].values())
    assert {type(value) for value in encoded} == {float}


@st.composite
def batches(draw):
    """Rows of (request model, bucketed context) and a row permutation."""
    rows = draw(
        st.lists(
            st.tuples(st.sampled_from(sorted(REQUEST_MODELS)), st.sampled_from((64, 128, 512))),
            min_size=1,
            max_size=12,
        )
    )
    order = draw(st.permutations(range(len(rows))))
    return rows, order


@settings(deadline=None, max_examples=25)
@given(batch=batches())
def test_a_batchs_energy_does_not_depend_on_row_order(batch):
    rows, order = batch
    scheduler = ServingScheduler("virgo")
    requests = [
        RequestSpec(request_id=f"r{index}", model=REQUEST_MODELS[name], prompt_len=context)
        for index, (name, context) in enumerate(rows)
    ]
    contexts = [context for _, context in rows]
    programs = scheduler._step_programs(requests, contexts, [MATRIX_RESOURCE] * len(rows))
    prefixes = [f"r{index}/" for index in range(len(rows))]
    energy = execute_step_programs(programs, prefixes).energy_fj
    shuffled = execute_step_programs([programs[i] for i in order], [prefixes[i] for i in order])
    assert shuffled.energy_fj == energy == sum(program.energy_fj for program in programs)


def test_an_epoch_adds_n_times_its_iterations_energy(monkeypatch):
    residues = []
    original = _Stepper._apply

    def apply(self, run, count):
        before = self.energy_fj
        original(self, run, count)
        if count > 1:
            residues.append(self.energy_fj - before - count * run.outcome.energy_fj)

    monkeypatch.setattr(_Stepper, "_apply", apply)
    result = run_serving(EPOCH_TRACE, DesignKind.VIRGO)
    assert len(residues) == result.epochs["epochs"] >= 1
    assert residues == [0] * len(residues)


def test_an_episode_run_adds_n_times_its_templates_energy(monkeypatch):
    run_serving(EPISODE_TRACE, DesignKind.VIRGO)  # learns the template
    residues = []
    original = _Stepper._apply

    def apply(self, run, count):
        before = self.energy_fj
        original(self, run, count)
        if run.arrivals is not None:
            residues.append(self.energy_fj - before - count * run.outcome.energy_fj)

    monkeypatch.setattr(_Stepper, "_apply", apply)
    result = run_serving(EPISODE_TRACE, DesignKind.VIRGO)
    assert len(residues) == result.epochs["episode_runs"] >= 1
    assert residues == [0] * len(residues)


def _lanes(design, lanes):
    core = dataclasses.replace(design.soc.cluster.core, lanes=lanes)
    cluster = dataclasses.replace(design.soc.cluster, core=core)
    return dataclasses.replace(design, soc=dataclasses.replace(design.soc, cluster=cluster))


@settings(deadline=None, max_examples=80)
@given(
    kind=st.sampled_from(gemm_design_kinds()),
    lanes=st.integers(1, 33),
    elements=st.integers(1, 10**7),
    flops_per_element=st.floats(0.001, 100.0),
)
def test_simt_cost_counts_are_whole(kind, lanes, elements, flops_per_element):
    design = _lanes(make_design(kind), lanes)
    _, counters = sweep_cost(design, elements, flops_per_element, 1, 1)
    assert all(float(value).is_integer() for _, value in counters.items())
    assert counters["core.fpu.ops"] >= elements * flops_per_element
    _, softmax = sweep_cost(design, elements, SOFTMAX_FLOPS_PER_ELEMENT, 3, 2)
    assert all(float(value).is_integer() for _, value in softmax.items())


@settings(deadline=None, max_examples=40)
@given(
    large=st.integers(2, 32).map(lambda blocks: 16 * blocks),
    small=st.integers(1, 16).map(lambda blocks: 16 * blocks),
)
def test_hetero_parallel_counts_are_whole(large, small):
    """The parallel case's retry traffic rounds up to whole words and
    descriptors: pricing it, which raises on a fractional count, gives an
    ``int`` above the serial energy."""
    result = simulate_heterogeneous(large, small)
    assert type(result.parallel_energy_fj) is int and type(result.serial_energy_fj) is int
    assert result.parallel_energy_fj > result.serial_energy_fj
