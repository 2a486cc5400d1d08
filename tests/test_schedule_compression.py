"""The GEMM tile loop's closed form must be bit-identical to full expansion.

The GEMM kernel builders schedule their tile loops through
``repro.kernels.gemm.schedule_loops``, which either materializes every
operation on the taskgraph (``full_expansion=True``, the oracle) or
computes the schedule's totals in closed form.  These tests enforce the
central contract: the two paths agree exactly -- total cycles, per-kind
busy cycles, per-resource busy cycles, counters and instruction counts --
across designs, dtypes, awkward shapes and random loop specs of both
wirings, while the closed form materializes no operation however large the
problem grows.  The steady-state engine the flash loop runs on keeps its
own unit tests here.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.config.presets import DesignKind
from repro.config.soc import DataType
from repro.kernels.gemm import GemmWorkload, simulate_gemm
from repro.kernels.gemm.schedule_loops import GemmLoopSpec, execute_gemm_loop
from repro.sim.steady_state import LoopStep, SteadyStateEngine

ALL_DESIGNS = list(DesignKind)

#: Shapes chosen to hit the corners: steady-state-dominated squares, shapes
#: with non-divisible edge tiles in every dimension, single-tile kernels,
#: degenerate skinny GEMMs (decode-phase projections) and K-heavy panels.
SHAPES = [
    (256, 256, 256),
    (512, 512, 512),
    (384, 192, 640),
    (130, 70, 129),
    (100, 100, 100),
    (257, 129, 511),
    (1, 4096, 4096),
    (4096, 1, 64),
    (2048, 512, 96),
    (8, 8, 8),
]


def _results_match(compressed, expanded):
    assert compressed.total_cycles == expanded.total_cycles
    assert compressed.phase_cycles == expanded.phase_cycles
    assert compressed.resource_busy == expanded.resource_busy
    assert compressed.retired_instructions == expanded.retired_instructions
    assert compressed.counters.as_dict() == expanded.counters.as_dict()
    assert compressed.ideal_mac_cycles == expanded.ideal_mac_cycles
    assert compressed.iteration_cycles == expanded.iteration_cycles


class TestCompressedEqualsExpanded:
    @pytest.mark.parametrize("design", ALL_DESIGNS, ids=lambda kind: kind.value)
    @pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "x".join(map(str, s)))
    def test_fp16_grid(self, design, shape):
        m, n, k = shape
        workload = GemmWorkload(m=m, n=n, k=k, dtype=DataType.FP16)
        compressed = simulate_gemm(design, workload, DataType.FP16)
        expanded = simulate_gemm(design, workload, DataType.FP16, full_expansion=True)
        _results_match(compressed, expanded)

    @pytest.mark.parametrize("design", ALL_DESIGNS, ids=lambda kind: kind.value)
    @pytest.mark.parametrize("shape", [(512, 512, 512), (130, 70, 129)],
                             ids=lambda s: "x".join(map(str, s)))
    def test_fp32_grid(self, design, shape):
        m, n, k = shape
        workload = GemmWorkload(m=m, n=n, k=k, dtype=DataType.FP32)
        compressed = simulate_gemm(design, workload, DataType.FP32)
        expanded = simulate_gemm(design, workload, DataType.FP32, full_expansion=True)
        _results_match(compressed, expanded)


class TestConstantOperationGraph:
    """The materialized graph must not grow with ``cluster_tiles x k_iterations``."""

    @pytest.mark.parametrize("design", ALL_DESIGNS, ids=lambda kind: kind.value)
    def test_executed_operations_independent_of_problem_size(self, design):
        large = simulate_gemm(design, GemmWorkload(m=4096, n=4096, k=4096))
        larger = simulate_gemm(design, GemmWorkload(m=8192, n=8192, k=8192))
        executed = large.schedule_stats["executed_operations"]
        assert executed == larger.schedule_stats["executed_operations"]
        # The closed form materializes none of the hundreds of thousands of
        # operations the loop nest spans.
        assert executed < 100
        assert large.schedule_stats["operation_count"] > 100_000
        assert larger.schedule_stats["extrapolated_operations"] > large.schedule_stats[
            "extrapolated_operations"
        ]

    def test_large_virgo_matches_full_expansion(self):
        """One direct 4096^3 cross-check against the fully expanded schedule."""
        workload = GemmWorkload(m=4096, n=4096, k=4096)
        compressed = simulate_gemm(DesignKind.VIRGO, workload)
        expanded = simulate_gemm(DesignKind.VIRGO, workload, full_expansion=True)
        _results_match(compressed, expanded)


class TestGemmLoopSpec:
    def _spec(self, load_cycles=None, **fields):
        return GemmLoopSpec(**{
            "cluster_tiles": 3,
            "k_iterations": 5,
            "register_file": True,
            "compute_cycles": 10,
            "epilogue_cycles": 4,
            "load_cycles": load_cycles,
            **fields,
        })

    def test_loads_occupy_the_dma_resource(self):
        """Both executors put the 3 x 5 loads on ``"dma"``, and report it idle without loads."""
        for full_expansion in (False, True):
            loaded = execute_gemm_loop(self._spec(load_cycles=7), full_expansion)
            assert loaded.resource_busy == {"compute": 3 * (5 * 10 + 4), "dma": 3 * 5 * 7}
            assert loaded.kind_cycles["dma"] == 3 * 5 * 7
            unloaded = execute_gemm_loop(self._spec(), full_expansion)
            assert unloaded.resource_busy == {"compute": 3 * (5 * 10 + 4), "dma": 0}

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"cluster_tiles": 0}, "cluster_tiles >= 1, got 0"),
            ({"k_iterations": 0}, "k_iterations >= 1, got 0"),
            ({"compute_cycles": -1}, "compute_cycles must be non-negative, got -1"),
            ({"epilogue_cycles": -2}, "epilogue_cycles must be non-negative, got -2"),
            ({"load_cycles": -3}, "load_cycles must be non-negative, got -3"),
            ({"first_compute_ready": -4}, "first_compute_ready must be non-negative, got -4"),
            ({"register_file": False}, "Virgo GEMM loop wiring needs load_cycles"),
        ],
        ids=["no-tiles", "no-k-steps", "negative-compute", "negative-epilogue",
             "negative-load", "negative-first-compute", "virgo-without-loads"],
    )
    def test_rejects_a_loop_no_wiring_builds_in_one_line(self, fields, message):
        with pytest.raises(ValueError, match=message) as error:
            self._spec(**fields)
        assert "\n" not in str(error.value)


@st.composite
def gemm_loop_specs(draw):
    """A loop of either wiring, small enough (T x K <= 400) to expand."""
    register_file = draw(st.booleans())
    tiles = draw(st.integers(1, 40))
    cycles = st.just(0) | st.integers(0, 3000)
    has_loads = not register_file or draw(st.booleans())
    return GemmLoopSpec(
        cluster_tiles=tiles,
        k_iterations=draw(st.integers(1, min(80, 400 // tiles))),
        register_file=register_file,
        compute_cycles=draw(cycles),
        epilogue_cycles=draw(cycles),
        load_cycles=draw(cycles) if has_loads else None,
        first_compute_ready=draw(st.just(0) | st.integers(0, 20_000)),
    )


class TestClosedFormEqualsExpansion:
    @settings(deadline=None, max_examples=300)
    @given(spec=gemm_loop_specs())
    # One K step, on both wirings.
    @example(spec=GemmLoopSpec(4, 1, True, compute_cycles=10, epilogue_cycles=4, load_cycles=7))
    @example(spec=GemmLoopSpec(4, 1, False, compute_cycles=10, epilogue_cycles=4, load_cycles=7))
    # Loads slower than computes: every load, then the last compute.
    @example(spec=GemmLoopSpec(3, 9, True, compute_cycles=10, epilogue_cycles=4, load_cycles=50))
    @example(spec=GemmLoopSpec(3, 9, False, compute_cycles=10, epilogue_cycles=4, load_cycles=50))
    # A late first compute, then the double-buffered loads behind it.
    @example(spec=GemmLoopSpec(3, 9, True, compute_cycles=10, epilogue_cycles=4, load_cycles=50,
                               first_compute_ready=300))
    @example(spec=GemmLoopSpec(2, 6, True, compute_cycles=30, epilogue_cycles=0,
                               first_compute_ready=20_000))
    def test_closed_form_equals_full_expansion(self, spec):
        closed = execute_gemm_loop(spec)
        expanded = execute_gemm_loop(spec, full_expansion=True)
        assert closed.total_cycles == expanded.total_cycles
        # Same values in the same key order.
        assert list(closed.kind_cycles.items()) == list(expanded.kind_cycles.items())
        assert list(closed.resource_busy.items()) == list(expanded.resource_busy.items())
        assert closed.operation_count == expanded.operation_count
        assert closed.executed_operations == 0


class TestSteadyStateEngine:
    """Unit coverage for the max-plus loop executor itself."""

    def _chain_engine(self):
        engine = SteadyStateEngine()
        engine.add_resource("unit")
        return engine

    def test_serial_chain_extrapolates_exactly(self):
        step = LoopStep(resource="unit", duration=7, kind="work", deps=("prev",), sets=("prev",))
        engine = self._chain_engine()
        engine.run_loop([step], 1_000_000)
        assert engine.makespan == 7_000_000
        assert engine.busy["unit"] == 7_000_000
        assert engine.kind_cycles["work"] == 7_000_000
        assert engine.executed_operations < 10
        assert engine.executed_operations + engine.extrapolated_operations == 1_000_000

    def test_two_resource_regime_change_stays_exact(self):
        """A faster pipe that overtakes a leading one mid-loop is handled.

        The consumer is initially self-limited (it starts far ahead); the
        free-running producer advances faster, overtakes around iteration
        1000 and gates the consumer from then on.  The regime change forces
        a partial jump plus re-detection, and the result must equal a naive
        replay of the same recurrence.
        """
        producer = LoopStep(resource="p", duration=5, kind="produce", sets=("made",))
        consumer = LoopStep(
            resource="c", duration=3, kind="consume", deps=("made", "done"), sets=("done",)
        )
        count = 10_000
        engine = SteadyStateEngine()
        engine.add_resource("p")
        engine.add_resource("c")
        # Skew the consumer chain far ahead so the producer track must catch up.
        engine.anchors["done"] = 2_000
        engine.run_loop([producer, consumer], count)

        p_free = c_free = 0
        done = 2_000
        made = None
        makespan = 0
        for _ in range(count):
            made = p_free + 5
            p_free = made
            start = max(c_free, made, done)
            done = start + 3
            c_free = done
            makespan = max(makespan, made, done)
        assert engine.makespan == makespan
        assert engine.anchors["done"] == done
        assert engine.anchors["made"] == made
        assert engine.free["p"] == p_free
        assert engine.free["c"] == c_free
        assert engine.executed_operations < 100  # two regimes, two detections

    def test_outer_loop_uniform_shift(self):
        step = LoopStep(resource="unit", duration=4, kind="work", deps=("prev",), sets=("prev",))
        engine = self._chain_engine()

        def body():
            engine.execute(step)
            engine.execute(step)

        engine.run_outer(body, 500_000)
        assert engine.makespan == 4_000_000
        assert engine.busy["unit"] == 4_000_000
        assert engine.executed_operations <= 8
