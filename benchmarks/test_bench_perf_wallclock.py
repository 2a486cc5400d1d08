"""Wall-clock trajectory of the timing-cache + schedule-compression stack.

Unlike the other benchmarks (which regenerate paper numbers), this one
tracks the *simulator's own* speed so performance regressions fail loudly:

* ``run_model`` on a warm in-process timing cache must beat the uncached
  path (every layer re-simulating its kernels, the pre-cache behaviour) by
  a wide margin -- the acceptance bar is 5x, asserted here with headroom
  below the typically measured ratio so CI noise does not flake;
* ``simulate_gemm``, whose tile loop is scheduled in closed form, must
  stay effectively O(1) in the tile count: a 4096^3 GEMM materializes no
  operation graph and beats full expansion by a wide margin;
* a *second* ``serve`` invocation -- a fresh cache warmed from the
  persistent snapshot, iterations replaying through the iteration memo --
  must beat the true cold path by >= 3x;
* ``simulate_flash_attention`` with the steady-state-compressed tile loop
  must beat full expansion by >= 10x on long-sequence configs;
* the observability instrumentation (``repro.obs``) with recording *off*
  must stay under 2% of a warm serving run -- hot paths are allowed to be
  instrumented only because an inactive site costs a couple of global
  reads.

The serving, flash and observability ratios are additionally recorded in
the gitignored ``.benchmarks/BENCH_serving_perf.json`` (``record_bench``).

Run directly (also wired into the CI perf-smoke job)::

    PYTHONPATH=src python -m pytest benchmarks/test_bench_perf_wallclock.py -q
"""

import gc
import time

from conftest import print_comparison, record_bench

from repro.config.presets import DesignKind
from repro.obs import phase, profiling
from repro.kernels.flash_attention import (
    FlashAttentionWorkload,
    simulate_flash_attention,
)
from repro.kernels.gemm import GemmWorkload, simulate_gemm
from repro.perf import (
    cache_disabled,
    load_snapshot,
    persistent_timing_cache,
    snapshot_path,
    timing_cache,
)
from repro.workloads import (
    poisson_stream_trace,
    resolve_spec,
    run_model,
    run_serving,
    scaled_spec,
)

#: The ISSUE's motivating scenario: a deep GPT whose blocks all lower to the
#: same handful of kernel shapes.
DEEP_GPT = scaled_spec(resolve_spec("gpt-prefill"), blocks=24)

#: Generous CI thresholds (the measured ratios are typically 6-10x): fail
#: loudly on an accidental O(n^2) or cache bypass, never on timer noise.
MIN_WARM_SPEEDUP = 3.0
MIN_COMPRESSION_SPEEDUP = 3.0
#: Second serve invocation (persistent cache + iteration memo) over cold.
MIN_SERVING_WARM_SPEEDUP = 3.0
#: Compressed over fully expanded flash tile loop at long sequence length.
MIN_FLASH_COMPRESSION_SPEEDUP = 10.0
#: Cold end-to-end budget (trace build + serve) for a million-request
#: poisson stream with epoch compression on.  Without compression the same
#: run takes minutes; the budget holds a ~10x margin over the measured
#: extrapolating run so only a broken fast path can trip it.
MAX_EPOCH_MILLION_SECONDS = 10.0

def _best_of(fn, rounds=3):
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_bench_warm_cache_model_speedup(benchmark):
    """run_model("gpt-prefill", "virgo"): warm cache vs per-layer re-simulation."""
    timing_cache().clear()
    with cache_disabled():
        uncached = _best_of(lambda: run_model("gpt-prefill", "virgo"))
    run_model("gpt-prefill", "virgo")  # seed the cache
    warm = benchmark.pedantic(
        lambda: run_model("gpt-prefill", "virgo"), rounds=5, iterations=1
    )
    warm_best = min(benchmark.stats.stats.data)
    speedup = uncached / warm_best

    timing_cache().clear()
    with cache_disabled():
        deep_uncached = _best_of(lambda: run_model(DEEP_GPT, "virgo"))
    run_model(DEEP_GPT, "virgo")
    deep_warm = _best_of(lambda: run_model(DEEP_GPT, "virgo"))

    print_comparison(
        "Wall clock: warm timing cache vs uncached (per-layer re-simulation)",
        {
            "gpt_prefill_uncached_ms": {"measured": uncached * 1e3},
            "gpt_prefill_warm_ms": {"measured": warm_best * 1e3},
            "gpt_prefill_speedup": {"measured": speedup, "paper": 5.0},
            "gpt24_uncached_ms": {"measured": deep_uncached * 1e3},
            "gpt24_warm_ms": {"measured": deep_warm * 1e3},
            "gpt24_speedup": {"measured": deep_uncached / deep_warm, "paper": 5.0},
        },
    )
    assert warm is not None
    assert speedup >= MIN_WARM_SPEEDUP
    assert deep_uncached / deep_warm >= MIN_WARM_SPEEDUP


def test_bench_schedule_compression_speedup(benchmark):
    """simulate_gemm at 4096^3: the closed-form schedule vs full expansion."""
    workload = GemmWorkload(m=4096, n=4096, k=4096)
    expanded_time = _best_of(
        lambda: simulate_gemm(DesignKind.VIRGO, workload, full_expansion=True), rounds=1
    )
    result = benchmark.pedantic(
        lambda: simulate_gemm(DesignKind.VIRGO, workload), rounds=3, iterations=1
    )
    compressed_time = min(benchmark.stats.stats.data)
    expanded = simulate_gemm(DesignKind.VIRGO, workload, full_expansion=True)

    print_comparison(
        "Wall clock: compressed vs fully expanded GEMM schedule (Virgo 4096^3)",
        {
            "expanded_ms": {"measured": expanded_time * 1e3},
            "compressed_ms": {"measured": compressed_time * 1e3},
            "speedup": {"measured": expanded_time / compressed_time},
            "executed_operations": {
                "measured": float(result.schedule_stats["executed_operations"])
            },
            "operations_covered": {
                "measured": float(result.schedule_stats["operation_count"])
            },
        },
    )
    assert result.total_cycles == expanded.total_cycles
    assert result.schedule_stats["executed_operations"] < 100
    assert expanded_time / compressed_time >= MIN_COMPRESSION_SPEEDUP


def test_bench_serving_warm_vs_cold(benchmark, tmp_path):
    """Second ``serve`` invocation vs the first, and vs the uncached floor.

    The cold lap is exactly what the *first* ``python -m repro serve
    --cache-dir ...`` pays in a fresh process: every distinct kernel
    simulated once, every iteration merged and list-scheduled, the snapshot
    flushed on exit.  The warm lap is the *second* invocation: an empty
    process cache re-seeded from the snapshot (kernel timings + iteration
    memo), so iterations replay instead of being re-merged/re-scheduled.
    The fully uncached floor (pre-PR2 behaviour: per-iteration
    re-simulation) is reported alongside for scale.
    """
    trace = "poisson-mixed"
    path = snapshot_path(tmp_path)
    timing_cache().clear()
    with cache_disabled():
        uncached = _best_of(lambda: run_serving(trace, "virgo"))

    def first_invocation():
        timing_cache().clear()
        if path.exists():
            path.unlink()
        with persistent_timing_cache(tmp_path):
            return run_serving(trace, "virgo")

    cold = _best_of(first_invocation)
    first_invocation()  # leave a fresh snapshot behind for the warm laps
    assert path.exists()

    def second_invocation():
        # A fresh process: empty timing cache (clearing also empties the
        # iteration memo), warmed from the on-disk snapshot.
        timing_cache().clear()
        load_snapshot(path)
        return run_serving(trace, "virgo")

    warm_result = benchmark.pedantic(second_invocation, rounds=5, iterations=1)
    warm = min(benchmark.stats.stats.data)
    timing_cache().clear()

    speedup = cold / warm
    print_comparison(
        "Wall clock: second serve invocation (persistent cache + memo) vs first",
        {
            "uncached_ms": {"measured": uncached * 1e3},
            "first_invocation_ms": {"measured": cold * 1e3},
            "second_invocation_ms": {"measured": warm * 1e3},
            "speedup": {"measured": speedup, "paper": MIN_SERVING_WARM_SPEEDUP},
        },
    )
    record_bench(
        "serving_warm_vs_cold",
        {
            "trace": trace,
            "design": "virgo",
            "uncached_ms": round(uncached * 1e3, 3),
            "first_invocation_ms": round(cold * 1e3, 3),
            "second_invocation_ms": round(warm * 1e3, 3),
            "speedup": round(speedup, 2),
            "min_speedup": MIN_SERVING_WARM_SPEEDUP,
        },
    )
    assert warm_result.timing_cache["misses"] == 0
    assert warm_result.iteration_memo["misses"] == 0
    assert warm_result.decode_steps_executed > 0
    assert speedup >= MIN_SERVING_WARM_SPEEDUP


def test_bench_observability_off_overhead(benchmark):
    """Recording-off instrumentation must cost < 2% of a warm serving run.

    The activation contract (``repro.obs``): with no trace recorder and no
    phase profiler active, an instrumented site is a couple of module-global
    reads.  Measure the real cost of an inactive ``phase()`` site, count the
    sites one *cold* serving run crosses (with a profiler; warm runs
    replay memoized iterations and cross far fewer),
    and bound each run's estimate -- padded by a 5x safety factor -- against
    that run's own wall clock.
    """
    trace = "poisson-mixed"

    timing_cache().clear()
    cold = _best_of(lambda: run_serving(trace, "virgo"), rounds=1)
    timing_cache().clear()
    with profiling() as profiler:
        run_serving(trace, "virgo")  # cold: every phase site fires
    cold_sites = len(profiler.records)

    benchmark.pedantic(lambda: run_serving(trace, "virgo"), rounds=5, iterations=1)
    warm = min(benchmark.stats.stats.data)
    with profiling() as profiler:
        run_serving(trace, "virgo")  # warm: memo replays skip most sites
    warm_sites = len(profiler.records)

    rounds = 200_000
    start = time.perf_counter()
    for _ in range(rounds):
        with phase("bench.noop"):
            pass
    per_site = (time.perf_counter() - start) / rounds

    # Each run is charged for the sites *it* crosses, padded 5x.
    cold_percent = 100.0 * (cold_sites * per_site * 5.0) / cold
    warm_percent = 100.0 * (warm_sites * per_site * 5.0) / warm
    overhead_percent = max(cold_percent, warm_percent)
    print_comparison(
        "Wall clock: recording-off observability overhead (5x-padded)",
        {
            "inactive_site_ns": {"measured": per_site * 1e9},
            "cold_sites": {"measured": float(cold_sites)},
            "cold_serving_ms": {"measured": cold * 1e3},
            "cold_overhead_percent": {"measured": cold_percent, "paper": 2.0},
            "warm_sites": {"measured": float(warm_sites)},
            "warm_serving_ms": {"measured": warm * 1e3},
            "warm_overhead_percent": {"measured": warm_percent, "paper": 2.0},
        },
    )
    record_bench(
        "observability_off_overhead",
        {
            "trace": trace,
            "design": "virgo",
            "inactive_site_ns": round(per_site * 1e9, 1),
            "cold_sites": cold_sites,
            "cold_serving_ms": round(cold * 1e3, 3),
            "warm_sites": warm_sites,
            "warm_serving_ms": round(warm * 1e3, 3),
            "overhead_percent_5x_padded": round(overhead_percent, 4),
            "max_overhead_percent": 2.0,
        },
    )
    assert cold_sites > 0, "the serving path lost its phase instrumentation"
    assert overhead_percent < 2.0


def test_bench_flash_compression_speedup(benchmark):
    """Flash attention at seq 16384: steady-state compression vs the fully
    expanded (Q tile, KV tile) operation graph."""
    workload = FlashAttentionWorkload(seq_len=16384)
    expanded_time = _best_of(
        lambda: simulate_flash_attention(
            DesignKind.VIRGO, workload, full_expansion=True
        ),
        rounds=1,
    )
    result = benchmark.pedantic(
        lambda: simulate_flash_attention(DesignKind.VIRGO, workload),
        rounds=3,
        iterations=1,
    )
    compressed_time = min(benchmark.stats.stats.data)
    expanded = simulate_flash_attention(DesignKind.VIRGO, workload, full_expansion=True)

    speedup = expanded_time / compressed_time
    print_comparison(
        "Wall clock: compressed vs fully expanded flash tile loop (seq 16384)",
        {
            "expanded_ms": {"measured": expanded_time * 1e3},
            "compressed_ms": {"measured": compressed_time * 1e3},
            "speedup": {"measured": speedup, "paper": MIN_FLASH_COMPRESSION_SPEEDUP},
            "executed_operations": {
                "measured": float(result.schedule_stats["executed_operations"])
            },
            "operations_covered": {
                "measured": float(result.schedule_stats["operation_count"])
            },
        },
    )
    record_bench(
        "flash_compression",
        {
            "design": "virgo",
            "seq_len": workload.seq_len,
            "expanded_ms": round(expanded_time * 1e3, 3),
            "compressed_ms": round(compressed_time * 1e3, 3),
            "speedup": round(speedup, 2),
            "min_speedup": MIN_FLASH_COMPRESSION_SPEEDUP,
        },
    )
    assert result.total_cycles == expanded.total_cycles
    assert result.phase_cycles == expanded.phase_cycles
    assert result.schedule_stats["executed_operations"] < 100
    assert speedup >= MIN_FLASH_COMPRESSION_SPEEDUP


def test_bench_epoch_compression_million_requests(benchmark):
    """A cold million-request poisson serve must finish in under 10 seconds.

    This is the epoch-compression guardrail: build the 1M-request stream
    trace and run the serving scheduler end-to-end from a cold timing
    cache.  Nearly every request is served through extrapolated epochs and
    episode replays, so the run costs O(transients), not O(iterations) --
    an accidental per-iteration loop (or a broken episode learner) blows
    the budget by an order of magnitude.  The collector is paused over the
    timed region: a gc pass over millions of live result objects measures
    the allocator, not the scheduler.
    """
    requests = 1_000_000

    def build_and_run():
        timing_cache().clear()
        trace = poisson_stream_trace("epoch-bench-1m", requests=requests)
        return run_serving(trace, "virgo")

    was_enabled = gc.isenabled()
    gc.disable()
    try:
        result = benchmark.pedantic(build_and_run, rounds=3, iterations=1)
    finally:
        if was_enabled:
            gc.enable()
        gc.collect()
    elapsed = min(benchmark.stats.stats.data)
    timing_cache().clear()

    stats = result.epochs
    print_comparison(
        "Wall clock: cold 1M-request poisson serve (epoch compression on)",
        {
            "end_to_end_s": {"measured": elapsed, "paper": MAX_EPOCH_MILLION_SECONDS},
            "epochs": {"measured": float(stats["epochs"])},
            "episode_runs": {"measured": float(stats["episode_runs"])},
            "executed_iterations": {"measured": float(stats["executed_iterations"])},
            "extrapolated_requests": {
                "measured": float(stats["extrapolated_requests"])
            },
        },
    )
    record_bench(
        "serving_epoch_1m",
        {
            "design": "virgo",
            "requests": requests,
            "end_to_end_s": round(elapsed, 3),
            "max_seconds": MAX_EPOCH_MILLION_SECONDS,
            "epochs": stats["epochs"],
            "episode_runs": stats["episode_runs"],
            "executed_iterations": stats["executed_iterations"],
            "extrapolated_iterations": stats["extrapolated_iterations"],
            "extrapolated_requests": stats["extrapolated_requests"],
        },
    )
    assert len(result.requests) == requests
    assert stats["enabled"] is True
    # The overwhelming majority of the stream must ride the fast paths.
    assert stats["extrapolated_requests"] > requests * 9 // 10
    assert stats["executed_iterations"] < 100_000
    assert elapsed < MAX_EPOCH_MILLION_SECONDS
