"""Wall clock of fleet chaos sweeps: warm replica memo sharing vs cold.

Every replica of a fleet shares the process-wide iteration memo and timing
cache, and epoch extrapolation collapses steady-state stretches between
fleet events.  A warm fleet sweep (policy x fault plan over the same trace
and replica designs) therefore re-simulates almost nothing: the first cell
pays for the kernels and iteration compositions, and every later cell --
and every later *sweep* -- replays them.  The acceptance bar pins that
sharing: a second identical sweep must beat the cold one by >= 3x, while
producing byte-identical canonical results (the determinism contract the
chaos CI gate enforces across processes).

The measured ratio lands in the gitignored
``.benchmarks/BENCH_serving_perf.json`` under ``fleet_*`` keys alongside the
serving and flash rows.

Run directly (also wired into the CI perf-smoke job)::

    PYTHONPATH=src python -m pytest benchmarks/test_bench_fleet.py -q
"""

import json
import time

from conftest import print_comparison, record_bench

from repro.perf import timing_cache
from repro.workloads import run_fleet

#: Second identical sweep (warm memo + timing cache) over the cold one.
MIN_FLEET_WARM_SPEEDUP = 3.0

#: The sweep: every router policy over the same trace, fleet and seeded
#: chaos -- exactly the comparison grid ``fleet_sweep_jobs`` builds.
POLICIES = ("round-robin", "least-outstanding", "least-kv", "power-of-two")
TRACE = "bursty-gpt"
FLEET = "trio-virgo"
FAULTS = "crash:0.6:400000,slow:0.5:2.5:300000"
FAULT_SEED = 11

def _sweep():
    return [
        run_fleet(TRACE, FLEET, policy=policy, faults=FAULTS,
                  fault_seed=FAULT_SEED)
        for policy in POLICIES
    ]


def test_bench_fleet_warm_sweep_speedup(benchmark):
    timing_cache().clear()  # also empties the iteration memo
    start = time.perf_counter()
    cold_results = _sweep()
    cold = time.perf_counter() - start

    benchmark.pedantic(_sweep, rounds=3, iterations=1)
    warm = min(benchmark.stats.stats.data)
    warm_results = _sweep()

    speedup = cold / warm
    print_comparison(
        "Wall clock: warm fleet chaos sweep (shared memo) vs cold",
        {
            "policies": {"measured": float(len(POLICIES))},
            "cold_sweep_ms": {"measured": cold * 1e3},
            "warm_sweep_ms": {"measured": warm * 1e3},
            "speedup": {"measured": speedup, "paper": MIN_FLEET_WARM_SPEEDUP},
        },
    )
    record_bench(
        "fleet_warm_vs_cold",
        {
            "trace": TRACE,
            "fleet": FLEET,
            "policies": list(POLICIES),
            "faults": FAULTS,
            "fault_seed": FAULT_SEED,
            "cold_sweep_ms": round(cold * 1e3, 3),
            "warm_sweep_ms": round(warm * 1e3, 3),
            "speedup": round(speedup, 2),
            "min_speedup": MIN_FLEET_WARM_SPEEDUP,
        },
    )
    # Perf without correctness is a regression: the warm sweep must be a
    # byte-exact replay of the cold one, cell by cell.
    for cold_run, warm_run in zip(cold_results, warm_results):
        assert json.dumps(cold_run.to_dict(), sort_keys=True) == \
            json.dumps(warm_run.to_dict(), sort_keys=True)
    # Every cell saw chaos and kept its disposition partition intact.
    for result in cold_results:
        assert sum(result.dispositions.values()) == len(result.requests)
        assert result.fault_events
    assert speedup >= MIN_FLEET_WARM_SPEEDUP, (
        f"warm fleet sweep speedup {speedup:.2f}x below the "
        f"{MIN_FLEET_WARM_SPEEDUP}x bar"
    )
