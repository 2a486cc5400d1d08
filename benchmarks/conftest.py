"""Shared helpers for the benchmark harness.

Every benchmark module regenerates one table or figure of the paper: it runs
the relevant kernels through ``pytest-benchmark`` (so regeneration time is
tracked) and prints the regenerated rows next to the values the paper
reports, which is the data EXPERIMENTS.md records.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Mapping

# Wall-clock determinism: pin every BLAS/OpenMP worker pool to one thread
# before numpy's backends spin up.  The benchmarks in this directory assert
# on elapsed time; oversubscribed thread pools are the main source of
# run-to-run variance on shared CI runners, and none of the measured code
# paths benefit from BLAS parallelism (the arrays are tiny or memory-bound).
for _pool in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ.setdefault(_pool, "1")


#: Where the wall-clock benchmarks record their measured ratios.  The file
#: is gitignored: a benchmark run never dirties the tree, and CI uploads it
#: as a build artifact.  ``BENCHMARK.json`` (``perfbench/``) is the
#: reviewable performance record.
BENCH_RECORD = Path(__file__).resolve().parent.parent / ".benchmarks" / "BENCH_serving_perf.json"


def record_bench(section: str, values: Mapping[str, object]) -> None:
    """Merge one benchmark's measurements into :data:`BENCH_RECORD`."""
    record = {}
    try:
        record = json.loads(BENCH_RECORD.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        pass
    record[section] = values
    BENCH_RECORD.parent.mkdir(parents=True, exist_ok=True)
    BENCH_RECORD.write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def print_comparison(title: str, rows: Mapping[str, Mapping[str, float]]) -> None:
    """Print measured-vs-paper rows for one experiment."""
    print(f"\n=== {title} ===")
    width = max((len(name) for name in rows), default=10)
    for name, values in rows.items():
        measured = values.get("measured")
        paper = values.get("paper")
        if paper is None:
            print(f"  {name:<{width}}  measured={measured:.2f}")
        else:
            print(f"  {name:<{width}}  measured={measured:8.2f}   paper={paper:8.2f}")


def print_series(title: str, series: Mapping[str, Mapping[str, float]]) -> None:
    """Print a per-design breakdown series (figure-style data)."""
    print(f"\n=== {title} ===")
    for design, parts in series.items():
        formatted = ", ".join(f"{key}={value:.2f}" for key, value in parts.items())
        print(f"  {design}: {formatted}")
