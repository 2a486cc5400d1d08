"""Shared differential-testing helpers.

The repo's exactness claims -- steady-state GEMM/flash compression, the
serving iteration memo, epoch-level serving compression and compiled step
programs -- are all the same statement: two execution paths must produce
*byte-identical* canonical encodings, not merely approximately equal
numbers.  This module is the one place that statement is implemented, so
every differential suite (``test_schedule_compression``,
``test_flash_compression``, ``test_serving_memo``, ``test_faults``,
``test_epochs``, ``test_step_programs``) fails with the same, pinpointed
diagnostics.
"""

import json
from typing import Iterable, Sequence, Tuple

from repro.workloads.lowering import execute_schedule, merge_schedules
from repro.workloads.serving import _IterationOutcome


def canonical_bytes(payload, ignore_paths: Sequence[str] = ()) -> str:
    """The canonical JSON encoding compared by :func:`assert_byte_identical`.

    ``payload`` may be a dict or anything with a ``to_dict()``.
    ``ignore_paths`` names dotted paths (e.g. ``("perf.epochs",)``) pruned
    before encoding -- for diagnostics that legitimately differ between the
    two paths under comparison.  A missing path is fine: the pruning is a
    no-op there, so one ignore list can serve several payload shapes.
    """
    if hasattr(payload, "to_dict"):
        payload = payload.to_dict()
    if ignore_paths:
        payload = _without_paths(payload, ignore_paths)
    return json.dumps(payload, sort_keys=True)


def assert_byte_identical(
    left,
    right,
    *,
    ignore_paths: Sequence[str] = (),
    context: str = "",
) -> None:
    """Assert two payloads encode to byte-identical canonical JSON.

    On mismatch, the error names the first diverging byte offset and shows
    a window of both encodings around it -- a 100k-character encoding diff
    is useless without that.
    """
    a = canonical_bytes(left, ignore_paths)
    b = canonical_bytes(right, ignore_paths)
    if a == b:
        return
    offset, left_window, right_window = first_divergence(a, b)
    prefix = f"{context}: " if context else ""
    raise AssertionError(
        f"{prefix}encodings diverge at byte {offset} "
        f"(lengths {len(a)} vs {len(b)}):\n"
        f"  left : ...{left_window}...\n"
        f"  right: ...{right_window}..."
    )


def _without_paths(payload: dict, paths: Iterable[str]) -> dict:
    pruned = dict(payload)
    for path in paths:
        head, _, rest = path.partition(".")
        if head not in pruned:
            continue
        if rest:
            child = pruned[head]
            if isinstance(child, dict):
                pruned[head] = _without_paths(child, (rest,))
        else:
            del pruned[head]
    return pruned


def first_divergence(a: str, b: str) -> Tuple[int, str, str]:
    """(offset, left window, right window) of the first differing byte."""
    offset = next(
        (i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b))
    )
    lo, hi = max(0, offset - 60), offset + 60
    return offset, a[lo:hi], b[lo:hi]


def merged_iteration(
    scheduler, trace, active, contexts, units, label, duration_scale=1.0
) -> _IterationOutcome:
    """One serving iteration on the reference path: merge the rows' step
    schedules, execute the merged schedule, read each row's end off its
    prefixed layers.

    Signature-compatible with ``ServingScheduler._execute_iteration``, so a
    test can call it directly or monkeypatch it in to run whole serving and
    fleet runs on the reference path.
    """
    entries = [
        (state.prefix, scheduler.step_schedule(state.request, context, unit))
        for state, context, unit in zip(active, contexts, units)
    ]
    result = execute_schedule(
        merge_schedules(entries, model=label), duration_scale=duration_scale
    )
    ends = {}
    for layer in result.layers:
        prefix = layer.layer.split("/", 1)[0] + "/"
        ends[prefix] = max(ends.get(prefix, -1), layer.end)
    return _IterationOutcome(
        span_cycles=result.total_cycles,
        entry_end_cycles=tuple(ends[state.prefix] for state in active),
        kernel_count=result.kernel_count,
        energy_uj=result.active_energy_uj,
        resource_busy=tuple(sorted(result.resource_busy.items())),
        cache_hits=result.timing_cache["hits"],
        cache_misses=result.timing_cache["misses"],
    )
