"""``analysis.model_breakdown`` against the oracle executor.

The breakdown's busy cycles by kernel kind must be exact: each kind's
kernel durations summed, as the oracle (``differential.oracle_run_model``)
places them.  They must also agree with the ``schedule.kind_cycles.*``
metrics the same result reports.
"""

import pytest

from differential import oracle_run_model
from repro.analysis.model_breakdown import model_breakdown_report, model_kind_cycles
from repro.config.presets import gemm_design_kinds, make_design
from repro.config.soc import DataType
from repro.obs import TraceRecorder, tracing
from repro.obs.trace import UNITS_PROCESS
from repro.workloads import model_names, run_model


def _oracle_kind_sums(name, config):
    """Per-kind sums of the oracle's kernel spans."""
    recorder = TraceRecorder(capture_phases=False)
    with tracing(recorder):
        oracle_run_model(name, config)
    sums = {}
    for span in recorder.spans:
        assert span.process == UNITS_PROCESS
        sums[span.category] = sums.get(span.category, 0) + span.duration
    return sums


@pytest.mark.parametrize("kind", gemm_design_kinds(), ids=lambda kind: kind.value)
def test_kind_cycles_are_the_oracle_per_kernel_sums(kind):
    config = make_design(kind, DataType.FP16)
    for name in model_names():
        expected = _oracle_kind_sums(name, config)
        result = run_model(name, config)
        kinds = model_kind_cycles(result)
        assert kinds == expected, name
        assert sum(kinds.values()) == sum(layer.cycles for layer in result.layers), name
        report = model_breakdown_report(result)
        metrics = report["metrics"]
        assert report["kind_busy_cycles"] == {
            key[len("schedule.kind_cycles."):]: value
            for key, value in metrics.items()
            if key.startswith("schedule.kind_cycles.")
        }, name
        # Neither the report nor the result shares its dict with the memo.
        kinds.clear()
        result.kind_cycles["gemm"] = -1
        assert model_kind_cycles(run_model(name, config)) == expected, name
