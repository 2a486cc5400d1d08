"""Python reproduction of Virgo: cluster-level matrix unit integration in GPUs.

The package models four GPU cluster designs that differ in how their matrix
unit is integrated (Volta-style, Ampere-style, Hopper-style, and Virgo's
cluster-level disaggregated unit), together with the substrates they run on:
a Vortex-like SIMT core, a banked shared memory, DRAM, a DMA engine, and an
event-based energy/power/area model.

Typical entry points:

    from repro import run_gemm, DesignKind
    result = run_gemm(DesignKind.VIRGO, 512)
    print(result.mac_utilization, result.active_power_mw)
"""

from repro.config.presets import (
    DesignKind,
    make_design,
    volta_style,
    ampere_style,
    hopper_style,
    virgo,
)
from repro.runner import (
    GemmRunResult,
    FlashAttentionRunResult,
    run_gemm,
    run_flash_attention,
    run_all_gemm_designs,
)

__version__ = "1.0.0"

from repro.workloads import (
    ModelRunResult,
    ModelSpec,
    RequestSpec,
    ServingRunResult,
    ServingTrace,
    run_batch,
    run_model,
    run_serving,
)

__all__ = [
    "ModelRunResult",
    "ModelSpec",
    "RequestSpec",
    "ServingRunResult",
    "ServingTrace",
    "run_batch",
    "run_model",
    "run_serving",
    "DesignKind",
    "make_design",
    "volta_style",
    "ampere_style",
    "hopper_style",
    "virgo",
    "GemmRunResult",
    "FlashAttentionRunResult",
    "run_gemm",
    "run_flash_attention",
    "run_all_gemm_designs",
    "__version__",
]
