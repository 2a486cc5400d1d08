"""FlashAttention-3 kernel: functional algorithm plus Virgo/Ampere mappings.

The paper (Section 4.5, 6.2) maps the fused attention forward pass onto Virgo
by running the two GEMMs (S = Q K^T and O += P V) on the cluster matrix unit
while the SIMT cores compute the online softmax concurrently, synchronized
with fences and cluster-wide barriers and double-buffered in shared memory.
The Ampere-style baseline uses warp specialization with ping-pong scheduling:
GEMM and softmax alternate across two warp groups, competing for the same
issue slots and register file.

Because the Vortex core has no exponential unit, the paper substitutes a
2nd-order Taylor approximation for ``exp``; the functional model reproduces
that (and its accuracy impact) as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.config.soc import DataType, DesignConfig, IntegrationStyle
from repro.config.presets import DesignKind, make_design
from repro.core.gemmini import GemminiMatrixUnit
from repro.isa.instructions import OpClass
from repro.isa.program import WarpProgram
from repro.kernels.gemm.base import KernelResult, memoized_iteration
from repro.kernels.gemm.instruction_streams import _fragment_loads
from repro.kernels.gemm.kernel import KernelModel, tile_op_events
from repro.kernels.gemm.schedule_loops import (
    FlashLoopSpec,
    FlashPipe,
    FlashSegment,
    execute_flash_loop,
)
from repro.kernels.masking import (
    masked_elements,
    masked_elements_varlen,
    tile_trips,
    tile_trips_varlen,
    trip_segments,
)
from repro.sim.stats import Counters
from repro.simt.core import SIMT_OVERHEAD_RATIO, sweep_cost
from repro.tensorcore.volta import VoltaTensorCore


# --------------------------------------------------------------------------- #
# Functional algorithm
# --------------------------------------------------------------------------- #


def taylor_exp(x: np.ndarray, order: int = 2) -> np.ndarray:
    """2nd-order Taylor approximation of exp used on the SIMT cores.

    ``exp(x) ~= 1 + x + x^2/2`` for the (negative, post-max-subtraction)
    arguments the online softmax produces, clamped at zero to stay a valid
    (non-negative) probability weight.
    """
    result = np.ones_like(x)
    term = np.ones_like(x)
    for i in range(1, order + 1):
        term = term * x / i
        result = result + term
    return np.maximum(result, 0.0)


def attention_reference(
    q: np.ndarray, k: np.ndarray, v: np.ndarray, scale: float | None = None
) -> np.ndarray:
    """Exact (softmax) attention reference."""
    if scale is None:
        scale = 1.0 / np.sqrt(q.shape[-1])
    scores = (q @ k.T) * scale
    scores = scores - scores.max(axis=-1, keepdims=True)
    weights = np.exp(scores)
    weights = weights / weights.sum(axis=-1, keepdims=True)
    return weights @ v


def flash_attention_reference(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    block_q: int = 64,
    block_kv: int = 64,
    scale: float | None = None,
    use_taylor_exp: bool = False,
) -> np.ndarray:
    """Blocked online-softmax attention (the FlashAttention recurrence).

    Processes KV tiles one at a time, maintaining per-row running max,
    normalizer and un-normalized output -- the same loop structure the Virgo
    kernel executes, so it doubles as the functional model of the mapping.
    """
    if q.ndim != 2 or k.ndim != 2 or v.ndim != 2:
        raise ValueError("q, k, v must be 2-D (sequence x head_dim)")
    if k.shape != v.shape or q.shape[1] != k.shape[1]:
        raise ValueError("q, k, v head dimensions must agree")
    if scale is None:
        scale = 1.0 / np.sqrt(q.shape[-1])
    exp_fn = taylor_exp if use_taylor_exp else np.exp

    seq_q, head_dim = q.shape
    seq_kv = k.shape[0]
    output = np.zeros((seq_q, head_dim), dtype=np.float32)

    for q_start in range(0, seq_q, block_q):
        q_tile = q[q_start : q_start + block_q].astype(np.float32)
        rows = q_tile.shape[0]
        running_max = np.full((rows, 1), -np.inf, dtype=np.float32)
        normalizer = np.zeros((rows, 1), dtype=np.float32)
        accumulator = np.zeros((rows, head_dim), dtype=np.float32)

        for kv_start in range(0, seq_kv, block_kv):
            k_tile = k[kv_start : kv_start + block_kv].astype(np.float32)
            v_tile = v[kv_start : kv_start + block_kv].astype(np.float32)

            scores = (q_tile @ k_tile.T) * scale                     # GEMM-1
            tile_max = scores.max(axis=-1, keepdims=True)
            new_max = np.maximum(running_max, tile_max)
            # Clamp the (non-positive) rescale argument so the first tile's
            # -inf running max does not propagate NaNs through the exp.
            correction = exp_fn(np.maximum(running_max - new_max, np.float32(-80.0)))
            probs = exp_fn(scores - new_max)                          # softmax
            normalizer = normalizer * correction + probs.sum(axis=-1, keepdims=True)
            accumulator = accumulator * correction + probs @ v_tile   # GEMM-2
            running_max = new_max

        output[q_start : q_start + block_q] = accumulator / normalizer
    return output


# --------------------------------------------------------------------------- #
# Workload and result types
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class FlashAttentionWorkload:
    """Forward-pass attention problem (paper: seq 1024, head dim 64, 1 head).

    The mask fields describe the shapes a serving mix actually contains:
    ``causal`` turns on the triangular mask; ``kv_len > seq_len`` is causal
    prefill over prior KV context (chunked prefill -- the current chunk is
    the tail of the context); ``window`` keeps only the last ``window``
    allowed keys per query (sliding-window attention); ``seq_lens`` packs a
    ragged batch into one kernel call (varlen: each sequence attends only
    to itself, block-diagonal causal).  Work accounting is *exact*: score
    elements come from the integer mask arithmetic in
    :mod:`repro.kernels.masking`, and the tile loop visits only the KV
    tiles the mask leaves non-empty (a visited tile costs full tile work --
    tile-granular skipping, as production flash kernels implement).
    """

    seq_len: int = 1024
    head_dim: int = 64
    heads: int = 1
    block_q: int = 64
    block_kv: int = 64
    causal: bool = False
    kv_len: int = 0  # 0 = seq_len; larger = causal prefill over prior context
    window: int = 0  # sliding-window width; 0 = unwindowed
    seq_lens: Tuple[int, ...] = ()  # varlen packed batch; sum == seq_len

    def __post_init__(self) -> None:
        if self.seq_len <= 0 or self.head_dim <= 0 or self.heads <= 0:
            raise ValueError("flash workload dimensions must be positive")
        if self.block_q <= 0 or self.block_kv <= 0:
            raise ValueError("flash tile sizes must be positive")
        if (self.window or self.seq_lens or self.kv_len) and not self.causal:
            raise ValueError(
                "window / kv_len / seq_lens describe causal masks; set causal=True"
            )
        if self.kv_len and self.kv_len < self.seq_len:
            raise ValueError(
                f"kv_len ({self.kv_len}) must be >= seq_len ({self.seq_len})"
            )
        if self.seq_lens:
            if self.kv_len:
                raise ValueError("varlen batches carry no prior context (kv_len)")
            if any(length <= 0 for length in self.seq_lens):
                raise ValueError(f"seq_lens must be positive, got {self.seq_lens}")
            if sum(self.seq_lens) != self.seq_len:
                raise ValueError(
                    f"seq_lens {self.seq_lens} must sum to seq_len {self.seq_len}"
                )

    @property
    def kv_length(self) -> int:
        return self.kv_len or self.seq_len

    @property
    def score_elements(self) -> int:
        """Surviving score elements per head -- the exact mask count."""
        if not self.causal:
            return self.seq_len * self.kv_length
        if self.seq_lens:
            return masked_elements_varlen(self.seq_lens, self.window)
        return masked_elements(self.seq_len, self.kv_length, self.window)

    @property
    def gemm_macs(self) -> int:
        """MACs of the two GEMMs (S = QK^T and O = PV) across all heads."""
        return 2 * self.heads * self.score_elements * self.head_dim

    def head_trips(self) -> "list[int]":
        """Visited-KV-tile count per Q tile of one head."""
        if self.seq_lens:
            return tile_trips_varlen(self.seq_lens, self.block_q, self.block_kv,
                                     self.window)
        if self.causal:
            return tile_trips(self.seq_len, self.kv_length, self.block_q,
                              self.block_kv, self.window)
        q_tiles = -(-self.seq_len // self.block_q)
        kv_tiles = -(-self.kv_length // self.block_kv)
        return [kv_tiles] * q_tiles

    def flash_segments(self) -> Tuple[FlashSegment, ...]:
        """Run-length-encoded per-head trip profile for the tile loop.

        Empty for unmasked workloads: the spec then takes the historical
        uniform-loop path, which keeps every existing unmasked schedule
        (and golden file) byte-identical.
        """
        if not self.causal:
            return ()
        return tuple(
            FlashSegment(q_tiles=q_tiles, kv_trips=trips)
            for q_tiles, trips in trip_segments(self.head_trips())
        )

    @property
    def iterations(self) -> int:
        """(Q tile, KV tile) loop iterations the kernel actually executes."""
        return self.heads * sum(self.head_trips())


@dataclass
class FlashAttentionResult(KernelResult):
    """Outcome of simulating FlashAttention-3 on one design."""

    fence_poll_cycles_avg: float = 0.0

    @property
    def fence_overhead_fraction(self) -> float:
        """Fraction of runtime spent polling in virgo_fence (Section 4.5.1)."""
        if self.total_cycles <= 0:
            return 0.0
        return self.fence_poll_cycles_avg * self.workload.iterations / self.total_cycles


# --------------------------------------------------------------------------- #
# Softmax work (shared by both mappings)
# --------------------------------------------------------------------------- #

#: FP operations per score element for the online softmax with Taylor exp:
#: row-max reduction, subtract, 2nd-order exp (2 mul + 2 add), running-sum
#: reduction, probability write, running-max correction and the O-tile
#: rescale that consumes one multiply-add per score element.
SOFTMAX_FLOPS_PER_ELEMENT = 20


# --------------------------------------------------------------------------- #
# The tile loop (shared by both mappings)
# --------------------------------------------------------------------------- #


def _kv_tile_bytes(block_kv: int, head_dim: int) -> int:
    """Bytes of one FP32 K tile and one V tile."""
    return 2 * block_kv * head_dim * 4


def _kv_tile_events(counters: Counters, block_kv: int, head_dim: int) -> None:
    """Count the DMA of the next K and V tiles from DRAM into shared memory."""
    nbytes = _kv_tile_bytes(block_kv, head_dim)
    counters.add("dma.bytes", nbytes)
    counters.add("dma.descriptors", 2)
    counters.add("l2.bytes", nbytes)
    counters.add("dram.bytes", nbytes)
    counters.add("smem.dma.write_words", nbytes // 4)


class FlashKernel(KernelModel):
    """The fused (Q tile, KV tile) loop both mappings run.

    A mapping supplies ``_iteration(block_q, block_kv, head_dim)``, the
    cycles of its pipes and the event counters of one KV-tile iteration as
    plain data, and ``_loop_wiring``, its pipes and synchronization.
    :meth:`simulate` runs the rest once for both: the memoized iteration,
    the next KV tile's DMA pipe, the first Q/K/V loads, the trip profile
    repeated per head, and the counters scaled by the iterations.
    """

    #: Average cycles the leader warp spends polling a fence per iteration.
    FENCE_POLL_CYCLES = 0

    def simulate(
        self, workload: FlashAttentionWorkload, full_expansion: bool = False
    ) -> FlashAttentionResult:
        bq, bkv, d = workload.block_q, workload.block_kv, workload.head_dim
        *cycles, per_iteration = memoized_iteration(
            self.MODEL, self.design, (bq, bkv, d), lambda: self._iteration(bq, bkv, d)
        )

        # Software pipeline: per iteration the mapping's pipes and the next
        # KV tile's DMA run concurrently and re-synchronize, so each
        # iteration is paced by its slowest pipe plus the sync cost.  Masked
        # workloads visit only the KV tiles their trip profile keeps.  The
        # loop is scheduled through the steady-state engine (O(#segments),
        # independent of ``heads x q_tiles x kv_tiles``) unless
        # ``full_expansion`` asks for the materialized graph.
        wiring = self._loop_wiring(workload, *cycles)
        wiring["pipes"] += (
            FlashPipe(
                kind="dma", resource="dma", cycles=self.dma.transfer_cycles(_kv_tile_bytes(bkv, d))
            ),
        )
        spec = FlashLoopSpec(
            iterations=workload.iterations,
            # The first Q, K and V tiles' loads.
            prologue_cycles=self.dma.transfer_cycles(3 * bq * d * 4),
            trip_profile=workload.flash_segments(),
            profile_repeats=workload.heads if workload.causal else 1,
            **wiring,
        )
        schedule = execute_flash_loop(spec, full_expansion=full_expansion)

        ideal = workload.gemm_macs / float(self.design.cluster.total_macs_per_cycle)
        return FlashAttentionResult(
            design=self.design,
            workload=workload,
            total_cycles=schedule.total_cycles,
            ideal_mac_cycles=ideal,
            counters=per_iteration.scaled(workload.iterations),
            fence_poll_cycles_avg=self.FENCE_POLL_CYCLES,
            phase_cycles=dict(schedule.kind_cycles),
            schedule_stats=schedule.stats(),
        )


# --------------------------------------------------------------------------- #
# Virgo mapping (Listing 1)
# --------------------------------------------------------------------------- #


class VirgoFlashAttentionKernel(FlashKernel):
    """FlashAttention-3 mapped onto Virgo (GEMMs on the matrix unit, softmax on SIMT)."""

    STYLES = (IntegrationStyle.DISAGGREGATED,)
    MODEL = "flash.virgo"

    #: The paper measures ~260 cycles of fence polling per iteration (2.4% of
    #: runtime).
    FENCE_POLL_CYCLES = 260
    BARRIER_CYCLES = 24

    def __init__(self, design: DesignConfig) -> None:
        super().__init__(design)
        self.matrix_unit = GemminiMatrixUnit(design.matrix_unit, design.cluster.shared_memory)

    def _iteration(self, bq: int, bkv: int, d: int):
        """Matrix-unit cycles, softmax cycles and event counters of one iteration.

        Reads only the design and the three tile dims, the key
        :meth:`simulate` memoizes it by.
        """
        gemm1 = self.matrix_unit.operation_timing(bq, bkv, d)      # S = Q K^T
        gemm2 = self.matrix_unit.operation_timing(bq, d, bkv)      # O += P V
        # The softmax reads S and the running statistics and writes P and
        # the rescaled O: three shared-memory words in and two out per score.
        softmax_cycles, softmax = sweep_cost(
            self.design, bq * bkv, SOFTMAX_FLOPS_PER_ELEMENT, 3, 2
        )

        counters = Counters()
        counters.add("matrix_unit.pe.macs", bq * bkv * d + bq * d * bkv)
        operand_words = (
            self.matrix_unit.smem_read_bytes(bq, bkv, d)
            + self.matrix_unit.smem_read_bytes(bq, d, bkv)
        ) // 4
        counters.add("smem.matrix.read_words", operand_words)
        counters.add("matrix_unit.smem_interface_words", operand_words)
        counters.add("matrix_unit.control_events", 2)
        counters.add("accum.write_words", bq * (bkv + d))
        counters.add("accum.read_words", bq * d)
        counters.add("mmio.stores", 12)
        counters.add("mmio.commands", 2)
        counters.add("mmio.loads", self.FENCE_POLL_CYCLES // 10)
        counters.add("core.issue.instructions", 40)
        _kv_tile_events(counters, bkv, d)
        counters.add("sync.barrier_requests", self.design.cluster.cores)
        counters.add("sync.barriers_released", 1)
        counters.merge(softmax)
        return gemm1.total_cycles + gemm2.total_cycles, softmax_cycles, counters

    def _loop_wiring(
        self, workload: FlashAttentionWorkload, matrix_cycles: int, softmax_cycles: int
    ):
        """The matrix unit and the SIMT softmax run beside the DMA and meet at
        the fence and cluster barrier; after the loop, each Q tile's O tile
        is stored on the DMA.
        """
        bq, d = workload.block_q, workload.head_dim
        return dict(
            pipes=(
                FlashPipe(kind="matrix", resource="matrix", cycles=matrix_cycles),
                FlashPipe(kind="softmax", resource="simt", cycles=softmax_cycles),
            ),
            sync_cycles=self.FENCE_POLL_CYCLES + self.BARRIER_CYCLES,
            epilogue_cycles=self.dma.transfer_cycles(bq * d * 4),
            epilogue_count=workload.seq_len // bq,
        )


# --------------------------------------------------------------------------- #
# Ampere-style mapping (warp-specialized ping-pong scheduling)
# --------------------------------------------------------------------------- #


class AmpereFlashAttentionKernel(FlashKernel):
    """FlashAttention-3 on the tightly-coupled Ampere-style baseline.

    The 8 warps of each core split into two groups of four; one group issues
    the synchronous HMMA sequences of the two GEMMs while the other runs the
    softmax, alternating every KV tile (ping-pong).  Both groups share the
    core's single issue port, register file and tensor core, which is why the
    achieved MAC utilization is far lower than Virgo's.
    """

    STYLES = (IntegrationStyle.TIGHTLY_COUPLED_DMA,)
    MODEL = "flash.ampere"

    BARRIER_CYCLES = 24

    def __init__(self, design: DesignConfig) -> None:
        super().__init__(design)
        self.tensor_core = VoltaTensorCore(design.matrix_unit)

    def _iteration(self, bq: int, bkv: int, d: int):
        """Core cycles and event counters of one KV-tile iteration.

        Reads only the design and the three tile dims, the key
        :meth:`simulate` memoizes it by: every sequence length and mask
        runs the same iteration.
        """
        programs, tile_ops_per_core = self._iteration_programs(bq, bkv, d)
        execution = self.core.execute(programs)
        counters = tile_op_events(
            self.design, self.tensor_core, execution.counters, tile_ops_per_core
        )
        _kv_tile_events(counters, bkv, d)
        return execution.cycles, counters

    def _iteration_programs(self, bq: int, bkv: int, d: int):
        """Warp programs of one core for one KV-tile iteration."""
        design = self.design
        cluster = design.cluster
        unit = design.matrix_unit
        lanes = cluster.core.lanes

        gemm_macs = bq * bkv * d + bq * d * bkv
        tile_ops_total = gemm_macs // unit.tile_macs
        gemm_warps = cluster.core.warps // 2
        tile_ops_per_warp = max(
            1, tile_ops_total // (cluster.cores * gemm_warps)
        )

        sequence = self.tensor_core.hmma_sequence()
        gemm_program = WarpProgram(name="fa_gemm_warp")
        for _ in range(tile_ops_per_warp):
            gemm_program.emit_class(OpClass.ALU, repeat=4)
            _fragment_loads(gemm_program, unit, lanes)
            for instruction in sequence.as_instructions():
                gemm_program.emit(instruction)
            gemm_program.emit_class(OpClass.ALU, repeat=2)
            gemm_program.emit_class(OpClass.BRANCH, repeat=1)
        gemm_program.emit_class(OpClass.VX_BAR, repeat=1)

        softmax_elements = bq * bkv
        softmax_warps = cluster.core.warps - gemm_warps
        flops_per_warp = softmax_elements * SOFTMAX_FLOPS_PER_ELEMENT / (
            cluster.cores * softmax_warps
        )
        softmax_program = WarpProgram(name="fa_softmax_warp")
        fpu_instructions = max(1, int(flops_per_warp / lanes))
        for index in range(fpu_instructions):
            softmax_program.emit_class(OpClass.FPU, reg_reads=2, reg_writes=1)
            # Interleaved loads/addressing/loop control of the softmax loop.
            if index % max(1, int(1.0 / max(SIMT_OVERHEAD_RATIO, 0.01))) == 0:
                softmax_program.emit_class(OpClass.ALU, reg_reads=2, reg_writes=1)
        # Score tile loads/stores between shared memory and registers.
        softmax_program.emit_class(
            OpClass.LOAD_SHARED,
            repeat=max(1, softmax_elements // (cluster.cores * softmax_warps * lanes)),
            bytes_accessed=4 * lanes,
        )
        softmax_program.emit_class(
            OpClass.STORE_SHARED,
            repeat=max(1, softmax_elements // (cluster.cores * softmax_warps * lanes)),
            bytes_accessed=4 * lanes,
        )
        softmax_program.emit_class(OpClass.VX_BAR, repeat=1)

        programs = [gemm_program] * gemm_warps + [softmax_program] * softmax_warps
        leader = WarpProgram(name="fa_leader")
        leader.emit_class(OpClass.DMA_PROGRAM, repeat=4)
        programs[0] = WarpProgram(name="fa_gemm_leader").extend(gemm_program).extend(leader)
        return programs, tile_ops_per_warp * gemm_warps

    def _loop_wiring(self, workload: FlashAttentionWorkload, core_cycles: int):
        """Ping-pong: the warp-specialized core phase (GEMM and softmax
        groups, closed by the core barrier) overlaps only with the DMA of
        the next KV tile; the slower of the two paces the loop.
        """
        return dict(
            pipes=(
                FlashPipe(kind="core", resource="core", cycles=core_cycles + self.BARRIER_CYCLES),
            )
        )


# --------------------------------------------------------------------------- #
# Dispatcher
# --------------------------------------------------------------------------- #


def simulate_flash_attention(
    design: DesignKind | DesignConfig,
    workload: FlashAttentionWorkload | None = None,
    full_expansion: bool = False,
) -> FlashAttentionResult:
    """Simulate FlashAttention-3 on Virgo or the Ampere-style baseline.

    ``full_expansion=True`` materializes the whole (Q tile, KV tile) loop on
    the taskgraph scheduler instead of the steady-state-compressed default;
    both paths are bit-identical (``tests/test_flash_compression.py``).
    """
    workload = workload or FlashAttentionWorkload()
    if isinstance(design, DesignKind):
        design = make_design(design, DataType.FP32)
    for mapping in (VirgoFlashAttentionKernel, AmpereFlashAttentionKernel):
        if design.style in mapping.STYLES:
            return mapping(design).simulate(workload, full_expansion)
    raise ValueError(
        "the paper evaluates FlashAttention-3 on the Virgo and Ampere-style designs only"
    )
