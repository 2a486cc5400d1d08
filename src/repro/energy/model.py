"""Per-event energy table (16 nm representative values).

Every counter the simulation produces maps to an :class:`EnergyEventSpec`:
the SoC component group it belongs to (following the paper's breakdown
figures) and an energy cost in whole femtojoules (fJ) per event.  Pricing
multiplies whole counts by whole costs, so every energy total is an exact
Python ``int`` that no addition order can change; reports convert it to
pJ, uJ or mW once, at the end.  The absolute values are
representative of a commercial 16 nm process -- they are *not* the paper's
proprietary PDK numbers -- so absolute mW/mJ differ from the paper while the
relative structure (register files and instruction processing dominating the
core-coupled designs, SRAM accesses being cheap, PEs costing similar energy
across designs) is preserved.

Counter naming convention (dotted hierarchy):

========================  =====================================================
``core.issue.*``          instruction processing + register reads
``core.alu/fpu/lsu/...``  execution units of the Vortex core
``smem.<req>.*``          shared-memory word accesses by requester
``accum.*``               Virgo's accumulator SRAM
``matrix_unit.*``         PEs, operand/result buffers, SMEM interface, control
``l1./l2./dram.``         cache and memory traffic
``dma.*``                 cluster DMA engine
``mmio./sync.``           command interface and synchronizer
========================  =====================================================
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Mapping, Tuple

from repro.config.soc import IntegrationStyle
from repro.sim.stats import Counters


@dataclass(frozen=True)
class EnergyEventSpec:
    """Energy cost, in whole femtojoules, and component attribution of one
    counter key."""

    component: str
    femtojoules: int


def _whole(key: str, count: float) -> int:
    """``count`` as an ``int``; a fractional count of events has no price."""
    whole = int(count)
    if whole != count:
        raise ValueError(f"counter {key!r} holds a fractional count {count!r}")
    return whole


#: Component groups used by the SoC-level breakdown (Figure 9).
SOC_COMPONENTS = (
    "l2",
    "l1",
    "shared_memory",
    "core",
    "accumulator",
    "matrix_unit",
    "dma_other",
)

#: Sub-groups of the Vortex core breakdown (Figure 10).
CORE_COMPONENTS = (
    "core.issue",
    "core.alu",
    "core.fpu",
    "core.lsu",
    "core.writeback",
    "core.other",
)

#: Sub-groups of the matrix-unit breakdown (Figure 11).
MATRIX_UNIT_COMPONENTS = (
    "matrix_unit.pe",
    "matrix_unit.operand_buffer",
    "matrix_unit.result_buffer",
    "matrix_unit.smem_interface",
    "matrix_unit.accumulator",
    "matrix_unit.control",
)


def _base_table() -> Dict[str, EnergyEventSpec]:
    """The default event-energy assignments shared by all designs."""
    return {
        # --- Vortex SIMT core ------------------------------------------------
        "core.issue.instructions": EnergyEventSpec("core.issue", 7000),
        "core.issue.rf_read_words": EnergyEventSpec("core.issue", 1200),
        "core.writeback.rf_write_words": EnergyEventSpec("core.writeback", 1500),
        "core.alu.ops": EnergyEventSpec("core.alu", 600),
        "core.fpu.ops": EnergyEventSpec("core.fpu", 1600),
        "core.lsu.requests": EnergyEventSpec("core.lsu", 2200),
        "core.lsu.bytes": EnergyEventSpec("core.lsu", 20),
        "core.other.ops": EnergyEventSpec("core.other", 1000),
        # --- Shared memory ----------------------------------------------------
        "smem.core.read_words": EnergyEventSpec("shared_memory", 1100),
        "smem.core.write_words": EnergyEventSpec("shared_memory", 1250),
        "smem.matrix.read_words": EnergyEventSpec("shared_memory", 1100),
        "smem.matrix.write_words": EnergyEventSpec("shared_memory", 1250),
        "smem.dma.read_words": EnergyEventSpec("shared_memory", 1100),
        "smem.dma.write_words": EnergyEventSpec("shared_memory", 1250),
        "smem.core_words": EnergyEventSpec("shared_memory", 1100),
        # --- Accumulator SRAM (Virgo) ------------------------------------------
        "accum.read_words": EnergyEventSpec("accumulator", 550),
        "accum.write_words": EnergyEventSpec("accumulator", 650),
        # --- Matrix unit internals ---------------------------------------------
        "matrix_unit.pe.macs": EnergyEventSpec("matrix_unit.pe", 750),
        "matrix_unit.pe.in_mesh_accumulations": EnergyEventSpec("matrix_unit.pe", 0),
        "matrix_unit.operand_buffer_words": EnergyEventSpec("matrix_unit.operand_buffer", 900),
        "matrix_unit.result_buffer_words": EnergyEventSpec("matrix_unit.result_buffer", 900),
        "matrix_unit.smem_interface_words": EnergyEventSpec("matrix_unit.smem_interface", 350),
        "matrix_unit.control_events": EnergyEventSpec("matrix_unit.control", 1500),
        # --- Caches and DRAM ----------------------------------------------------
        "l1.requests": EnergyEventSpec("l1", 3000),
        "l1.bytes": EnergyEventSpec("l1", 120),
        "l1.hits": EnergyEventSpec("l1", 3000),
        "l1.misses": EnergyEventSpec("l1", 6000),
        "l2.bytes": EnergyEventSpec("l2", 220),
        "l2.accesses": EnergyEventSpec("l2", 8000),
        "dram.bytes": EnergyEventSpec("dram", 0),   # off-chip: excluded from SoC power
        # --- DMA, MMIO, synchronizer -------------------------------------------
        "dma.bytes": EnergyEventSpec("dma_other", 120),
        "dma.descriptors": EnergyEventSpec("dma_other", 40_000),
        "mmio.stores": EnergyEventSpec("dma_other", 2000),
        "mmio.loads": EnergyEventSpec("dma_other", 2000),
        "mmio.commands": EnergyEventSpec("dma_other", 4000),
        "mmio.poll_cycles": EnergyEventSpec("dma_other", 0),
        "sync.barrier_requests": EnergyEventSpec("dma_other", 3000),
        "sync.barriers_released": EnergyEventSpec("dma_other", 3000),
        "sync.stall_cycles": EnergyEventSpec("dma_other", 0),
        # Bookkeeping counters that must not be double charged.
        "smem.total_words": EnergyEventSpec("shared_memory", 0),
        "l1.accesses": EnergyEventSpec("l1", 0),
    }


class EnergyTable:
    """Maps simulation counters to energy, with per-design PE adjustments."""

    def __init__(self, overrides: Mapping[str, EnergyEventSpec] | None = None) -> None:
        self._table = _base_table()
        if overrides:
            self._table.update(overrides)

    @classmethod
    @lru_cache(maxsize=None)
    def for_design(cls, style: IntegrationStyle) -> "EnergyTable":
        """Energy table adjusted for the matrix unit flavour of ``style``.

        The systolic array uses fused multiply-add PEs which are slightly
        more energy efficient than the tensor core's separate multiplier and
        adder trees (Section 6.1.2, Figure 11); its operand staging happens in
        the mesh's edge registers rather than per-core operand buffers.

        Returns one shared table per style, built on first use; a table
        never changes after construction.
        """
        if style is IntegrationStyle.DISAGGREGATED:
            overrides = {
                "matrix_unit.pe.macs": EnergyEventSpec("matrix_unit.pe", 680),
            }
            return cls(overrides)
        return cls()

    def with_prices(self, overrides: Mapping[str, EnergyEventSpec]) -> "EnergyTable":
        """A copy of this table with ``overrides`` replacing its entries."""
        return EnergyTable({**self._table, **overrides})

    def energy_femtojoules(self, counters: Counters) -> int:
        """Total active energy of all counted events, in femtojoules."""
        return sum(self.energy_by_component(counters).values())

    def energy_by_component(self, counters: Counters) -> Dict[str, int]:
        """Energy per component group in femtojoules, components in
        first-seen key order.

        Raises ``ValueError`` naming the key when a priced count is not whole.
        """
        totals: Dict[str, int] = {}
        for key, value in counters.items():
            spec = self._table.get(key)
            if spec is not None:
                totals[spec.component] = (
                    totals.get(spec.component, 0) + spec.femtojoules * _whole(key, value)
                )
        return totals

    def unknown_counters(self, counters: Counters) -> Tuple[str, ...]:
        """Counter keys with no energy assignment (should be empty in tests)."""
        return tuple(sorted(key for key in counters if key not in self._table))
