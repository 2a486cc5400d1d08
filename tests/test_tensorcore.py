"""Tests for the core-coupled tensor core models (Volta/Ampere and Hopper styles)."""

import numpy as np
import pytest

from repro.config.soc import DataType
from repro.isa.instructions import OpClass
from repro.sim.stats import Counters
from repro.tensorcore.dot_product_unit import DotProductUnit
from repro.tensorcore.fragments import MatrixFragment, load_fragment
from repro.tensorcore.hopper import SMEM_FILL_LATENCY, HopperTensorCore
from repro.tensorcore.volta import VoltaTensorCore


class TestFragments:
    def test_fragment_shape_and_bytes(self, rng):
        data = rng.standard_normal((8, 16))
        fragment = MatrixFragment(data=data, dtype=DataType.FP16)
        assert fragment.rows == 8 and fragment.cols == 16
        assert fragment.bytes == 8 * 16 * 2

    def test_load_fragment_extracts_correct_slice(self, rng):
        matrix = rng.standard_normal((32, 32)).astype(np.float32)
        fragment = load_fragment(matrix, 8, 16, 8, 8, DataType.FP32)
        np.testing.assert_allclose(fragment.data, matrix[8:16, 16:24])

    def test_load_fragment_out_of_bounds(self, rng):
        matrix = rng.standard_normal((16, 16))
        with pytest.raises(IndexError):
            load_fragment(matrix, 12, 0, 8, 8)

    def test_non_2d_rejected(self):
        with pytest.raises(ValueError):
            MatrixFragment(data=np.zeros(8))


class TestDotProductUnit:
    def test_functional_correctness(self, rng):
        dpu = DotProductUnit(macs_per_cycle=32, dtype=DataType.FP32)
        a = rng.standard_normal((8, 16)).astype(np.float32)
        b = rng.standard_normal((16, 8)).astype(np.float32)
        c = rng.standard_normal((8, 8)).astype(np.float32)
        result = dpu.multiply_accumulate(a, b, c)
        np.testing.assert_allclose(result, a @ b + c, rtol=1e-5)

    def test_fp16_quantization_applied(self, rng):
        dpu = DotProductUnit(macs_per_cycle=32, dtype=DataType.FP16)
        a = rng.standard_normal((8, 16)).astype(np.float32)
        b = rng.standard_normal((16, 8)).astype(np.float32)
        c = np.zeros((8, 8), dtype=np.float32)
        result = dpu.multiply_accumulate(a, b, c)
        expected = a.astype(np.float16).astype(np.float32) @ b.astype(np.float16).astype(np.float32)
        np.testing.assert_allclose(result, expected, rtol=1e-6)

    def test_shape_mismatch_rejected(self, rng):
        dpu = DotProductUnit(macs_per_cycle=32)
        with pytest.raises(ValueError):
            dpu.multiply_accumulate(np.zeros((8, 4)), np.zeros((8, 4)), np.zeros((8, 4)))

    def test_cycles_for_tile(self):
        dpu = DotProductUnit(macs_per_cycle=32)
        assert dpu.cycles_for_tile(8, 8, 16) == 32

    def test_mac_counting(self, rng):
        dpu = DotProductUnit(macs_per_cycle=32)
        counters = Counters()
        dpu.multiply_accumulate(
            np.zeros((8, 16)), np.zeros((16, 8)), np.zeros((8, 8)), counters
        )
        assert counters["matrix_unit.pe.macs"] == 1024
        assert dpu.total_macs == 1024


class TestVoltaTensorCore:
    def _unit(self, volta_design):
        return VoltaTensorCore(volta_design.matrix_unit)

    def test_mma_correctness(self, volta_design, rng):
        unit = self._unit(volta_design)
        a = load_fragment(rng.standard_normal((8, 16)), 0, 0, 8, 16)
        b = load_fragment(rng.standard_normal((16, 8)), 0, 0, 16, 8)
        c = np.zeros((8, 8), dtype=np.float32)
        result = unit.mma(a, b, c)
        expected = a.as_float32() @ b.as_float32()
        np.testing.assert_allclose(result, expected, rtol=1e-3, atol=1e-3)

    def test_wrong_fragment_shape_rejected(self, volta_design, rng):
        unit = self._unit(volta_design)
        a = load_fragment(rng.standard_normal((16, 16)), 0, 0, 16, 16)
        b = load_fragment(rng.standard_normal((16, 8)), 0, 0, 16, 8)
        with pytest.raises(ValueError):
            unit.mma(a, b, np.zeros((8, 8), dtype=np.float32))

    def test_wrong_b_fragment_shape_rejected(self, volta_design, rng):
        unit = self._unit(volta_design)
        a = load_fragment(rng.standard_normal((8, 16)), 0, 0, 8, 16)
        b = load_fragment(rng.standard_normal((16, 16)), 0, 0, 16, 16)
        with pytest.raises(ValueError, match=r"B fragment must be \(16, 8\), got \(16, 16\)"):
            unit.mma(a, b, np.zeros((8, 8), dtype=np.float32))
        assert unit.tile_ops == 0

    def test_mma_with_counters_records_tile_events(self, volta_design, rng):
        unit = self._unit(volta_design)
        a = load_fragment(rng.standard_normal((8, 16)), 0, 0, 8, 16)
        b = load_fragment(rng.standard_normal((16, 8)), 0, 0, 16, 8)
        expected = Counters()
        unit.record_tile_events(expected)
        counters = Counters()
        unit.mma(a, b, np.zeros((8, 8), dtype=np.float32), counters)
        for name, value in expected.items():
            assert counters[name] >= value
        assert counters.total() > expected.total()  # plus the dot-product MACs

    def test_hmma_sequence_matches_paper_timing(self, volta_design):
        """16 steps x 2 cycles = 32 busy cycles per 8x8x16 tile (1024 MACs at 32/cycle)."""
        unit = self._unit(volta_design)
        sequence = unit.hmma_sequence()
        assert sequence.steps == 16
        assert sequence.matrix_unit_busy_cycles == 32
        assert unit.tile_busy_cycles() == 32

    def test_hmma_instruction_expansion(self, volta_design):
        unit = self._unit(volta_design)
        instructions = unit.hmma_sequence().as_instructions()
        classes = [instruction.op_class for instruction in instructions]
        assert classes.count(OpClass.HMMA_SET) == 4
        assert classes.count(OpClass.HMMA_STEP) == 16

    def test_hmma_register_operands(self, volta_design):
        """A set reads one register; a step reads four operand and writes two accumulator ones."""
        instructions = self._unit(volta_design).hmma_sequence().as_instructions()
        operands = {
            (instruction.op_class, instruction.reg_reads, instruction.reg_writes)
            for instruction in instructions
        }
        assert operands == {(OpClass.HMMA_SET, 1, 0), (OpClass.HMMA_STEP, 4, 2)}

    def test_tile_events_include_register_file_traffic(self, volta_design):
        """Tightly-coupled: operands AND accumulators move through the RF."""
        unit = self._unit(volta_design)
        counters = Counters()
        unit.record_tile_events(counters)
        assert counters["core.issue.rf_read_words"] > 0
        assert counters["core.writeback.rf_write_words"] > 0
        assert counters["matrix_unit.operand_buffer_words"] > 0

    def test_gemm_tile_count(self, volta_design):
        unit = volta_design.matrix_unit
        assert unit.tile_count(256, 256, 256) == 32 * 32 * 16
        # A partial tile in any dimension costs a whole tile operation.
        assert unit.tile_count(257, 9, 17) == 33 * 2 * 2


class TestHopperTensorCore:
    def _unit(self, hopper_design):
        return HopperTensorCore(hopper_design.matrix_unit, hopper_design.cluster.shared_memory)

    def test_wgmma_correctness(self, hopper_design, rng):
        unit = self._unit(hopper_design)
        a = load_fragment(rng.standard_normal((16, 32)), 0, 0, 16, 32, location="shared")
        b = load_fragment(rng.standard_normal((32, 16)), 0, 0, 32, 16, location="shared")
        c = rng.standard_normal((16, 16)).astype(np.float32)
        result = unit.wgmma(a, b, c)
        expected = a.as_float32() @ b.as_float32() + c
        np.testing.assert_allclose(result, expected, rtol=1e-3, atol=1e-3)

    @pytest.mark.parametrize("a_shape, b_shape, message", [
        ((16, 16), (32, 16), r"A fragment must be \(16, 32\), got \(16, 16\)"),
        ((16, 32), (32, 8), r"B fragment must be \(32, 16\), got \(32, 8\)"),
    ])
    def test_wrong_fragment_shape_rejected(self, hopper_design, rng, a_shape, b_shape, message):
        unit = self._unit(hopper_design)
        a = load_fragment(rng.standard_normal(a_shape), 0, 0, *a_shape, location="shared")
        b = load_fragment(rng.standard_normal(b_shape), 0, 0, *b_shape, location="shared")
        with pytest.raises(ValueError, match=message):
            unit.wgmma(a, b, np.zeros((16, 16), dtype=np.float32))
        assert unit.tile_ops == 0

    def test_tile_operation_overlaps_operand_fetch(self, hopper_design):
        unit = self._unit(hopper_design)
        operation = unit.tile_operation()
        assert operation.compute_cycles == 16 * 16 * 32 // 64
        # The exposed latency is much smaller than a serial fetch + compute.
        assert operation.total_cycles < operation.compute_cycles + operation.smem_read_cycles

    def test_only_the_fill_latency_is_exposed(self, hopper_design):
        """Shared memory keeps up (64 read cycles under 128 compute): no shortfall."""
        operation = self._unit(hopper_design).tile_operation()
        assert (operation.compute_cycles, operation.smem_read_cycles) == (128, 64)
        assert operation.exposed_latency == SMEM_FILL_LATENCY == 6
        assert operation.total_cycles == 128 + 6

    def test_async_instruction_interface(self, hopper_design):
        instructions = self._unit(hopper_design).instruction_sequence()
        classes = [instruction.op_class for instruction in instructions]
        assert classes == [OpClass.WGMMA_INIT, OpClass.WGMMA_WAIT]

    def test_tile_events_offload_operands_but_not_accumulator(self, hopper_design):
        """Operands come from shared memory; accumulator still hits the RF."""
        unit = self._unit(hopper_design)
        counters = Counters()
        unit.record_tile_events(counters)
        assert counters["smem.matrix.read_words"] > 0
        assert counters["core.issue.rf_read_words"] > 0  # accumulator read
        assert counters["core.issue.rf_read_words"] < counters["smem.matrix.read_words"]

    def test_fewer_instructions_than_volta_per_mac(self, volta_design, hopper_design):
        volta_unit = VoltaTensorCore(volta_design.matrix_unit)
        hopper_unit = self._unit(hopper_design)
        volta_instr_per_mac = (
            volta_unit.hmma_sequence().instructions / volta_design.matrix_unit.tile_macs
        )
        hopper_instr_per_mac = (
            len(hopper_unit.instruction_sequence()) / hopper_design.matrix_unit.tile_macs
        )
        assert hopper_instr_per_mac < volta_instr_per_mac / 10
