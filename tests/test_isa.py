"""Tests for the ISA model and instruction stream builders."""

import pytest

from repro.isa.instructions import Instruction, OpClass, is_matrix, is_memory, latency_of
from repro.isa.program import InstructionStream, WarpProgram


class TestInstructions:
    def test_every_class_has_a_latency(self):
        for op_class in OpClass:
            assert latency_of(op_class) >= 1

    def test_memory_classification(self):
        assert is_memory(OpClass.LOAD_GLOBAL)
        assert is_memory(OpClass.STORE_SHARED)
        assert is_memory(OpClass.MMIO_STORE)
        assert not is_memory(OpClass.ALU)
        assert not is_memory(OpClass.HMMA_STEP)

    def test_matrix_classification(self):
        assert is_matrix(OpClass.HMMA_STEP)
        assert is_matrix(OpClass.WGMMA_INIT)
        assert not is_matrix(OpClass.FPU)

    def test_instruction_properties(self):
        instruction = Instruction(op_class=OpClass.LOAD_SHARED, bytes_accessed=32)
        assert instruction.is_memory
        assert not instruction.is_matrix
        assert instruction.latency == latency_of(OpClass.LOAD_SHARED)

    def test_hmma_step_slower_than_alu(self):
        assert latency_of(OpClass.HMMA_STEP) > latency_of(OpClass.HMMA_SET)


class TestWarpProgram:
    def test_emit_and_len(self):
        program = WarpProgram()
        program.emit_class(OpClass.ALU, repeat=3)
        assert len(program) == 3

    def test_emit_negative_repeat_rejected(self):
        with pytest.raises(ValueError):
            WarpProgram().emit_class(OpClass.ALU, repeat=-1)

    def test_count_by_class(self):
        program = WarpProgram()
        program.emit_class(OpClass.ALU, repeat=2)
        program.emit_class(OpClass.FPU, repeat=5)
        counts = program.count_by_class()
        assert counts[OpClass.ALU] == 2
        assert counts[OpClass.FPU] == 5

    def test_extend_repeats(self):
        inner = WarpProgram().emit_class(OpClass.ALU, repeat=2)
        outer = WarpProgram().extend(inner, repeat=3)
        assert len(outer) == 6

    def test_register_traffic_totals(self):
        program = WarpProgram()
        program.emit_class(OpClass.ALU, repeat=4, reg_reads=2, reg_writes=1)
        assert sum(instruction.reg_reads for instruction in program.instructions) == 8
        assert sum(instruction.reg_writes for instruction in program.instructions) == 4

    def test_total_bytes_filtered(self):
        program = WarpProgram()
        program.emit_class(OpClass.LOAD_GLOBAL, repeat=2, bytes_accessed=32)
        program.emit_class(OpClass.LOAD_SHARED, repeat=1, bytes_accessed=16)
        assert program.total_bytes() == 80
        assert program.total_bytes([OpClass.LOAD_GLOBAL]) == 64


class TestInstructionStream:
    def test_total_instructions_scales_with_warps_and_iterations(self):
        program = WarpProgram().emit_class(OpClass.ALU, repeat=10)
        stream = InstructionStream(programs=[program], warps=8, iterations=4)
        assert sum(stream.count_by_class().values()) == 10 * 8 * 4

    def test_count_by_class_scaled(self):
        program = WarpProgram().emit_class(OpClass.FPU, repeat=3)
        stream = InstructionStream(programs=[program], warps=2, iterations=2)
        assert stream.count_by_class()[OpClass.FPU] == 12

    def test_merged_program(self):
        """A stream counts its programs as their concatenation would."""
        stream = InstructionStream()
        stream.add(WarpProgram().emit_class(OpClass.ALU, repeat=1))
        stream.add(WarpProgram().emit_class(OpClass.FPU, repeat=2))
        merged = WarpProgram()
        for program in stream.programs:
            merged.extend(program)
        assert len(merged) == 3
        assert stream.count_by_class() == merged.count_by_class()
