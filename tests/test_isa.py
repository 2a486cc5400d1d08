"""Tests for the ISA model and instruction stream builders."""

import pytest

from repro.isa.instructions import Instruction, OpClass, latency_of
from repro.isa.program import WarpProgram


class TestInstructions:
    def test_every_class_has_a_latency(self):
        for op_class in OpClass:
            assert latency_of(op_class) >= 1

    def test_instruction_properties(self):
        instruction = Instruction(op_class=OpClass.LOAD_SHARED, bytes_accessed=32)
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
