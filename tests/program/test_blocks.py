"""Tests for the static program structure and basic-block dictionary."""

import pytest

from repro.isa.instruction import BranchKind, InstrClass, StaticInstruction
from repro.program.behavior import LoopBehavior
from repro.program.blocks import Function, Program, StaticBasicBlock


def _alu(sid, addr):
    return StaticInstruction(sid, addr, InstrClass.INT_ALU, dest=1)


def tiny_program():
    """Two blocks: a 3-instruction loop body and an exit block."""
    b0 = StaticBasicBlock(0, 0, 0x1000, [
        _alu(0, 0x1000),
        _alu(1, 0x1004),
        StaticInstruction(2, 0x1008, InstrClass.BRANCH,
                          kind=BranchKind.COND, target_addr=0x1000,
                          behavior=0),
    ])
    b1 = StaticBasicBlock(1, 0, 0x100C, [
        _alu(3, 0x100C),
        StaticInstruction(4, 0x1010, InstrClass.BRANCH,
                          kind=BranchKind.JUMP, target_addr=0x1000),
    ])
    return Program("tiny", 0, [Function(0, [0, 1])], [b0, b1],
                   [LoopBehavior(3)], [])


class TestStaticBasicBlock:
    def test_size_and_end(self):
        block = tiny_program().blocks[0]
        assert block.size == 3
        assert block.end_addr == 0x100C

    def test_terminator(self):
        program = tiny_program()
        assert program.blocks[0].terminator.kind == BranchKind.COND
        plain = StaticBasicBlock(9, 0, 0x2000, [_alu(0, 0x2000)])
        assert plain.terminator is None


class TestProgram:
    def test_instr_at_every_address(self):
        program = tiny_program()
        for addr in range(0x1000, 0x1014, 4):
            assert program.instr_at(addr) is not None

    def test_instr_at_unmapped(self):
        assert tiny_program().instr_at(0x9999_0000) is None

    def test_entry_addr(self):
        assert tiny_program().entry_addr == 0x1000

    def test_counts(self):
        program = tiny_program()
        assert program.instruction_count == 5
        assert program.code_bytes == 20

    def test_validate_ok(self):
        tiny_program().validate()

    def test_validate_rejects_gap(self):
        program = tiny_program()
        # Move the second block away to break contiguity.
        bad = StaticBasicBlock(1, 0, 0x2000, program.blocks[1].instrs)
        broken = Program("bad", 0, [Function(0, [0, 1])],
                         [program.blocks[0], bad],
                         program.behaviors, [])
        with pytest.raises(ValueError, match="not contiguous"):
            broken.validate()

    def test_validate_rejects_dangling_target(self):
        b0 = StaticBasicBlock(0, 0, 0x1000, [
            StaticInstruction(0, 0x1000, InstrClass.BRANCH,
                              kind=BranchKind.JUMP, target_addr=0xDEAD_0000),
        ])
        program = Program("bad", 0, [Function(0, [0])], [b0], [], [])
        with pytest.raises(ValueError, match="unmapped"):
            program.validate()

    def test_validate_rejects_missing_behavior(self):
        b0 = StaticBasicBlock(0, 0, 0x1000, [
            StaticInstruction(0, 0x1000, InstrClass.BRANCH,
                              kind=BranchKind.COND, target_addr=0x1000,
                              behavior=5),
        ])
        program = Program("bad", 0, [Function(0, [0])], [b0], [], [])
        with pytest.raises(ValueError, match="behaviour"):
            program.validate()

    def test_function_requires_blocks(self):
        with pytest.raises(ValueError):
            Function(0, [])
