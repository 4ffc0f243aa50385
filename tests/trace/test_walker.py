"""Tests for correct-path walking and workload characterisation."""

import pytest

from repro.isa.instruction import BranchKind, InstrClass, StaticInstruction
from repro.program import SPECINT2000, program_for
from repro.program.behavior import IndirectBehavior, LoopBehavior
from repro.program.blocks import Function, Program, StaticBasicBlock
from repro.program.memgen import StrideGenerator
from repro.trace import dynamic_stats, walk
from repro.trace.context import WalkError


def reference_counts(program, budget):
    """Per-instruction tally over the reference walk, in dynamic_stats'
    terms: (instructions, branches, taken, loads, stores)."""
    instructions = branches = taken_branches = loads = stores = 0
    for static, taken, _ in walk(program, budget):
        instructions += 1
        if static.is_branch:
            branches += 1
            taken_branches += taken
        elif static.opclass == InstrClass.LOAD:
            loads += 1
        elif static.opclass == InstrClass.STORE:
            stores += 1
    return instructions, branches, taken_branches, loads, stores


def block_stepped_counts(program, budget):
    stats = dynamic_stats(program, budget)
    return (stats.instructions, stats.branches, stats.taken_branches,
            round(stats.load_frac * max(stats.instructions, 1)),
            round(stats.store_frac * max(stats.instructions, 1)))


def edge_budgets(program):
    """Budgets whose last instruction is a body instruction (the walk
    stops mid-block) or a terminator (it stops on a block boundary)."""
    is_branch = [static.is_branch for static, _, _ in walk(program, 3000)]
    mid_block = next(n for n in range(2000, 3000) if not is_branch[n - 1])
    on_terminator = next(n for n in range(2000, 3000) if is_branch[n - 1])
    return mid_block, on_terminator


@pytest.fixture(scope="module")
def gzip():
    return program_for("gzip", 0)


class TestWalk:
    def test_yields_requested_count(self, gzip):
        assert sum(1 for _ in walk(gzip, 1000)) == 1000

    def test_follows_control_flow(self, gzip):
        prev_next = gzip.entry_addr
        for static, taken, target in walk(gzip, 2000):
            assert static.addr == prev_next
            prev_next = target if taken else static.addr + 4

    def test_deterministic(self, gzip):
        a = [(s.addr, t) for s, t, _ in walk(gzip, 3000)]
        b = [(s.addr, t) for s, t, _ in walk(gzip, 3000)]
        assert a == b


class TestDynamicStats:
    def test_consistency(self, gzip):
        stats = dynamic_stats(gzip, 20_000)
        assert stats.instructions == 20_000
        assert 0 < stats.taken_branches <= stats.branches
        assert stats.avg_block_size == pytest.approx(
            stats.instructions / stats.branches)
        assert stats.avg_stream_length == pytest.approx(
            stats.instructions / stats.taken_branches)
        assert stats.avg_stream_length >= stats.avg_block_size

    def test_rates_in_unit_interval(self, gzip):
        stats = dynamic_stats(gzip, 20_000)
        assert 0 < stats.taken_rate < 1
        assert 0 < stats.load_frac < 1
        assert 0 <= stats.store_frac < 1


class TestBlockSteppedStats:
    """dynamic_stats steps whole blocks; walk() is the reference."""

    @pytest.mark.parametrize("name", sorted(SPECINT2000))
    def test_matches_reference_walk(self, name):
        program = program_for(name, 0)
        mid_block, on_terminator = edge_budgets(program)
        for budget in (1, mid_block, on_terminator, 50_000):
            assert block_stepped_counts(program, budget) \
                == reference_counts(program, budget), (name, budget)

    def test_empty_budget(self, gzip):
        stats = dynamic_stats(gzip, 0)
        assert (stats.instructions, stats.branches) == (0, 0)

    def test_fall_through_blocks(self):
        # A block without a terminator runs on into the next one.
        head = StaticBasicBlock(0, 0, 0x1000, [
            StaticInstruction(0, 0x1000, InstrClass.INT_ALU, dest=1),
            StaticInstruction(1, 0x1004, InstrClass.LOAD, dest=2,
                              memgen=0),
        ])
        loop = StaticBasicBlock(1, 0, 0x1008, [
            StaticInstruction(2, 0x1008, InstrClass.STORE, srcs=(2,),
                              memgen=0),
            StaticInstruction(3, 0x100C, InstrClass.BRANCH,
                              kind=BranchKind.COND, target_addr=0x1000,
                              behavior=0),
        ])
        tail = StaticBasicBlock(2, 0, 0x1010, [
            StaticInstruction(4, 0x1010, InstrClass.BRANCH,
                              kind=BranchKind.JUMP, target_addr=0x1000),
        ])
        program = Program("t", 0, [Function(0, [0, 1, 2])],
                          [head, loop, tail], [LoopBehavior(3)],
                          [StrideGenerator(0x8000, 8, 64)])
        for budget in range(40):
            assert block_stepped_counts(program, budget) \
                == reference_counts(program, budget), budget

    def test_calls_returns_and_indirect_jumps(self):
        # Every terminator kind the inlined step handles, including a
        # return with an empty call stack (the walk restarts at entry).
        blocks = [
            StaticBasicBlock(0, 0, 0x1000, [
                StaticInstruction(0, 0x1000, InstrClass.INT_ALU, dest=1),
                StaticInstruction(1, 0x1004, InstrClass.BRANCH,
                                  kind=BranchKind.CALL, dest=31,
                                  target_addr=0x2000),
            ]),
            StaticBasicBlock(1, 0, 0x1008, [
                StaticInstruction(2, 0x1008, InstrClass.LOAD, dest=2,
                                  memgen=0),
                StaticInstruction(3, 0x100C, InstrClass.BRANCH,
                                  kind=BranchKind.IND_JUMP, srcs=(2,),
                                  behavior=1),
            ]),
            StaticBasicBlock(2, 0, 0x1010, [
                StaticInstruction(4, 0x1010, InstrClass.BRANCH,
                                  kind=BranchKind.COND,
                                  target_addr=0x1000, behavior=0),
            ]),
            StaticBasicBlock(3, 0, 0x1014, [
                StaticInstruction(5, 0x1014, InstrClass.BRANCH,
                                  kind=BranchKind.RET),
            ]),
            StaticBasicBlock(4, 1, 0x2000, [
                StaticInstruction(6, 0x2000, InstrClass.STORE, srcs=(1,),
                                  memgen=0),
                StaticInstruction(7, 0x2004, InstrClass.BRANCH,
                                  kind=BranchKind.RET),
            ]),
        ]
        program = Program(
            "t", 0, [Function(0, [0, 1, 2, 3]), Function(1, [4])], blocks,
            [LoopBehavior(3), IndirectBehavior((0x1010, 0x1014), 5, 0.5)],
            [StrideGenerator(0x8000, 8, 64)])
        program.validate()
        kinds = {static.kind for static, _, _ in walk(program, 200)}
        assert {BranchKind.CALL, BranchKind.RET, BranchKind.IND_JUMP,
                BranchKind.COND} <= kinds
        for budget in range(120):
            assert block_stepped_counts(program, budget) \
                == reference_counts(program, budget), budget

    def test_entering_mid_block_raises(self):
        # The jump lands on the block's second instruction: the
        # per-instruction walk follows it, the block-stepped one must
        # refuse rather than count a stride that never ran.
        block = StaticBasicBlock(0, 0, 0x1000, [
            StaticInstruction(0, 0x1000, InstrClass.INT_ALU, dest=1),
            StaticInstruction(1, 0x1004, InstrClass.INT_ALU, dest=2),
            StaticInstruction(2, 0x1008, InstrClass.BRANCH,
                              kind=BranchKind.JUMP, target_addr=0x1004),
        ])
        program = Program("t", 0, [Function(0, [0])], [block], [], [])
        assert sum(1 for _ in walk(program, 10)) == 10
        assert dynamic_stats(program, 3).branches == 1
        with pytest.raises(WalkError, match="not the start of a block"):
            dynamic_stats(program, 4)

    def test_branch_inside_a_block_raises(self):
        block = StaticBasicBlock(0, 0, 0x1000, [
            StaticInstruction(0, 0x1000, InstrClass.BRANCH,
                              kind=BranchKind.JUMP, target_addr=0x1000),
            StaticInstruction(1, 0x1004, InstrClass.BRANCH,
                              kind=BranchKind.JUMP, target_addr=0x1000),
        ])
        program = Program("t", 0, [Function(0, [0])], [block], [], [])
        with pytest.raises(WalkError, match="not the last instruction"):
            dynamic_stats(program, 10)
