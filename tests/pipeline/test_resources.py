"""Tests for the shared execution resources.

The fused cycle loop (``repro.pipeline.core``) does the dispatch,
issue, writeback and commit bookkeeping on these structures' fields;
``test_recovery_invariants.py`` checks them after every cycle.  What
is left here is what the structures themselves own: the queue map,
the register reservation and the decode-redirect squash.
"""

import pytest

from repro.isa.instruction import DynInst, InstrClass, StaticInstruction
from repro.pipeline.resources import (
    QUEUE_TABLE,
    InstructionQueues,
    PhysicalRegisters,
)


def make_di(tid=0, seq=0, opclass=InstrClass.INT_ALU, dest=1):
    return DynInst(tid, seq, StaticInstruction(seq, 0x1000 + 4 * seq,
                                               opclass, dest=dest))


def dispatch(iqs, *instrs):
    """Place each instruction in its queue and, being ready, on its
    queue's ready list, as the cycle loop's dispatch stage does."""
    for age, di in enumerate(instrs):
        q = QUEUE_TABLE[di.op]
        di.age = age
        iqs.queues[q][di] = None
        iqs.ready[q].append(di)


class TestQueueOf:
    def test_mapping(self):
        assert QUEUE_TABLE[InstrClass.INT_ALU] == 0
        assert QUEUE_TABLE[InstrClass.INT_MUL] == 0
        assert QUEUE_TABLE[InstrClass.BRANCH] == 0
        assert QUEUE_TABLE[InstrClass.LOAD] == 1
        assert QUEUE_TABLE[InstrClass.STORE] == 1
        assert QUEUE_TABLE[InstrClass.FP_ALU] == 2


class TestInstructionQueues:
    def test_remove_squashed_filters_by_thread_and_seq(self):
        iqs = InstructionQueues()
        keep_old = make_di(tid=0, seq=5)
        kill = make_di(tid=0, seq=9, opclass=InstrClass.LOAD)
        other = make_di(tid=1, seq=50)
        dispatch(iqs, keep_old, kill, other)
        removed = iqs.remove_squashed(tid=0, seq_limit=5)
        assert removed == 1
        assert kill.squashed
        assert not keep_old.squashed
        assert list(iqs.queues[0]) == [keep_old, other]
        assert not iqs.queues[1]


class TestReadyListProtocol:
    """A squash keeps each ready list the ready subset of its queue."""

    def test_remove_squashed_clears_ready_list(self):
        iqs = InstructionQueues()
        di = make_di(tid=0, seq=5)
        dispatch(iqs, di)
        assert iqs.remove_squashed(tid=0, seq_limit=0) == 1
        assert iqs.ready[0] == []
        assert not iqs.queues[0]


class TestPhysicalRegisters:
    def test_reserves_architectural_state(self):
        regs = PhysicalRegisters(n_threads=2, int_regs=384, fp_regs=384)
        assert regs.free_int == 384 - 64
        assert regs.free_fp == 384 - 64

    def test_too_many_threads_rejected(self):
        with pytest.raises(ValueError):
            PhysicalRegisters(n_threads=12, int_regs=384, fp_regs=384)
