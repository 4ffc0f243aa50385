"""Tests for the shared execution resources.

The fused cycle loop (``repro.pipeline.core``) does the dispatch,
issue, writeback, commit and squash bookkeeping on these structures'
fields; ``test_recovery_invariants.py`` checks them after every cycle.
What is left here is what the structures themselves own: the queue map
and the register reservation.
"""

import pytest

from repro.isa.instruction import InstrClass
from repro.pipeline.resources import QUEUE_TABLE, PhysicalRegisters


class TestQueueOf:
    def test_mapping(self):
        assert QUEUE_TABLE[InstrClass.INT_ALU] == 0
        assert QUEUE_TABLE[InstrClass.INT_MUL] == 0
        assert QUEUE_TABLE[InstrClass.BRANCH] == 0
        assert QUEUE_TABLE[InstrClass.LOAD] == 1
        assert QUEUE_TABLE[InstrClass.STORE] == 1
        assert QUEUE_TABLE[InstrClass.FP_ALU] == 2


class TestPhysicalRegisters:
    def test_reserves_architectural_state(self):
        regs = PhysicalRegisters(n_threads=2, int_regs=384, fp_regs=384)
        assert regs.free_int == 384 - 64
        assert regs.free_fp == 384 - 64

    def test_too_many_threads_rejected(self):
        with pytest.raises(ValueError):
            PhysicalRegisters(n_threads=12, int_regs=384, fp_regs=384)
