"""Tests for static/dynamic instruction objects."""

import pytest

from repro.isa.instruction import (
    LATENCY_TABLE,
    BranchKind,
    DynInst,
    InstrClass,
    StaticInstruction,
)


def make_static(addr=0x1000, opclass=InstrClass.INT_ALU,
                kind=BranchKind.NOT_BRANCH, **kw):
    return StaticInstruction(0, addr, opclass, kind=kind, **kw)


class TestStaticInstruction:
    def test_is_branch(self):
        assert not make_static().is_branch
        branch = make_static(opclass=InstrClass.BRANCH,
                             kind=BranchKind.COND)
        assert branch.is_branch

    def test_defaults(self):
        s = make_static()
        assert s.dest == -1
        assert s.srcs == ()
        assert s.memgen == -1
        assert s.behavior == -1

    def test_slots_prevent_new_attributes(self):
        s = make_static()
        with pytest.raises(AttributeError):
            s.extra = 1


class TestExecutionLatency:
    def test_all_classes_have_latency(self):
        assert len(LATENCY_TABLE) == len(InstrClass)
        for opclass in InstrClass:
            assert LATENCY_TABLE[opclass] >= 1

    def test_ordering(self):
        assert (LATENCY_TABLE[InstrClass.INT_ALU]
                < LATENCY_TABLE[InstrClass.INT_MUL]
                <= LATENCY_TABLE[InstrClass.FP_ALU])


class TestDynInst:
    def test_initial_state(self):
        d = DynInst(tid=2, seq=7, static=make_static(), fetch_cycle=11)
        assert d.tid == 2
        assert d.seq == 7
        assert d.on_correct_path
        assert not d.diverges
        assert not d.issued and not d.completed and not d.squashed
        assert d.fetch_cycle == 11

    def test_opclass_passthrough(self):
        d = DynInst(0, 0, make_static(opclass=InstrClass.LOAD))
        assert d.opclass == InstrClass.LOAD
        assert not d.is_branch

    def test_slots_prevent_new_attributes(self):
        d = DynInst(0, 0, make_static())
        with pytest.raises(AttributeError):
            d.extra = 1
