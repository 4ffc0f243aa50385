"""Tests for the three fetch engines' prediction/training/repair logic."""

import pytest

from repro.core.config import DEFAULT_CONFIG
from repro.frontend.engine import EngineKind, make_engine
from repro.frontend.gshare_btb import GShareBtbEngine
from repro.frontend.gskew_ftb import GSkewFtbEngine
from repro.frontend.stream_engine import StreamFetchEngine
from repro.isa.instruction import BranchKind, DynInst, InstrClass, \
    StaticInstruction


def branch_static(addr, kind, target=0):
    return StaticInstruction(0, addr, InstrClass.BRANCH, kind=kind,
                             target_addr=target)


def resolved_branch(engine_request, addr, kind, taken, target, seq=0):
    """Build a resolved correct-path DynInst for engine training."""
    di = DynInst(0, seq, branch_static(addr, kind, target))
    di.request = engine_request
    di.actual_taken = taken
    di.actual_target = target
    return di


class TestMakeEngine:
    def test_all_kinds(self):
        assert isinstance(make_engine(EngineKind.GSHARE_BTB, 2,
                                      DEFAULT_CONFIG), GShareBtbEngine)
        assert isinstance(make_engine("gskew+FTB", 2, DEFAULT_CONFIG),
                          GSkewFtbEngine)
        assert isinstance(make_engine("stream", 2, DEFAULT_CONFIG),
                          StreamFetchEngine)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            make_engine("tage", 2, DEFAULT_CONFIG)


class TestGShareBtbEngine:
    def test_cold_predict_sequential(self):
        e = GShareBtbEngine(1, DEFAULT_CONFIG)
        r = e.predict(0, 0x1000, 8)
        assert (r.start_pc, r.length, r.next_pc) == (0x1000, 8, 0x1020)
        assert not r.term_is_branch

    def test_block_ends_at_btb_hit(self):
        e = GShareBtbEngine(1, DEFAULT_CONFIG)
        req = e.predict(0, 0x1000, 8)
        di = resolved_branch(req, 0x100C, BranchKind.COND, True, 0x2000)
        e.resolve_branch(di)
        # Train gshare toward taken at this history.
        e.resolve_branch(di)
        r = e.predict(0, 0x1000, 8)
        assert r.length == 4                  # 0x1000..0x100C inclusive
        assert r.term_is_branch

    def test_jump_always_taken(self):
        e = GShareBtbEngine(1, DEFAULT_CONFIG)
        req = e.predict(0, 0x1000, 8)
        e.resolve_branch(resolved_branch(req, 0x1004, BranchKind.JUMP,
                                         True, 0x3000))
        r = e.predict(0, 0x1000, 8)
        assert r.term_taken
        assert r.next_pc == 0x3000

    def test_call_pushes_ras_and_ret_pops(self):
        e = GShareBtbEngine(1, DEFAULT_CONFIG)
        req = e.predict(0, 0x1000, 8)
        e.resolve_branch(resolved_branch(req, 0x1000, BranchKind.CALL,
                                         True, 0x5000))
        e.resolve_branch(resolved_branch(req, 0x5000, BranchKind.RET,
                                         True, 0x1004))
        call_req = e.predict(0, 0x1000, 8)
        assert call_req.next_pc == 0x5000
        ret_req = e.predict(0, 0x5000, 8)
        assert ret_req.next_pc == 0x1004      # from the RAS

    def test_repair_restores_history(self):
        e = GShareBtbEngine(1, DEFAULT_CONFIG)
        req = e.predict(0, 0x1000, 8)
        e.resolve_branch(resolved_branch(req, 0x1004, BranchKind.COND,
                                         True, 0x2000))
        before = e.ghr[0].value
        mispredicted = e.predict(0, 0x1000, 8)   # pushes a spec bit
        di = resolved_branch(mispredicted, 0x1004, BranchKind.COND,
                             False, 0x2000)
        di.pred_taken = mispredicted.term_taken
        e.repair(0, di)
        # After repair the history is the checkpoint plus the actual
        # (not-taken) outcome.
        assert e.ghr[0].value == ((before << 1) | 0) & ((1 << 16) - 1)

    def test_stats_keys(self):
        e = GShareBtbEngine(1, DEFAULT_CONFIG)
        e.predict(0, 0x1000, 8)
        s = e.stats()
        assert "direction_accuracy" in s
        assert "btb_hit_rate" in s


class TestGSkewFtbEngine:
    def test_cold_predict_sequential(self):
        e = GSkewFtbEngine(1, DEFAULT_CONFIG)
        r = e.predict(0, 0x1000, 16)
        assert r.length == 16
        assert not r.term_is_branch

    def test_taken_branch_allocates_block(self):
        e = GSkewFtbEngine(1, DEFAULT_CONFIG)
        req = e.predict(0, 0x1000, 16)
        e.resolve_branch(resolved_branch(req, 0x1014, BranchKind.COND,
                                         True, 0x4000))
        e.resolve_branch(resolved_branch(req, 0x1014, BranchKind.COND,
                                         True, 0x4000))
        r = e.predict(0, 0x1000, 16)
        assert r.term_is_branch
        assert r.length == 6                  # 0x1000..0x1014

    def test_never_taken_branch_not_allocated(self):
        e = GSkewFtbEngine(1, DEFAULT_CONFIG)
        req = e.predict(0, 0x1000, 16)
        e.resolve_branch(resolved_branch(req, 0x1008, BranchKind.COND,
                                         False, 0x4000))
        r = e.predict(0, 0x1000, 16)
        assert not r.term_is_branch           # still a sequential block

    def test_embedded_branch_taking_shrinks_block(self):
        e = GSkewFtbEngine(1, DEFAULT_CONFIG)
        req = e.predict(0, 0x1000, 16)
        e.resolve_branch(resolved_branch(req, 0x1014, BranchKind.COND,
                                         True, 0x4000))
        # Later, an earlier (previously never-taken) branch takes.
        e.resolve_branch(resolved_branch(req, 0x1008, BranchKind.COND,
                                         True, 0x5000))
        r = e.predict(0, 0x1000, 16)
        assert r.length == 3                  # shrunk to 0x1008

    def test_stats_keys(self):
        e = GSkewFtbEngine(1, DEFAULT_CONFIG)
        e.predict(0, 0x1000, 8)
        assert "ftb_hit_rate" in e.stats()


class TestStreamFetchEngine:
    def _commit_stream(self, engine, start, length, branch_kind, target):
        """Commit a stream of `length` instrs ending in a taken branch."""
        for k in range(length - 1):
            di = DynInst(0, k, StaticInstruction(
                k, start + 4 * k, InstrClass.INT_ALU, dest=1))
            engine.commit(di)
        term = DynInst(0, length - 1, branch_static(
            start + 4 * (length - 1), branch_kind, target))
        term.actual_taken = True
        term.actual_target = target
        engine.commit(term)

    def test_cold_predict_sequential(self):
        e = StreamFetchEngine(1, DEFAULT_CONFIG)
        r = e.predict(0, 0x1000, 16)
        assert r.length == 16
        assert not r.term_is_branch

    def test_committed_stream_predicts(self):
        e = StreamFetchEngine(1, DEFAULT_CONFIG)
        self._commit_stream(e, 0x1000, 20, BranchKind.COND, 0x8000)
        r = e.predict(0, 0x1000, 16)
        assert r.term_is_branch
        assert r.length == 20                 # whole stream, > width
        assert r.next_pc == 0x8000

    def test_ret_stream_uses_ras(self):
        e = StreamFetchEngine(1, DEFAULT_CONFIG)
        # Stream A ends in a call; stream B (callee) ends in a ret.
        self._commit_stream(e, 0x1000, 6, BranchKind.CALL, 0x7000)
        self._commit_stream(e, 0x7000, 4, BranchKind.RET, 0x1018)
        call_req = e.predict(0, 0x1000, 16)
        assert call_req.next_pc == 0x7000
        ret_req = e.predict(0, 0x7000, 16)
        assert ret_req.next_pc == 0x1014 + 4  # RAS: call site + 4

    def test_repair_restores_dolc(self):
        e = StreamFetchEngine(1, DEFAULT_CONFIG)
        self._commit_stream(e, 0x1000, 8, BranchKind.COND, 0x9000)
        snap_before = e.dolc[0].snapshot()
        req = e.predict(0, 0x1000, 16)        # pushes path history
        di = resolved_branch(req, 0x101C, BranchKind.COND, False, 0x9000)
        e.repair(0, di)
        assert e.dolc[0].snapshot() == snap_before

    def test_stats_keys(self):
        e = StreamFetchEngine(1, DEFAULT_CONFIG)
        e.predict(0, 0x1000, 8)
        s = e.stats()
        assert "stream_hit_rate" in s
