"""Tests for BTB, FTB, RAS and the stream predictor."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.branch.btb import BTB
from repro.branch.ftb import FTB, MAX_FTB_BLOCK
from repro.branch.ras import ReturnAddressStack
from repro.branch.stream import (
    MAX_STREAM_LENGTH,
    DolcHistory,
    StreamPredictor,
)
from repro.isa.instruction import BranchKind


class TestBTB:
    def test_miss_then_hit(self):
        btb = BTB(entries=64, assoc=4)
        assert btb.lookup(0x400000) is None
        btb.insert(0x400000, 0x400100, BranchKind.COND)
        entry = btb.lookup(0x400000)
        assert entry.target == 0x400100
        assert entry.kind == BranchKind.COND

    def test_update_changes_target(self):
        btb = BTB(entries=64, assoc=4)
        btb.insert(0x400000, 0x1, BranchKind.IND_JUMP)
        btb.insert(0x400000, 0x2, BranchKind.IND_JUMP)
        assert btb.lookup(0x400000).target == 0x2

    def test_capacity_eviction(self):
        btb = BTB(entries=8, assoc=2)       # 4 sets
        set_stride = 4 * 4                  # same set every 4 words
        pcs = [0x400000 + i * set_stride for i in range(3)]
        for pc in pcs:
            btb.insert(pc, pc + 4, BranchKind.COND)
        assert btb.lookup(pcs[0]) is None   # LRU victim
        assert btb.lookup(pcs[1]) is not None

    def test_stats(self):
        btb = BTB(entries=64, assoc=4)
        btb.lookup(0x10)
        btb.insert(0x10, 0x20, BranchKind.JUMP)
        btb.lookup(0x10)
        assert btb.misses == 1
        assert btb.hits == 1


class TestFTB:
    def test_block_roundtrip(self):
        ftb = FTB(entries=64, assoc=4)
        ftb.insert(0x400000, 12, 0x400800, BranchKind.COND)
        entry = ftb.lookup(0x400000)
        assert (entry.length, entry.target) == (12, 0x400800)

    def test_length_clamped(self):
        ftb = FTB(entries=64, assoc=4)
        ftb.insert(0x400000, 99, 0x400800, BranchKind.COND)
        assert ftb.lookup(0x400000).length == MAX_FTB_BLOCK

    def test_block_shrinks_when_embedded_branch_takes(self):
        ftb = FTB(entries=64, assoc=4)
        ftb.insert(0x400000, 12, 0x400800, BranchKind.COND)
        # An embedded branch at +5 took: block re-allocated shorter.
        ftb.insert(0x400000, 5, 0x400900, BranchKind.COND)
        entry = ftb.lookup(0x400000)
        assert (entry.length, entry.target) == (5, 0x400900)

    def test_rejects_empty_block(self):
        ftb = FTB(entries=64, assoc=4)
        with pytest.raises(ValueError):
            ftb.insert(0x400000, 0, 0x1, BranchKind.COND)


class TestRAS:
    def test_push_pop_lifo(self):
        ras = ReturnAddressStack(8)
        ras.push(0x100)
        ras.push(0x200)
        assert ras.pop() == 0x200
        assert ras.pop() == 0x100

    def test_snapshot_repairs_top(self):
        ras = ReturnAddressStack(8)
        ras.push(0x100)
        snap = ras.snapshot()
        ras.pop()                     # speculative pop, later squashed
        ras.restore(snap)
        assert ras.peek() == 0x100
        assert ras.pop() == 0x100

    def test_snapshot_repairs_push(self):
        ras = ReturnAddressStack(8)
        ras.push(0x100)
        snap = ras.snapshot()
        ras.push(0x999)               # speculative push, later squashed
        ras.restore(snap)
        assert ras.pop() == 0x100

    def test_wraps_without_error(self):
        ras = ReturnAddressStack(4)
        for i in range(10):
            ras.push(i)
        assert ras.pop() == 9

    @given(st.lists(st.integers(0, 2**32), min_size=1, max_size=8))
    def test_lifo_within_capacity(self, addrs):
        ras = ReturnAddressStack(16)
        for a in addrs:
            ras.push(a)
        for a in reversed(addrs):
            assert ras.pop() == a


class TestDolcHistory:
    def test_snapshot_restore(self):
        h = DolcHistory()
        h.push(0x400000)
        snap = h.snapshot()
        index_before = h.index(0x500000, 10)
        h.push(0x600000)
        h.restore(snap)
        assert h.index(0x500000, 10) == index_before

    def test_path_changes_index(self):
        a = DolcHistory()
        b = DolcHistory()
        a.push(0x400000)
        b.push(0x7F0000)
        assert a.index(0x500000, 10) != b.index(0x500000, 10)

    def test_index_within_width(self):
        h = DolcHistory()
        for i in range(100):
            h.push(0x400000 + i * 52)
            assert 0 <= h.index(0x400000 + i, 9) < 512

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            DolcHistory(depth=0)


class TestStreamPredictor:
    def test_cold_miss(self):
        sp = StreamPredictor(first_entries=64, second_entries=256,
                             assoc=4)
        assert sp.lookup(0x400000, DolcHistory()) is None

    def test_train_then_hit(self):
        sp = StreamPredictor(first_entries=64, second_entries=256,
                             assoc=4)
        h = DolcHistory()
        sp.update(0x400000, 24, 0x400800, BranchKind.COND, h)
        entry = sp.lookup(0x400000, h)
        assert (entry.length, entry.target) == (24, 0x400800)

    def test_length_clamped(self):
        sp = StreamPredictor(first_entries=64, second_entries=256,
                             assoc=4)
        h = DolcHistory()
        sp.update(0x400000, 500, 0x400800, BranchKind.COND, h)
        assert sp.lookup(0x400000, h).length == MAX_STREAM_LENGTH

    def test_path_correlation_in_second_level(self):
        """Same start address, different paths -> different predictions."""
        sp = StreamPredictor(first_entries=64, second_entries=256,
                             assoc=4)
        path_a = DolcHistory()
        path_a.push(0x400100)
        path_b = DolcHistory()
        path_b.push(0x70F000)
        sp.update(0x400000, 10, 0xA000, BranchKind.COND, path_a)
        sp.update(0x400000, 30, 0xB000, BranchKind.COND, path_b)
        assert sp.lookup(0x400000, path_a).length == 10
        assert sp.lookup(0x400000, path_b).length == 30

    def test_first_level_catches_unseen_path(self):
        sp = StreamPredictor(first_entries=64, second_entries=256,
                             assoc=4)
        trained = DolcHistory()
        sp.update(0x400000, 16, 0xC000, BranchKind.COND, trained)
        fresh = DolcHistory()
        fresh.push(0x123456)
        entry = sp.lookup(0x400000, fresh)
        assert entry is not None            # L1 address-indexed fallback
        assert entry.length == 16

    def test_rejects_empty_stream(self):
        sp = StreamPredictor(first_entries=64, second_entries=256,
                             assoc=4)
        with pytest.raises(ValueError):
            sp.update(0x400000, 0, 0x1, BranchKind.COND, DolcHistory())

    def test_hit_counters(self):
        sp = StreamPredictor(first_entries=64, second_entries=256,
                             assoc=4)
        h = DolcHistory()
        sp.lookup(0x1000, h)
        sp.update(0x1000, 8, 0x2000, BranchKind.COND, h)
        sp.lookup(0x1000, h)
        assert sp.lookups == 2
        assert sp.second_hits == 1
