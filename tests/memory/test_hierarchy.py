"""Tests for latency composition across the hierarchy."""

import pytest

from repro.core.config import DEFAULT_CONFIG
from repro.memory.hierarchy import MemoryHierarchy


@pytest.fixture
def mem():
    return MemoryHierarchy(DEFAULT_CONFIG.with_(
        l1_latency=1, l2_latency=10, memory_latency=100, dmshr_entries=2))


class TestIFetch:
    def test_cold_fetch_goes_to_memory(self, mem):
        result = mem.ifetch(0, 0x400000, cycle=0)
        assert not result.hit
        # TLB miss + L2 miss + memory
        assert result.ready_cycle == mem.itlb.miss_penalty + 110

    def test_warm_fetch_hits(self, mem):
        mem.ifetch(0, 0x400000, 0)
        result = mem.ifetch(0, 0x400000, 200)
        assert result.hit
        assert result.ready_cycle == 200

    def test_l2_catches_l1_eviction(self, mem):
        mem.ifetch(0, 0x400000, 0)
        # Evict from 32KB 2-way L1I: two more lines in the same set.
        set_stride = 256 * 64
        mem.ifetch(0, 0x400000 + set_stride, 0)
        mem.ifetch(0, 0x400000 + 2 * set_stride, 0)
        result = mem.ifetch(0, 0x400000, 500)
        assert not result.hit
        assert result.ready_cycle == 500 + 10     # L2 hit, TLB warm


class TestDRead:
    def test_l1_hit_latency(self, mem):
        mem.dread(0, 0x2000, 0)
        assert mem.dread(0, 0x2000, 100) == 1

    def test_cold_read_latency(self, mem):
        latency = mem.dread(0, 0x2000, 0)
        assert latency == mem.dtlb.miss_penalty + 110

    def test_l2_hit_latency(self, mem):
        # Space the accesses out so MSHRs drain and every fill lands.
        mem.dread(0, 0x2000, 0)
        set_stride = 256 * 64
        mem.dread(0, 0x2000 + set_stride, 300)
        mem.dread(0, 0x2000 + 2 * set_stride, 600)
        assert mem.dread(0, 0x2000, 900) == 10    # L1 miss, L2 hit

    def test_mshr_full_returns_none(self, mem):
        big_stride = 1 << 21                       # distinct L2 sets
        assert mem.dread(0, 0x0, 0) is not None
        assert mem.dread(0, big_stride, 0) is not None
        assert mem.dread(0, 2 * big_stride, 0) is None

    def test_mshr_coalesce_same_line(self, mem):
        first = mem.dread(0, 0x2000, 0)
        assert first is not None
        # Fills are atomic, so the line is already in L1D: a second read
        # while the miss is in flight hits at L1 latency, never later
        # than the first fill (DESIGN.md §4).
        second = mem.dread(1 if False else 0, 0x2008, 3)
        assert second is not None
        assert second <= first


class TestDWrite:
    def test_write_allocates(self, mem):
        mem.dwrite(0, 0x3000, 0)
        assert mem.dread(0, 0x3000, 10) == 1

    def test_write_never_stalls(self, mem):
        # Writes go through the write buffer even with MSHRs exhausted.
        big_stride = 1 << 21
        mem.dread(0, 0x0, 0)
        mem.dread(0, big_stride, 0)
        mem.dwrite(0, 2 * big_stride, 0)          # must not raise


class TestSharing:
    def test_threads_share_l2_capacity(self):
        mem = MemoryHierarchy(DEFAULT_CONFIG.with_(l2_kb=64, l2_assoc=2))
        # Thread 0 warms a line; thread 1 blows the set with its own.
        mem.dread(0, 0x1000, 0)
        set_stride = (64 * 1024 // 2 // 64) * 64   # L2 set stride
        for k in range(4):
            mem.dread(1, 0x1000 + k * set_stride, 0)
        # Thread 0's line was evicted from both L1 (different set
        # pressure) and L2 -> long latency again.
        set_stride_l1 = 256 * 64
        for k in range(3):
            mem.dread(0, 0x1000 + k * set_stride_l1, 1000)
        assert mem.dread(0, 0x1000, 2000) >= 10
