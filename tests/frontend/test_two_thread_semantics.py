"""Tests for the 2.X fetch semantics the paper's Figure 3 hardware implies:
shared width, bank-conflict arbitration, and priority handling."""

import pytest

from repro.core import SimConfig, Simulator
from repro.frontend.fetch_unit import FetchUnit
from repro.isa.instruction import BranchKind


def build(policy, benchmarks=("gzip", "eon"), **cfg):
    return Simulator(benchmarks, engine="gshare+BTB", policy=policy,
                     config=SimConfig(**cfg) if cfg else None)


class TestSharedWidth:
    def test_two_threads_share_one_width_budget(self):
        """Per cycle, both threads together never exceed X instructions."""
        sim = build("ICOUNT.2.8")
        fu = sim.fetch_unit
        for cycle in range(400):
            before = len(fu.fetch_buffer)
            sim.core.tick()
            # decode drains, so measure deliveries via the stats stream
        # The histogram can never exceed the policy width.
        width = fu.spec.width
        assert all(count == 0
                   for count in fu.stats.delivered_histogram[width + 1:])

    def test_second_thread_gets_leftover_width(self):
        """With 2.X, cycles delivering more than one block occur."""
        sim = build("ICOUNT.2.16")
        sim.core.run(1500)
        fu = sim.fetch_unit
        # If the second thread never contributed, deliveries would cap
        # at one engine block (<= 8 for a BTB engine with basic blocks
        # well under 16).
        assert fu.stats.delivered_histogram[13:].count(0) < 4 or \
            sum(fu.stats.delivered_histogram[9:]) > 0


class TestBankConflicts:
    def test_single_bank_forces_conflicts(self):
        sim = build("ICOUNT.2.8", cache_banks=1)
        sim.core.run(1200)
        assert sim.fetch_unit.stats.bank_conflicts > 0

    def test_one_thread_policies_never_conflict(self):
        sim = build("ICOUNT.1.8", cache_banks=1)
        sim.core.run(1200)
        assert sim.fetch_unit.stats.bank_conflicts == 0

    def test_more_banks_fewer_conflicts(self):
        few = build("ICOUNT.2.8", cache_banks=1)
        few.core.run(1500)
        many = build("ICOUNT.2.8", cache_banks=8)
        many.core.run(1500)
        assert many.fetch_unit.stats.bank_conflicts <= \
            few.fetch_unit.stats.bank_conflicts


class TestDecodeRedirect:
    def test_misfetched_direct_branches_repair_at_decode(self):
        """Cold BTB: direct jumps/calls are invisible at fetch, so the
        first execution of each must redirect at decode, not execute."""
        sim = build("ICOUNT.1.8", benchmarks=("gcc",))
        sim.run(2500, warmup=0)
        assert sim.core.stats.decode_redirects > 0

    def test_decode_redirect_cheaper_than_squash(self, monkeypatch):
        """A decode redirect must not flush post-rename structures.

        The redirecting thread's younger instructions are all still in
        the fetch buffer, so on a cycle whose only recovery was a decode
        redirect, nothing that sat in the ROB, an IQ or a latch before
        the cycle is squashed after it.
        """
        redirected = []
        original = FetchUnit.redirect

        def spy(unit, tid, resume_pc, di):
            redirected.append(di)
            original(unit, tid, resume_pc, di)

        # The core binds the fetch unit's redirect when it is built.
        monkeypatch.setattr(FetchUnit, "redirect", spy)
        core = build("ICOUNT.2.8", benchmarks=("gcc", "gzip")).core
        stats = core.stats
        kinds = []
        for _ in range(2500):
            before = [di for lst in core.rob.lists for di in lst]
            before += [di for queue in core.iqs.queues for di in queue]
            before += core.decode_latch + core.rename_latch
            redirects, squashes = stats.decode_redirects, stats.squashes
            del redirected[:]
            core.tick()
            if stats.decode_redirects > redirects \
                    and stats.squashes == squashes:
                assert not any(di.squashed for di in before)
                kinds += [di.static.kind for di in redirected]
        assert kinds, "expected at least one decode redirect"
        assert all(kind in (BranchKind.JUMP, BranchKind.CALL,
                            BranchKind.NOT_BRANCH)
                   for kind in kinds)


class TestIcountPriority:
    def test_icount_starves_the_clogging_thread(self):
        """Under ICOUNT.1.8 a memory-bound partner must fetch less."""
        sim = build("ICOUNT.1.8", benchmarks=("gzip", "twolf"))
        sim.run(4000)
        fetched = sim.fetch_unit.seq       # per-thread fetch counters
        assert fetched[0] > fetched[1], \
            "gzip (low ICOUNT) should out-fetch twolf (clogged)"

    def test_round_robin_is_fairer_than_icount(self):
        icount = build("ICOUNT.1.8", benchmarks=("gzip", "twolf"))
        icount.run(3000)
        rr = build("RR.1.8", benchmarks=("gzip", "twolf"))
        rr.run(3000)
        def imbalance(sim):
            a, b = sim.fetch_unit.seq
            return abs(a - b) / max(a + b, 1)
        assert imbalance(rr) <= imbalance(icount) + 0.1
