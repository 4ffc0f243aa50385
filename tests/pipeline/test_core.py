"""Integration tests for the SMT core: commit order, squash hygiene,
resource-accounting invariants."""

import pytest

from repro.core.simulator import Simulator
from repro.trace import walk


def build(benchmarks=("gzip",), engine="gshare+BTB", policy="ICOUNT.1.8"):
    return Simulator(benchmarks, engine=engine, policy=policy)


@pytest.fixture(scope="module")
def finished_sim():
    sim = build(("gzip", "eon"), policy="ICOUNT.2.8")
    sim.run(4000, warmup=1000)
    return sim


class TestCommitCorrectness:
    def test_commits_exactly_the_architectural_path(self, observe_commits):
        """The committed instruction stream must equal a pure walk."""
        with observe_commits() as committed:
            sim = build(("gzip",))
        sim.run(4000, warmup=0)
        assert 0 < len(committed) == sim.core.stats.committed
        expected = [s.addr for s, _, _ in
                    walk(sim.contexts[0].program, len(committed))]
        assert [di.pc for di in committed] == expected

    def test_commit_is_per_thread_in_order(self, observe_commits):
        """Two threads commit interleaved, each its own architectural
        path in fetch order."""
        with observe_commits() as committed:
            sim = build(("gzip", "eon"), policy="ICOUNT.2.8")
        sim.run(4000, warmup=0)
        stats = sim.core.stats
        assert len(committed) == stats.committed
        for tid, ctx in enumerate(sim.contexts):
            mine = [di for di in committed if di.tid == tid]
            assert 0 < len(mine) == stats.committed_by_thread[tid]
            assert all(a.seq < b.seq for a, b in zip(mine, mine[1:]))
            expected = [s.addr for s, _, _ in walk(ctx.program, len(mine))]
            assert [di.pc for di in mine] == expected

    def test_no_wrong_path_commits(self, finished_sim):
        assert finished_sim.core.stats.wrong_path_committed == 0

    def test_progress(self, finished_sim):
        assert finished_sim.core.stats.committed > 2000


class TestInvariants:
    def test_icount_matches_preissue_population(self):
        """After any cycle, icount == fetch buffer + latches + IQs."""
        sim = build(("gzip", "twolf"), policy="ICOUNT.2.8")
        core = sim.core
        fu = sim.fetch_unit
        for _ in range(600):
            core.tick()
        for tid in range(2):
            in_buffer = sum(1 for di in fu.fetch_buffer if di.tid == tid)
            in_latches = sum(1 for di in core.decode_latch
                             if di.tid == tid) \
                + sum(1 for di in core.rename_latch if di.tid == tid)
            in_iq = sum(1 for queue in core.iqs.queues for di in queue
                        if di.tid == tid)
            assert fu.icounts[tid] == in_buffer + in_latches + in_iq, \
                f"thread {tid} ICOUNT out of sync"

    def test_register_accounting_balances(self):
        sim = build(("eon",))
        core = sim.core
        for _ in range(800):
            core.tick()
        allocated_int = sum(
            1 for lst in core.rob.lists for di in lst
            if di.static.dest >= 0 and di.opclass.name != "FP_ALU")
        allocated_fp = sum(
            1 for lst in core.rob.lists for di in lst
            if di.static.dest >= 0 and di.opclass.name == "FP_ALU")
        total_int = core.config.int_regs - 32 * len(sim.contexts)
        total_fp = core.config.fp_regs - 32 * len(sim.contexts)
        assert core.regs.free_int == total_int - allocated_int
        assert core.regs.free_fp == total_fp - allocated_fp

    def test_rob_size_equals_thread_lists(self):
        sim = build(("gzip", "eon"), policy="ICOUNT.2.8")
        core = sim.core
        for _ in range(500):
            core.tick()
        assert core.rob.size == sum(len(lst) for lst in core.rob.lists)

    def test_queues_never_hold_squashed(self):
        sim = build(("gzip", "twolf"))
        core = sim.core
        for _ in range(800):
            core.tick()
            for q in core.iqs.queues:
                assert not any(di.squashed for di in q)
            for lst in core.rob.lists:
                assert not any(di.squashed for di in lst)

    def test_cycle_counter_advances(self):
        sim = build()
        sim.core.run(100)
        assert sim.core.cycle == 100
        assert sim.core.stats.cycles == 100


class TestSquashBehaviour:
    def test_squashes_happen_and_machine_recovers(self):
        sim = build(("gcc",))
        stats = sim.run(4000)
        assert sim.core.stats.squashes > 10
        assert stats.ipc > 0.3

    def test_decode_redirects_cheaper_than_squashes(self):
        """Misfetched jumps/calls repaired at decode must occur."""
        sim = build(("gcc",))
        sim.run(4000, warmup=0)
        assert sim.core.stats.decode_redirects > 0


class TestMultithreading:
    def test_all_threads_commit(self, finished_sim):
        assert all(c > 0
                   for c in finished_sim.core.stats.committed_by_thread)

    def test_smt_beats_single_thread(self):
        single = build(("eon",)).run(4000).ipc
        pair = build(("eon", "gzip"), policy="ICOUNT.2.8").run(4000).ipc
        assert pair > single * 1.1

    def test_memory_thread_does_not_deadlock(self):
        sim = build(("mcf", "twolf"), policy="ICOUNT.2.8")
        result = sim.run(4000)
        assert result.committed > 100
