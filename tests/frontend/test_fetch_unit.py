"""Integration tests for the decoupled fetch unit.

These drive the prediction and fetch stages directly (no execution
core): instructions accumulate in the fetch buffer, and the tests verify
correct-path tracking, divergence marking, policy behaviour and squash
recovery.
"""

import pytest

from repro.core.config import DEFAULT_CONFIG
from repro.frontend.engine import make_engine
from repro.frontend.fetch_unit import FetchUnit
from repro.frontend.policy import PolicySpec
from repro.memory.hierarchy import MemoryHierarchy
from repro.program import program_for
from repro.trace.context import ThreadContext


def build_unit(engine_kind="gshare+BTB", policy="ICOUNT.1.8",
               benchmarks=("gzip",), buffer_capacity=64, **overrides):
    """A fetch unit over the default machine, its fetch buffer resized
    (and any other ``SimConfig`` field overridden)."""
    config = DEFAULT_CONFIG.with_(fetch_buffer=buffer_capacity,
                                  **overrides)
    contexts = [ThreadContext(program_for(name, 0), tid)
                for tid, name in enumerate(benchmarks)]
    spec = PolicySpec.parse(policy)
    engine = make_engine(engine_kind, len(contexts), config)
    memory = MemoryHierarchy(config)
    for ctx in contexts:
        program = ctx.program
        memory.warm_instruction_side(ctx.tid, program.entry_addr,
                                     program.entry_addr
                                     + program.code_bytes)
    unit = FetchUnit(engine, spec, memory, contexts, config)
    return unit, contexts


def run_cycles(unit, n, drain=True, start=0):
    fetched = []
    for cycle in range(start, start + n):
        unit.fetch_stage(cycle)
        unit.predict_stage(cycle)
        if drain:
            while unit.fetch_buffer:
                di = unit.fetch_buffer.popleft()
                unit.icounts[di.tid] -= 1
                fetched.append(di)
    return fetched


def run_with_redirects(unit, contexts, cycles, start=0):
    """Drain + train + redirect: a minimal stand-in for the core.

    Correct-path branches train the engine at "resolve", every
    correct-path instruction "commits", and the first divergence per
    batch triggers an immediate redirect (zero-latency resolve).
    """
    fetched = []
    for cycle in range(start, start + cycles):
        unit.fetch_stage(cycle)
        unit.predict_stage(cycle)
        pending = None
        while unit.fetch_buffer:
            di = unit.fetch_buffer.popleft()
            unit.icounts[di.tid] -= 1
            fetched.append(di)
            if di.on_correct_path:
                if di.is_branch:
                    unit.engine.resolve_branch(di)
                unit.engine.commit(di)
                if di.diverges and pending is None:
                    pending = di
        if pending is not None:
            resume = contexts[pending.tid].recover()
            unit.redirect(pending.tid, resume, pending)
    return fetched


class TestBasicFetch:
    def test_delivers_instructions(self):
        unit, contexts = build_unit()
        fetched = run_with_redirects(unit, contexts, 2000)
        assert len(fetched) > 2000

    def test_correct_path_matches_architectural_walk(self):
        """Pre-divergence instructions must follow the true path."""
        unit, contexts = build_unit()
        fetched = run_cycles(unit, 500)
        correct = [di for di in fetched if di.on_correct_path]
        # Replay the architectural path independently.
        from repro.trace import walk
        expected = [s.addr for s, _, _ in
                    walk(contexts[0].program, len(correct))]
        got = [di.pc for di in correct]
        assert got == expected[:len(got)]

    def test_sequence_numbers_monotonic(self):
        unit, _ = build_unit()
        fetched = run_cycles(unit, 300)
        seqs = [di.seq for di in fetched if di.tid == 0]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == len(seqs)

    def test_divergence_unique_until_redirect(self):
        """At most one in-flight divergence per thread."""
        unit, contexts = build_unit()
        diverged_seen = False
        for cycle in range(400):
            unit.fetch_stage(cycle)
            unit.predict_stage(cycle)
            while unit.fetch_buffer:
                di = unit.fetch_buffer.popleft()
                unit.icounts[0] -= 1
                if di.diverges:
                    assert not diverged_seen
                    diverged_seen = True
                    # Immediately resolve it, as the core would.
                    resume = contexts[0].recover()
                    unit.redirect(0, resume, di)
                    diverged_seen = False
                if diverged_seen:
                    assert not di.on_correct_path


class TestRedirect:
    def test_redirect_resumes_on_correct_path(self):
        unit, contexts = build_unit()
        pending = None
        resumed = 0
        for cycle in range(600):
            unit.fetch_stage(cycle)
            unit.predict_stage(cycle)
            while unit.fetch_buffer:
                di = unit.fetch_buffer.popleft()
                unit.icounts[0] -= 1
                if di.diverges and pending is None:
                    pending = di
            if pending is not None:
                resume = contexts[0].recover()
                unit.redirect(0, resume, pending)
                assert unit.next_pc[0] == resume
                assert not unit.ftqs[0]
                pending = None
                resumed += 1
        assert resumed > 0

    def test_redirect_clears_thread_from_buffer(self):
        unit, contexts = build_unit(benchmarks=("gzip", "twolf"),
                                    policy="ICOUNT.2.8",
                                    buffer_capacity=4096)
        target = None
        for cycle in range(4000):
            unit.fetch_stage(cycle)
            unit.predict_stage(cycle)
            target = next((di for di in unit.fetch_buffer
                           if di.diverges and di.tid == 0), None)
            if target is not None:
                break
        assert target is not None
        other_before = [di for di in unit.fetch_buffer if di.tid != 0]
        resume = contexts[0].recover()
        unit.redirect(0, resume, target)
        survivors = list(unit.fetch_buffer)
        assert all(di.seq <= target.seq for di in survivors
                   if di.tid == 0)
        assert [di for di in survivors if di.tid != 0] == other_before

    def test_redirect_with_drained_buffer_is_a_noop_on_state(self):
        """The no-op fast path: squash with zero buffered remnants.

        The common case in the core is a squash whose wrong-path
        instructions were already drained by decode; redirect must then
        skip the buffer rebuild entirely — icounts untouched and control
        state still reset.
        """
        unit, contexts = build_unit(buffer_capacity=4096)
        target = None
        for cycle in range(4000):
            unit.fetch_stage(cycle)
            unit.predict_stage(cycle)
            target = next((di for di in unit.fetch_buffer if di.diverges),
                          None)
            if target is not None:
                break
        assert target is not None
        # Drain everything, as decode would, before the squash arrives.
        while unit.fetch_buffer:
            di = unit.fetch_buffer.popleft()
            unit.icounts[di.tid] -= 1
        assert unit.icounts[0] == 0
        resume = contexts[0].recover()
        unit.redirect(0, resume, target)
        assert unit.icounts[0] == 0
        assert len(unit.fetch_buffer) == 0
        assert unit.next_pc[0] == resume
        assert unit.blocked_until[0] == 0
        assert not unit.ftqs[0]

    def test_redirect_noop_leaves_other_threads_entries_untouched(self):
        """Fast path with a non-empty buffer owned by other threads.

        When the buffer holds only entries of *other* threads (or older
        entries of the squashed one), nothing is removed: the surviving
        entries must be the same objects in the same order, unmarked,
        and no icount may move.
        """
        unit, contexts = build_unit(benchmarks=("gzip", "twolf"),
                                    policy="ICOUNT.2.8",
                                    buffer_capacity=4096)
        target = None
        for cycle in range(4000):
            unit.fetch_stage(cycle)
            unit.predict_stage(cycle)
            target = next((di for di in unit.fetch_buffer
                           if di.diverges and di.tid == 0), None)
            if target is not None:
                break
        assert target is not None
        # Decode consumes every thread-0 entry; thread 1's stay queued.
        kept = [di for di in unit.fetch_buffer if di.tid == 1]
        drained = [di for di in unit.fetch_buffer if di.tid == 0]
        assert kept and drained
        unit.fetch_buffer.clear()
        unit.fetch_buffer.extend(kept)
        unit.icounts[0] -= len(drained)
        icounts_before = list(unit.icounts)
        resume = contexts[0].recover()
        unit.redirect(0, resume, target)
        survivors = list(unit.fetch_buffer)
        assert survivors == kept
        assert all(a is b for a, b in zip(survivors, kept))
        assert not any(di.squashed for di in survivors)
        assert unit.icounts == icounts_before

    def test_icounts_track_buffer_after_redirect(self):
        unit, contexts = build_unit(buffer_capacity=4096)
        target = None
        for cycle in range(4000):
            unit.fetch_stage(cycle)
            unit.predict_stage(cycle)
            target = next((di for di in unit.fetch_buffer if di.diverges),
                          None)
            if target is not None:
                break
        assert target is not None
        resume = contexts[0].recover()
        unit.redirect(0, resume, target)
        assert unit.icounts[0] == len(unit.fetch_buffer)


class TestPolicies:
    def test_two_thread_fetch_interleaves(self):
        unit, _ = build_unit(benchmarks=("gzip", "eon"),
                             policy="ICOUNT.2.8")
        fetched = run_cycles(unit, 300)
        tids = {di.tid for di in fetched}
        assert tids == {0, 1}

    def test_single_thread_policy_one_thread_per_cycle(self):
        unit, _ = build_unit(benchmarks=("gzip", "eon"),
                             policy="ICOUNT.1.8")
        for cycle in range(100):
            unit.fetch_stage(cycle)
            unit.predict_stage(cycle)
            # The buffer is cleared every cycle, so it holds only what
            # this cycle fetched.
            cycle_tids = {di.tid for di in unit.fetch_buffer}
            assert len(cycle_tids) <= 1
            unit.fetch_buffer.clear()
            unit.icounts[0] = unit.icounts[1] = 0

    def test_width_limit_respected(self):
        for policy, width in (("ICOUNT.1.8", 8), ("ICOUNT.2.8", 8),
                              ("ICOUNT.1.16", 16), ("ICOUNT.2.16", 16)):
            unit, _ = build_unit(benchmarks=("gzip", "eon"),
                                 policy=policy, engine_kind="stream")
            for cycle in range(200):
                unit.fetch_stage(cycle)
                unit.predict_stage(cycle)
                delivered = len(unit.fetch_buffer)
                assert delivered <= width
                unit.fetch_buffer.clear()
                unit.icounts[0] = unit.icounts[1] = 0

    def test_fetch_buffer_capacity_respected(self):
        unit, _ = build_unit(buffer_capacity=32)
        run_cycles(unit, 200, drain=False)
        assert len(unit.fetch_buffer) <= 32


class TestStats:
    def test_ipfc_positive_and_bounded(self):
        unit, _ = build_unit()
        run_cycles(unit, 300)
        assert 0 < unit.stats.ipfc <= 8

    def test_histogram_sums_to_fetch_cycles(self):
        unit, _ = build_unit()
        run_cycles(unit, 300)
        assert sum(unit.stats.delivered_histogram) == \
            unit.stats.fetch_cycles

    def test_delivered_at_least_monotone(self):
        unit, _ = build_unit()
        run_cycles(unit, 300)
        fractions = [unit.stats.delivered_at_least(n) for n in range(9)]
        assert all(a >= b for a, b in zip(fractions, fractions[1:]))
        assert fractions[0] == 1.0

    def test_wrong_path_counted(self):
        unit, contexts = build_unit()
        run_cycles(unit, 300)
        # Without redirects, once diverged everything is wrong-path.
        assert unit.stats.wrong_path_fetched > 0


class TestEngineComparison:
    """The paper's core ranking on fetch-block size must hold."""

    def test_stream_requests_longer_than_btb(self):
        ipfc = {}
        for kind in ("gshare+BTB", "gskew+FTB", "stream"):
            unit, contexts = build_unit(engine_kind=kind,
                                        policy="ICOUNT.1.16")
            run_with_redirects(unit, contexts, 6000)
            ipfc[kind] = unit.stats.ipfc
        assert ipfc["stream"] > ipfc["gshare+BTB"]
        assert ipfc["gskew+FTB"] > ipfc["gshare+BTB"]
