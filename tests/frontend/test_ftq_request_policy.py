"""Tests for fetch requests, FTQs and fetch policies."""

import random
import re

import pytest

from repro.core.config import DEFAULT_CONFIG
from repro.frontend.engine import make_engine
from repro.frontend.fetch_unit import FetchUnit
from repro.frontend.policy import ICount, PolicySpec
from repro.frontend.request import FetchRequest
from repro.memory.hierarchy import MemoryHierarchy
from repro.program import program_for
from repro.trace.context import ThreadContext


def build_unit(**overrides):
    """A one-thread (gzip) fetch unit over the default machine, with
    any ``SimConfig`` field overridden."""
    config = DEFAULT_CONFIG.with_(**overrides)
    ctx = ThreadContext(program_for("gzip", 0), 0)
    unit = FetchUnit(make_engine("gshare+BTB", 1, config),
                     PolicySpec.parse("ICOUNT.1.8"),
                     MemoryHierarchy(config), [ctx], config)
    return unit, ctx


class TestFetchRequest:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            FetchRequest(0, 0x1000, 0, 0x2000)

    def test_defaults_non_branch(self):
        r = FetchRequest(0, 0x1000, 4, 0x1010)
        assert not r.term_is_branch
        assert not r.term_taken


class TestFetchTargetQueue:
    """Each thread's FTQ is a plain deque the fetch unit owns."""

    def test_fifo_order(self):
        unit, ctx = build_unit()
        for cycle in range(3):
            unit.predict_stage(cycle)
        a, b, c = unit.ftqs[0]
        assert a.start_pc == ctx.program.entry_addr
        assert b.start_pc == a.next_pc
        assert c.start_pc == b.next_pc
        # The fetch stage drains the head request before the next one.
        for cycle in range(3, 500):
            if unit.ftqs[0][0] is not a:
                break
            unit.fetch_stage(cycle)
        assert unit.ftqs[0][0] is b
        fetched = list(unit.fetch_buffer)
        assert len(fetched) == a.length
        assert all(di.request is a for di in fetched)
        assert fetched[0].pc == a.start_pc

    def test_capacity(self):
        unit, _ = build_unit(ftq_depth=2)
        for cycle in range(10):
            unit.predict_stage(cycle)
        assert len(unit.ftqs[0]) == 2
        assert unit.stats.predictions == 2

    def test_clear(self):
        # A squash empties the thread's FTQ, and prediction restarts at
        # the resume PC.
        unit, ctx = build_unit(fetch_buffer=4096)
        target = None
        for cycle in range(4000):
            unit.fetch_stage(cycle)
            unit.predict_stage(cycle)
            target = next((di for di in unit.fetch_buffer if di.diverges),
                          None)
            if target is not None:
                break
        assert target is not None
        assert unit.ftqs[0]
        resume = ctx.recover()
        unit.redirect(0, resume, target)
        assert not unit.ftqs[0]
        assert len(unit.ftqs[0]) == 0
        unit.predict_stage(cycle + 1)
        assert unit.ftqs[0][0].start_pc == resume

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError, match="FTQ depth must be >= 1"):
            build_unit(ftq_depth=0)


class TestPolicySpec:
    @pytest.mark.parametrize("spec,expected", [
        ("ICOUNT.1.8", ("ICOUNT", 1, 8)),
        ("ICOUNT.2.16", ("ICOUNT", 2, 16)),
        ("RR.2.8", ("RR", 2, 8)),
        ("icount.1.16", ("ICOUNT", 1, 16)),
    ])
    def test_parse(self, spec, expected):
        p = PolicySpec.parse(spec)
        assert (p.name, p.threads_per_cycle, p.width) == expected

    def test_str_round_trip(self):
        assert str(PolicySpec.parse("ICOUNT.2.8")) == "ICOUNT.2.8"

    @pytest.mark.parametrize("bad,message", [
        pytest.param(bad, message, id=bad) for bad, message in [
            ("ICOUNT", "must look like 'ICOUNT.2.8', got 'ICOUNT'"),
            ("FOO.1.8", "unknown fetch policy 'FOO'"),
            ("ICOUNT.0.8", "bad policy parameters in 'ICOUNT.0.8'"),
            ("ICOUNT.1.0", "bad policy parameters in 'ICOUNT.1.0'"),
            ("ICOUNT.1", "must look like 'ICOUNT.2.8', got 'ICOUNT.1'"),
            ("ICOUNT.x.8", "bad policy parameters in 'ICOUNT.x.8'"),
        ]])
    def test_parse_rejects(self, bad, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            PolicySpec.parse(bad)

    @pytest.mark.parametrize("name", ["RR", "ICOUNT"])
    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("width", [8, 16, 32])
    def test_parse_round_trip_across_widths(self, name, threads, width):
        spec = f"{name}.{threads}.{width}"
        parsed = PolicySpec.parse(spec)
        assert str(parsed) == spec
        assert PolicySpec.parse(str(parsed)) == parsed

    def test_for_threads_clamps_with_warning(self):
        spec = PolicySpec.parse("ICOUNT.2.8")
        with pytest.warns(UserWarning, match="clamping"):
            clamped = spec.for_threads(1)
        assert clamped == PolicySpec("ICOUNT", 1, 8)
        assert str(clamped) == "ICOUNT.1.8"

    def test_for_threads_no_op_when_satisfiable(self):
        import warnings
        spec = PolicySpec.parse("ICOUNT.2.8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert spec.for_threads(2) is spec
            assert spec.for_threads(4) is spec

    def test_for_threads_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            PolicySpec.parse("RR.1.8").for_threads(0)

    def test_simulator_clamps_overwide_policy(self):
        # End to end: a 2.8 policy on a single-thread workload runs as
        # 1.8 (and warns) instead of simulating two-thread arbitration
        # that no real fetch could exercise.
        from repro.core.simulator import simulate
        with pytest.warns(UserWarning, match="clamping"):
            result = simulate(("gzip",), engine="stream",
                              policy="ICOUNT.2.8", cycles=200, warmup=100)
        assert result.policy == "ICOUNT.1.8"
        assert result.bank_conflicts == 0


class TestRoundRobin:
    """RR is ICOUNT's order over equal counts: rotation alone decides."""

    def test_rotates(self):
        policy = ICount(4)
        threads = [0, 1, 2, 3]
        assert policy.order(0, threads, [0] * 4)[0] == 0
        assert policy.order(1, threads, [0] * 4)[0] == 1
        assert policy.order(5, threads, [0] * 4)[0] == 1

    def test_subset_candidates(self):
        policy = ICount(4)
        assert policy.order(1, [0, 3], [0] * 4) == [3, 0]


class TestICount:
    def test_prefers_emptiest_thread(self):
        policy = ICount(3)
        order = policy.order(0, [0, 1, 2], [10, 2, 5])
        assert order == [1, 2, 0]

    def test_tiebreak_rotates(self):
        policy = ICount(2)
        counts = [4, 4]
        assert policy.order(0, [0, 1], counts)[0] == 0
        assert policy.order(1, [0, 1], counts)[0] == 1

    def test_starved_thread_deprioritised(self):
        # A thread hogging the pipeline should fall to the back.
        policy = ICount(2)
        assert policy.order(0, [0, 1], [30, 0]) == [1, 0]

    def test_orders_any_number_of_candidates(self):
        # More candidates than any Table 2 workload has threads: the
        # insertion sort alone orders them, by (count, rotation).
        n = 12
        policy = ICount(n)
        rng = random.Random(12)
        for cycle in range(3 * n):
            counts = [rng.randrange(4) for _ in range(n)]
            candidates = list(range(n))
            rng.shuffle(candidates)
            expected = sorted(candidates,
                              key=lambda t: (counts[t], (t - cycle) % n))
            assert policy.order(cycle, candidates, counts) is candidates
            assert candidates == expected
