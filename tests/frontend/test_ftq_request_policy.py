"""Tests for fetch requests, FTQs and fetch policies."""

import re

import pytest

from repro.frontend.ftq import FetchTargetQueue
from repro.frontend.policy import ICount, PolicySpec, RoundRobin
from repro.frontend.request import FetchRequest


class TestFetchRequest:
    def test_progress_tracking(self):
        r = FetchRequest(0, 0x1000, 12, 0x2000)
        assert r.remaining == 12
        assert r.current_pc == 0x1000
        r.consumed = 5
        assert r.remaining == 7
        assert r.current_pc == 0x1000 + 5 * 4

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            FetchRequest(0, 0x1000, 0, 0x2000)

    def test_defaults_non_branch(self):
        r = FetchRequest(0, 0x1000, 4, 0x1010)
        assert not r.term_is_branch
        assert not r.term_taken


class TestFetchTargetQueue:
    def test_fifo_order(self):
        q = FetchTargetQueue(4)
        a = FetchRequest(0, 0x1000, 4, 0x1010)
        b = FetchRequest(0, 0x2000, 4, 0x2010)
        q.push(a)
        q.push(b)
        assert q.head() is a
        assert q.pop_head() is a
        assert q.head() is b

    def test_capacity(self):
        q = FetchTargetQueue(2)
        q.push(FetchRequest(0, 0, 1, 4))
        q.push(FetchRequest(0, 4, 1, 8))
        assert q.full
        with pytest.raises(OverflowError):
            q.push(FetchRequest(0, 8, 1, 12))

    def test_clear(self):
        q = FetchTargetQueue(2)
        q.push(FetchRequest(0, 0, 1, 4))
        q.clear()
        assert q.empty
        assert len(q) == 0

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            FetchTargetQueue(0)


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

    def test_make(self):
        assert isinstance(PolicySpec.parse("RR.1.8").make(2), RoundRobin)
        assert isinstance(PolicySpec.parse("ICOUNT.1.8").make(2), ICount)

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
    def test_rotates(self):
        policy = RoundRobin(4)
        threads = [0, 1, 2, 3]
        assert policy.order(0, threads, [0] * 4)[0] == 0
        assert policy.order(1, threads, [0] * 4)[0] == 1
        assert policy.order(5, threads, [0] * 4)[0] == 1

    def test_subset_candidates(self):
        policy = RoundRobin(4)
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
