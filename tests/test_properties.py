"""Cross-cutting property-based tests on whole-simulator invariants.

These sample small random points of the configuration space and assert
the invariants that every paper experiment silently relies on:
committed work equals the architectural path, metrics stay consistent,
and determinism holds.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.simulator import Simulator
from repro.trace import walk

ENGINES = ("gshare+BTB", "gskew+FTB", "stream")
POLICIES = ("ICOUNT.1.8", "ICOUNT.2.8", "ICOUNT.1.16", "RR.1.8")
PAIRS = (("gzip", "eon"), ("mcf", "gzip"), ("twolf", "gcc"),
         ("eon", "bzip2"))

slow = settings(max_examples=6, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


# `observe_commits` keeps no state between its blocks, so sharing the
# fixture across examples is safe.
@settings(slow, suppress_health_check=[HealthCheck.too_slow,
                                       HealthCheck.function_scoped_fixture])
@given(engine=st.sampled_from(ENGINES), policy=st.sampled_from(POLICIES),
       pair=st.sampled_from(PAIRS))
def test_committed_stream_is_the_architectural_path(observe_commits, engine,
                                                    policy, pair):
    """No configuration may commit anything off the correct path."""
    with observe_commits() as committed:
        sim = Simulator(pair, engine=engine, policy=policy)
    sim.run(1200, warmup=0)
    assert 0 < len(committed) == sim.core.stats.committed
    for tid, ctx in enumerate(sim.contexts):
        pcs = [di.pc for di in committed if di.tid == tid]
        expected = [s.addr for s, _, _ in walk(ctx.program, len(pcs))]
        assert pcs == expected


@slow
@given(engine=st.sampled_from(ENGINES), policy=st.sampled_from(POLICIES))
def test_metric_consistency(engine, policy):
    """IPC/IPFC and the histograms must agree with raw counters."""
    sim = Simulator(("gzip", "twolf"), engine=engine, policy=policy)
    result = sim.run(900, warmup=300)
    assert result.ipc * result.cycles == pytest.approx(result.committed)
    fetch_stats = sim.fetch_unit.stats
    assert sum(fetch_stats.delivered_histogram) == result.fetch_cycles
    assert result.ipfc * max(result.fetch_cycles, 1) == \
        pytest.approx(fetch_stats.fetched_instructions)
    assert sum(result.committed_by_thread) == result.committed
    assert result.squashes >= 0
    assert 0 <= result.l1d_miss_rate <= 1


@slow
@given(engine=st.sampled_from(ENGINES),
       policy=st.sampled_from(("ICOUNT.2.8", "ICOUNT.1.16")))
def test_determinism_across_runs(engine, policy):
    """Two identical simulations must agree bit-for-bit on metrics."""
    def run():
        sim = Simulator(("gzip", "mcf"), engine=engine, policy=policy)
        return sim.run(700, warmup=200)
    a, b = run(), run()
    assert a.committed == b.committed
    assert a.ipfc == b.ipfc
    assert a.squashes == b.squashes


@slow
@given(policy=st.sampled_from(POLICIES))
def test_icount_never_negative(policy):
    """The ICOUNT accounting can never go negative under any policy."""
    sim = Simulator(("gcc", "twolf"), engine="gshare+BTB", policy=policy)
    for _ in range(800):
        sim.core.tick()
        assert all(c >= 0 for c in sim.fetch_unit.icounts)
