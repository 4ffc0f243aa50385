"""Tests for the simulator facade and result bundling."""

import inspect
from dataclasses import fields, replace

import pytest

from repro.core import SimConfig, Simulator, simulate
from repro.core.config import DEFAULT_CONFIG
from repro.frontend import GShareBtbEngine, GSkewFtbEngine, \
    StreamFetchEngine, make_engine
from repro.frontend.fetch_unit import FetchUnit
from repro.memory.hierarchy import MemoryHierarchy
from repro.pipeline.core import SmtCore
from repro.program import SPECINT2000, generate_program
from repro.trace import walk
from repro.trace.context import ThreadContext


class TestSimulateEntryPoint:
    def test_named_workload(self):
        result = simulate("2_MIX", cycles=1500, warmup=500)
        assert result.workload == "2_MIX"
        assert result.cycles == 1500
        assert result.committed > 0

    def test_explicit_benchmarks(self):
        result = simulate(("gzip",), cycles=1500, warmup=500)
        assert result.workload == "gzip"
        assert len(result.committed_by_thread) == 1

    def test_unknown_workload(self):
        with pytest.raises(KeyError, match="unknown workload"):
            simulate("5_WAT", cycles=100)

    def test_empty_benchmarks(self):
        with pytest.raises(ValueError):
            Simulator(())

    @pytest.mark.parametrize("engine", ["gshare+BTB", "gskew+FTB",
                                        "stream"])
    def test_all_engines_run(self, engine):
        result = simulate("2_MIX", engine=engine, cycles=1200, warmup=400)
        assert result.engine == engine
        assert result.ipc > 0

    @pytest.mark.parametrize("policy", ["ICOUNT.1.8", "ICOUNT.2.8",
                                        "ICOUNT.1.16", "ICOUNT.2.16",
                                        "RR.1.8", "RR.2.8"])
    def test_all_policies_run(self, policy):
        result = simulate("2_MIX", policy=policy, cycles=1200, warmup=400)
        assert result.policy == policy
        assert result.ipc > 0


class TestDeterminism:
    def test_same_run_same_numbers(self):
        a = simulate("2_MIX", cycles=1500, warmup=500)
        b = simulate("2_MIX", cycles=1500, warmup=500)
        assert a.ipc == b.ipc
        assert a.ipfc == b.ipfc
        assert a.committed_by_thread == b.committed_by_thread

    def test_seed_changes_numbers(self):
        a = simulate("2_MIX", cycles=1500, warmup=500)
        b = simulate("2_MIX", cycles=1500, warmup=500,
                     config=SimConfig(seed=3))
        assert a.committed != b.committed


class TestWarmup:
    def test_warmup_resets_statistics(self):
        sim = Simulator(("gzip",))
        result = sim.run(1000, warmup=1000)
        assert result.cycles == 1000

    def test_zero_warmup_allowed(self):
        result = simulate(("gzip",), cycles=800, warmup=0)
        assert result.cycles == 800

    def test_warm_start_beats_cold_start(self):
        cold = simulate(("eon",), cycles=2500, warmup=0)
        warm = simulate(("eon",), cycles=2500, warmup=6000)
        assert warm.ipc > cold.ipc


class TestResultFields:
    @pytest.fixture(scope="class")
    def result(self):
        return simulate("2_MIX", engine="stream", policy="ICOUNT.1.16",
                        cycles=2500, warmup=1500)

    def test_ipc_consistency(self, result):
        assert result.ipc == pytest.approx(result.committed / result.cycles)

    def test_per_thread_sums_to_total(self, result):
        assert sum(result.committed_by_thread) == result.committed

    def test_per_thread_ipc(self, result):
        per_thread = result.per_thread_ipc()
        assert sum(per_thread) == pytest.approx(result.ipc, rel=1e-9)

    def test_delivered_distribution_monotone(self, result):
        dist = result.delivered_at_least
        assert dist[1] >= dist[4] >= dist[8] >= dist[16]

    def test_miss_rates_in_unit_interval(self, result):
        for rate in (result.l1i_miss_rate, result.l1d_miss_rate,
                     result.l2_miss_rate):
            assert 0.0 <= rate <= 1.0

    def test_engine_stats_present(self, result):
        assert "stream_hit_rate" in result.engine_stats

    def test_label(self, result):
        assert result.label == "2_MIX/stream/ICOUNT.1.16"


class TestConfigPlumbing:
    def test_policy_width_respected(self):
        narrow = simulate(("gzip",), policy="ICOUNT.1.8", cycles=1500)
        assert narrow.ipfc <= 8.0

    def test_bank_conflicts_only_with_two_threads(self):
        single = simulate("2_MIX", policy="ICOUNT.1.8", cycles=1500)
        dual = simulate("2_MIX", policy="ICOUNT.2.8", cycles=1500)
        assert single.bank_conflicts == 0
        assert dual.bank_conflicts >= 0

    def test_custom_config_applies(self):
        """Each field reaches the component that uses it."""
        sizes = dict(dmshr_entries=4, ftq_depth=2, fetch_buffer=24,
                     rob_entries=64, iq_int=16, gshare_history=9)
        assert all(getattr(DEFAULT_CONFIG, name) != value
                   for name, value in sizes.items())
        sim = Simulator(("gzip", "eon"),
                        config=DEFAULT_CONFIG.with_(**sizes))
        assert sim.memory.dmshr.capacity == 4
        assert sim.fetch_unit.fetch_buffer_capacity == 24
        assert sim.core.rob.capacity == 64
        assert sim.core.iqs.capacity[0] == 16
        assert sim.engine.gshare.history_bits == 9
        assert [ghr.bits for ghr in sim.engine.ghr] == [9, 9]
        # The prediction stage, with fetch stalled, runs each thread's
        # FTQ up to the depth and no further.
        unit = sim.fetch_unit
        for cycle in range(8):
            unit.predict_stage(cycle)
        assert [len(ftq) for ftq in unit.ftqs] == [2, 2]

    @pytest.mark.parametrize("build", [
        MemoryHierarchy, FetchUnit, SmtCore, make_engine, GShareBtbEngine,
        GSkewFtbEngine, StreamFetchEngine], ids=lambda build: build.__name__)
    def test_no_component_repeats_a_config_field(self, build):
        """``SimConfig`` is the one place a machine size is declared:
        each component takes the whole config, and no size of its own
        that could drift from it."""
        params = inspect.signature(build).parameters
        assert not set(params) & {f.name for f in fields(SimConfig)}
        assert params["config"].default is inspect.Parameter.empty


class TestProgramEntries:
    @pytest.fixture(scope="class")
    def custom(self):
        """A program no benchmark name generates: mcf's profile, cut
        down and renamed (the name salts every draw)."""
        profile = replace(SPECINT2000["mcf"], name="chaser",
                          n_functions=8, blocks_per_function=30)
        return generate_program(profile, seed=1)

    def test_a_program_runs_where_a_name_would(self, custom,
                                               observe_commits):
        """Thread 1 commits along the custom program's own walk."""
        with observe_commits() as committed:
            sim = Simulator(("eon", custom), engine="stream")
        assert sim.workload_name == "eon+chaser"
        assert sim.contexts[1].program is custom
        sim.run(3000, warmup=0)
        pcs = [di.pc for di in committed if di.tid == 1]
        assert 0 < len(pcs) == sim.core.stats.committed_by_thread[1]
        assert pcs == [s.addr for s, _, _ in walk(custom, len(pcs))]

    def test_contexts_cannot_be_swapped_after_the_build(self, custom):
        """The fetch stage captured thread 1's structures at the build,
        so a swapped context would be ignored; the swap raises instead."""
        sim = Simulator(("eon", "eon"))
        with pytest.raises(TypeError):
            sim.contexts[1] = ThreadContext(custom, tid=1)
