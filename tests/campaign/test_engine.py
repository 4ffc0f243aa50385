"""Campaign identity and multi-worker execution parity.

The acceptance invariants of the campaign layer: the id is a pure
function of the planned cell set (not of cache state, worker count or
backend name), and N workers draining one queue produce
bit-identical results to the single-process path.
"""

import signal
import sqlite3
import time

import pytest

from repro.campaign import (
    Campaign,
    CellQueue,
    campaign_id,
    drain,
    key_for,
)
from repro.campaign import cells as cells_mod
from repro.campaign import manifest
from repro.campaign import worker as worker_mod
from repro.campaign.cells import descriptor_for
from repro.campaign.manifest import QUEUE_NAME, read_campaign_id
from repro.campaign.worker import worker_process_entry
from repro.core.config import DEFAULT_CONFIG
from repro.core.metrics import SimResult
from repro.experiments import ExperimentSession
from repro.experiments.cache import ResultCache
from repro.obs.journal import NULL_JOURNAL, read_events
from repro.resilience import FaultSpec, inject_faults
from repro.resilience.faults import fault_label

FAST = dict(cycles=300, warmup=150)


def grid(session, seeds=(0, 1), policies=("ICOUNT.1.8", "RR.1.8")):
    return [session.make_cell("2_MIX", "stream", policy, None, None,
                              session.config.with_(seed=seed))
            for policy in policies for seed in seeds]


def as_dicts(results):
    return [results[cell].to_dict() for cell in sorted(
        results, key=lambda c: (c.policy, c.config.seed))]


class TestCampaignIdentity:
    def test_id_is_order_and_duplicate_insensitive(self):
        session = ExperimentSession(**FAST)
        cells = grid(session)
        descriptors = [descriptor_for(cell) for cell in cells]
        assert campaign_id(descriptors) \
            == campaign_id(list(reversed(descriptors))) \
            == campaign_id(descriptors + descriptors[:2])

    def test_id_ignores_the_backend(self):
        # The id hashes backend-normalized descriptors, so campaigns
        # planned when other backends existed keep their ids.
        ref = ExperimentSession(**FAST)
        bat = ExperimentSession(
            config=DEFAULT_CONFIG.with_(backend="batched"), **FAST)
        assert ref.plan(grid(ref)).campaign_id \
            == bat.plan(grid(bat)).campaign_id

    def test_id_changes_when_the_grid_changes(self):
        session = ExperimentSession(**FAST)
        assert session.plan(grid(session)).campaign_id \
            != session.plan(grid(session, seeds=(0,))).campaign_id

    def test_warm_plan_names_the_same_campaign(self, tmp_path):
        session = ExperimentSession(cache_dir=tmp_path / "cache", **FAST)
        cells = grid(session, seeds=(0,), policies=("ICOUNT.1.8",))
        cold = session.plan(cells)
        assert cold.misses                      # genuinely cold
        session.run_cells(cells)
        warm = session.plan(cells)
        assert warm.campaign_id == cold.campaign_id
        assert not warm.misses
        assert warm.as_dict() == cold.as_dict() \
            == {"campaign": cold.campaign_id, "cells": 1}

    def test_run_cells_records_the_campaign(self, tmp_path):
        session = ExperimentSession(cache_dir=tmp_path / "cache", **FAST)
        session.run_cells(grid(session, seeds=(0,)))
        assert session.last_campaign is not None
        assert len(session.last_campaign.by_key) == 2


class TestPlanOnce:
    """A batch is planned once: execution and persistence take the
    plan they are given and never dedup, hash or probe again."""

    def test_execute_runs_the_plan_it_is_given(self, tmp_path,
                                               count_calls):
        session = ExperimentSession(cache_dir=tmp_path / "cache", **FAST)
        cells = grid(session, seeds=(0,))
        plan = session.plan(cells + cells)
        calls = count_calls((ExperimentSession, "plan"),
                            (ExperimentSession, "_lookup"),
                            (ResultCache, "get"),
                            (manifest, "campaign_id"),
                            (cells_mod, "key_for"))
        results = session.execute(plan)
        assert not calls
        assert set(results) == set(cells)
        assert session.simulated == 2
        assert session.last_campaign is plan

    def test_plan_campaign_persists_the_given_plan(self, tmp_path,
                                                   count_calls):
        session = ExperimentSession(
            cache_dir=tmp_path / "cache",
            campaign_dir=str(tmp_path / "campaigns"), **FAST)
        plan = session.plan(grid(session, seeds=(0,)))
        calls = count_calls((ExperimentSession, "plan"),
                            (ResultCache, "get"),
                            (manifest, "campaign_id"))
        session.plan_campaign(plan)
        assert not calls
        assert session.last_campaign is plan
        cdir = tmp_path / "campaigns" / plan.campaign_id
        assert read_campaign_id(cdir) == plan.campaign_id
        with CellQueue(cdir / QUEUE_NAME) as queue:
            assert queue.counts() == {"pending": 2}

    def test_plan_campaign_needs_a_campaign_dir(self):
        session = ExperimentSession(**FAST)
        with pytest.raises(ValueError, match="campaign_dir"):
            session.plan_campaign(session.plan(grid(session)))

    def test_campaign_opens_under_the_id_it_is_given(self, tmp_path):
        session = ExperimentSession(**FAST)
        planned = {key_for(c): descriptor_for(c)
                   for c in grid(session, seeds=(0,))}
        with Campaign.open("feedfacefeedface", planned, [],
                           root=tmp_path / "campaigns") as campaign:
            assert campaign.id == "feedfacefeedface"
        assert read_campaign_id(tmp_path / "campaigns"
                                / "feedfacefeedface") \
            == "feedfacefeedface"


class TestWorkerParity:
    def test_two_spawned_workers_match_single_process(self, tmp_path):
        serial = ExperimentSession(cache_dir=tmp_path / "a", **FAST)
        results_1 = serial.run_cells(grid(serial))
        fleet = ExperimentSession(cache_dir=tmp_path / "b", jobs=2,
                                  **FAST)
        results_2 = fleet.run_cells(grid(fleet))
        assert fleet.simulated == 4
        assert as_dicts(results_2) == as_dicts(results_1)

    def test_spawned_fleet_records_only_the_journal(self, tmp_path):
        # The journal is the campaign's one telemetry record: each
        # spawned worker narrates its exit there, and nothing else
        # (no per-process metrics export) lands beside it.
        fleet = ExperimentSession(cache_dir=tmp_path / "cache", jobs=2,
                                  campaign_dir=str(tmp_path / "campaigns"),
                                  **FAST)
        fleet.run_cells(grid(fleet))
        (cdir,) = (tmp_path / "campaigns").iterdir()
        names = {p.name for p in cdir.iterdir()}
        assert {"manifest.json", QUEUE_NAME, "events.jsonl"} <= names
        assert "metrics" not in names
        exits = [e for e in read_events(cdir / "events.jsonl")
                 if e["ev"] == "worker_exit"]
        assert len({e["worker"] for e in exits}) == 2
        assert sum(e["executed"] for e in exits) == 4

    def test_each_worker_settles_its_cell_before_leasing_again(
            self, tmp_path):
        # A lease is one cell: in the journal, every lease of a worker
        # is settled (here by an ack, or the nack of the injected
        # failure) before that worker's next lease.
        fleet = ExperimentSession(cache_dir=tmp_path / "cache", jobs=2,
                                  campaign_dir=str(tmp_path / "campaigns"),
                                  retries=1, **FAST)
        with inject_faults(FaultSpec(kind="raise", match="seed0",
                                     times=1),
                           spool=tmp_path / "spool"):
            fleet.run_cells(grid(fleet))
        cid = fleet.last_campaign.campaign_id
        events = read_events(tmp_path / "campaigns" / cid / "events.jsonl")
        settles = ("ack", "nack", "unlease", "release", "lease_expired")
        held: dict[str, str] = {}
        leases = 0
        for ev in events:
            worker = ev["worker"]
            if ev["ev"] == "lease":
                assert worker not in held, \
                    f"{worker} leased {ev['key']} holding {held[worker]}"
                held[worker] = ev["key"]
                leases += 1
            elif ev["ev"] in settles and held.get(worker) == ev["key"]:
                del held[worker]
        assert held == {}
        assert leases == 5                      # 4 cells, 1 retry
        assert [e["ev"] for e in events].count("nack") == 1

    def test_spawned_workers_settle_a_dead_owners_lease(self, tmp_path):
        # The supervisor runs no sweep of its own: a spawned worker's
        # lease settles the expired row of an owner that is gone (its
        # lost attempt charged), and the fleet finishes the campaign.
        fleet = ExperimentSession(cache_dir=tmp_path / "cache", jobs=2,
                                  campaign_dir=str(tmp_path / "campaigns"),
                                  retries=1, **FAST)
        plan = fleet.plan(grid(fleet))
        fleet.plan_campaign(plan)
        cdir = tmp_path / "campaigns" / plan.campaign_id
        with CellQueue(cdir / QUEUE_NAME) as queue:
            orphan = queue.lease("ghost", lease_seconds=0.01)
        time.sleep(0.05)
        results = fleet.execute(plan)
        assert len(results) == 4
        with CellQueue(cdir / QUEUE_NAME) as queue:
            assert queue.counts() == {"done": 4}
        expired = [(e["key"], e["worker"])
                   for e in read_events(cdir / "events.jsonl")
                   if e["ev"] == "lease_expired"]
        assert expired == [(orphan.key, "ghost")]

    def test_two_manual_workers_partition_one_queue(self, tmp_path):
        # The standalone-worker contract without processes: two queue
        # connections share one file.  Worker a holds a lease on one
        # cell while b drains the other three, then a settles its cell
        # through the worker's own execute-persist-ack step.  Every row
        # resolves, each worker ran its share, and the stored results
        # parse back bit-identical to inline execution.
        session = ExperimentSession(**FAST)
        cells = grid(session)
        inline = session.run_cells(cells)

        planned = {key_for(c): descriptor_for(c) for c in cells}
        misses = [(key, descriptor, fault_label(descriptor))
                  for key, descriptor in planned.items()]
        campaign = Campaign.open(campaign_id(planned.values()), planned,
                                 misses, root=tmp_path / "campaigns",
                                 need_file=True)
        try:
            with CellQueue(campaign.queue_file) as a, \
                    CellQueue(campaign.queue_file) as b:
                held = a.lease("a")
                stats_b = drain(b, worker_id="b", wait=False)
                assert campaign.queue.counts() == {"done": 3, "leased": 1}
                stats_a = worker_mod.DrainStats()
                worker_mod._run_cell(a, held, worker_id="a", cache=None,
                                     cell_timeout=None, isolate=False,
                                     stats=stats_a, journal=NULL_JOURNAL)
            assert (stats_a.executed, stats_b.executed) == (1, 3)
            assert campaign.queue.counts() == {"done": 4}
            outcomes = campaign.outcomes(planned)
            assert all(isinstance(o, SimResult)
                       for o in outcomes.values())
            assert {key: outcomes[key].to_dict() for key in planned} \
                == {key_for(c): inline[c].to_dict() for c in cells}
        finally:
            campaign.close()

    def test_queue_results_survive_for_a_later_collector(self, tmp_path):
        # Plan, drain, throw the Campaign object away — a fresh process
        # collecting from the same directory sees the full outcome.
        session = ExperimentSession(**FAST)
        cells = grid(session, seeds=(0,))
        planned = {key_for(c): descriptor_for(c) for c in cells}
        misses = [(k, d, "label") for k, d in planned.items()]
        cid = campaign_id(planned.values())
        first = Campaign.open(cid, planned, misses,
                              root=tmp_path / "campaigns", need_file=True)
        first.execute()
        first.close()
        second = Campaign.open(cid, planned, [],
                               root=tmp_path / "campaigns")
        try:
            outcomes = second.outcomes(planned)
            assert len(outcomes) == len(planned)
        finally:
            second.close()


class TestWorkerBootstrap:
    """``worker_process_entry``, the one bootstrap behind spawned
    workers and ``scripts/campaign_worker.py``."""

    def plan(self, tmp_path, retries=0):
        planner = ExperimentSession(
            cache_dir=tmp_path / "cache",
            campaign_dir=str(tmp_path / "campaigns"), retries=retries,
            **FAST)
        plan = planner.plan(grid(planner, policies=("ICOUNT.1.8",)))
        planner.plan_campaign(plan)
        return plan.campaign_id, tmp_path / "campaigns" / plan.campaign_id

    def entry(self, cdir, cache_dir=None, **kwargs):
        return worker_process_entry(str(cdir / QUEUE_NAME), "w",
                                    cache_dir, None, 30.0, **kwargs)

    def test_returns_drain_stats_and_queue_counts(self, tmp_path):
        cid, cdir = self.plan(tmp_path)
        stats, counts = self.entry(
            cdir, str(tmp_path / "cache"),
            journal_path=str(cdir / "events.jsonl"), campaign_id=cid,
            wait=False)
        assert (stats.executed, stats.failed) == (2, 0)
        assert not stats.drained
        assert counts == {"done": 2}
        assert len(ResultCache(tmp_path / "cache")) == 2
        mine = [e for e in read_events(cdir / "events.jsonl")
                if e["worker"] == "w"]
        assert {e["campaign"] for e in mine} == {cid}
        assert mine[0]["ev"] == "worker_start"
        assert mine[-1]["ev"] == "worker_exit"

    def test_no_wait_leaves_a_foreign_lease_alone(self, tmp_path):
        _, cdir = self.plan(tmp_path)
        with CellQueue(cdir / QUEUE_NAME) as queue:
            assert queue.lease("other", lease_seconds=30.0) is not None
        stats, counts = self.entry(cdir, wait=False)
        assert stats.executed == 1
        assert counts == {"done": 1, "leased": 1}

    def test_wait_polls_until_a_foreign_lease_is_reclaimed(self,
                                                           tmp_path):
        # The other owner never settles its cell, so its short lease
        # expires on the deadline; a waiting worker polls until it can
        # take the cell over (the retry budget pays for the lost
        # attempt).
        _, cdir = self.plan(tmp_path, retries=1)
        with CellQueue(cdir / QUEUE_NAME) as queue:
            assert queue.lease("other", lease_seconds=0.5) is not None
        stats, counts = self.entry(cdir)
        assert stats.executed == 2
        assert counts == {"done": 2}

    def test_journal_off_writes_no_worker_events(self, tmp_path):
        _, cdir = self.plan(tmp_path)
        path = cdir / "events.jsonl"
        stats, counts = self.entry(cdir, wait=False)
        assert counts == {"done": 2}
        events = read_events(path) if path.exists() else []
        assert [e for e in events if e["worker"] == "w"] == []

    def test_without_a_cache_results_land_in_the_queue(self, tmp_path):
        _, cdir = self.plan(tmp_path)
        stats, counts = self.entry(cdir, cache_dir=None, wait=False)
        assert counts == {"done": 2}
        assert len(ResultCache(tmp_path / "cache")) == 0
        with CellQueue(cdir / QUEUE_NAME) as queue:
            assert len(queue.results()) == 2

    def test_signal_handlers_live_only_for_the_drain(self, tmp_path,
                                                     monkeypatch):
        _, cdir = self.plan(tmp_path)
        seen = []

        def spy(*args, **kwargs):
            seen.append(signal.getsignal(signal.SIGTERM))
            return drain(*args, **kwargs)

        monkeypatch.setattr(worker_mod, "drain", spy)
        before = signal.getsignal(signal.SIGTERM)
        self.entry(cdir, wait=False)
        assert len(seen) == 1 and seen[0] is not before
        assert signal.getsignal(signal.SIGTERM) is before

    def test_a_queue_that_cannot_open_leaves_the_handlers(self,
                                                         tmp_path):
        before = signal.getsignal(signal.SIGTERM)
        with pytest.raises(sqlite3.OperationalError):
            self.entry(tmp_path / "missing", wait=False)
        assert signal.getsignal(signal.SIGTERM) is before


class TestLeaseFailure:
    @pytest.mark.parametrize("isolate", [False, True],
                             ids=["inline", "isolated"])
    def test_one_failure_costs_one_cell(self, tmp_path, isolate):
        # The failing cell is leased first: the others still run in
        # the same drain, on their own budgets.
        session = ExperimentSession(**FAST)
        cells = grid(session, seeds=(0, 1, 2), policies=("ICOUNT.1.8",))
        with CellQueue() as queue:
            queue.add([(key_for(c), descriptor_for(c),
                        fault_label(descriptor_for(c)))
                       for c in cells], max_attempts=1)
            with inject_faults(FaultSpec(kind="raise", match="seed0",
                                         times=1),
                               spool=tmp_path / "spool"):
                stats = drain(queue, worker_id="w", wait=False,
                              isolate=isolate)
            assert (stats.executed, stats.failed) == (2, 1)
            assert queue.counts() == {"done": 2, "failed": 1}


class TestEphemeralCampaigns:
    def test_memory_queue_for_the_degenerate_case(self):
        session = ExperimentSession(**FAST)
        cells = grid(session, seeds=(0,), policies=("ICOUNT.1.8",))
        planned = {key_for(c): descriptor_for(c) for c in cells}
        campaign = Campaign.open(campaign_id(planned.values()), planned,
                                 [(k, d, "x") for k, d
                                  in planned.items()])
        try:
            assert campaign.queue_file is None
            campaign.execute()
            assert campaign.queue.unresolved() == 0
        finally:
            campaign.close()

    def test_ephemeral_file_queue_is_cleaned_up(self):
        import os
        session = ExperimentSession(**FAST)
        cells = grid(session, seeds=(0,), policies=("ICOUNT.1.8",))
        planned = {key_for(c): descriptor_for(c) for c in cells}
        campaign = Campaign.open(campaign_id(planned.values()), planned,
                                 [], need_file=True)
        queue_file = campaign.queue_file
        assert queue_file is not None and os.path.exists(queue_file)
        campaign.close()
        campaign.close()                        # idempotent
        assert not os.path.exists(queue_file)
