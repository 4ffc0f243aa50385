"""Journal semantics: atomic appends, torn tails, crash reconciliation.

The journal's contract is narrative durability: after any crash, every
*complete* line parses, the queue rows and the journal agree about
what happened, and a resumed campaign appends to the story instead of
rewriting it.
"""

import multiprocessing
import time
from collections import Counter

from repro.campaign import CellQueue
from repro.campaign.worker import worker_process_entry
from repro.experiments import ExperimentSession
from repro.obs.journal import (
    NULL_JOURNAL,
    Journal,
    NullJournal,
    open_journal,
    read_events,
)
from repro.resilience import FaultSpec, inject_faults

FAST = dict(cycles=300, warmup=150)


def grid(session, seeds=(0, 1), policies=("ICOUNT.1.8", "RR.1.8")):
    return [session.make_cell("2_MIX", "stream", policy, None, None,
                              session.config.with_(seed=seed))
            for policy in policies for seed in seeds]


class TestJournalWriter:
    def test_emit_read_roundtrip(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with Journal(path, campaign_id="cafe", worker_id="w0") as j:
            j.emit("lease", key="k1", attempt=1)
            j.emit("ack", key="k1", attempt=1, elapsed=0.5)
        events = read_events(path)
        assert [ev["ev"] for ev in events] == ["lease", "ack"]
        for ev in events:
            assert ev["campaign"] == "cafe"
            assert ev["worker"] == "w0"
            assert ev["t_wall"] > 0 and ev["t_mono"] > 0
        assert events[1]["elapsed"] == 0.5

    def test_fields_override_bound_defaults(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with Journal(path, worker_id="planner") as j:
            j.emit("release", key="k", worker="dead-worker")
        (event,) = read_events(path)
        assert event["worker"] == "dead-worker"

    def test_concurrent_appends_interleave_whole_lines(self, tmp_path):
        path = tmp_path / "events.jsonl"
        a = Journal(path, worker_id="a")
        b = Journal(path, worker_id="b")
        for i in range(50):
            a.emit("tick", i=i)
            b.emit("tock", i=i)
        a.close(), b.close()
        events = read_events(path, strict=True)
        assert len(events) == 100
        assert {ev["worker"] for ev in events} == {"a", "b"}

    def test_emit_after_close_is_silent(self, tmp_path):
        j = Journal(tmp_path / "events.jsonl")
        j.close()
        j.emit("lease", key="k")        # must not raise
        j.close()                       # idempotent
        assert read_events(tmp_path / "events.jsonl") == []

    def test_torn_tail_skipped_by_default(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with Journal(path) as j:
            j.emit("lease", key="k1")
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"ev": "ack", "key"')   # killed mid-write
        events = read_events(path)
        assert [ev["ev"] for ev in events] == ["lease"]

    def test_torn_tail_raises_in_strict_mode(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text('{"ev": "lease"}\n{"ev": "a', encoding="utf-8")
        try:
            read_events(path, strict=True)
        except ValueError as exc:
            assert "line 2" in str(exc)
        else:
            raise AssertionError("strict read accepted a torn tail")

    def test_malformed_middle_line_always_raises(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text('not json\n{"ev": "lease"}\n', encoding="utf-8")
        try:
            read_events(path)
        except ValueError as exc:
            assert "line 1" in str(exc)
        else:
            raise AssertionError("corrupt middle line was swallowed")


class TestNullJournal:
    def test_open_journal_without_dir_returns_null(self):
        assert open_journal(None) is NULL_JOURNAL

    def test_null_journal_is_inert(self):
        j = NullJournal()
        with j:
            j.emit("anything", key="k")
        j.close()
        assert j.enabled is False


class TestCrashReconciliation:
    def _plan(self, tmp_path):
        planner = ExperimentSession(
            cache_dir=tmp_path / "cache",
            campaign_dir=str(tmp_path / "campaigns"),
            retries=1, **FAST)
        plan = planner.plan(grid(planner))
        planner.plan_campaign(plan)
        cdir = tmp_path / "campaigns" / plan.campaign_id
        return plan, cdir

    def test_killed_worker_leaves_parseable_consistent_journal(
            self, tmp_path):
        plan, cdir = self._plan(tmp_path)
        queue_file = str(cdir / "queue.sqlite")
        jpath = str(cdir / "events.jsonl")

        with inject_faults(FaultSpec(kind="crash", match="seed0",
                                     times=1),
                           spool=tmp_path / "spool"):
            ctx = multiprocessing.get_context("spawn")
            proc = ctx.Process(
                target=worker_process_entry,
                args=(queue_file, "doomed", str(tmp_path / "cache"),
                      None, 1.0, jpath, plan.campaign_id))
            proc.start()
            proc.join(120)
            assert proc.exitcode == 86

            # The dead worker's journal is parseable line-by-line and
            # already records its worker_start and leases.
            events = read_events(jpath)
            assert any(ev["ev"] == "worker_start"
                       and ev["worker"] == "doomed" for ev in events)
            assert any(ev["ev"] == "lease" for ev in events)
            assert not any(ev["ev"] == "worker_exit"
                           and ev["worker"] == "doomed"
                           for ev in events)

            # A fresh resuming worker appends to the same journal —
            # never truncates the dead worker's story.
            before = read_events(jpath)
            time.sleep(1.1)             # let the 1 s lease expire
            proc2 = ctx.Process(
                target=worker_process_entry,
                args=(queue_file, "fresh", str(tmp_path / "cache"),
                      None, 1.0, jpath, plan.campaign_id))
            proc2.start()
            proc2.join(120)
            assert proc2.exitcode == 0

        events = read_events(jpath)
        assert len(events) > len(before)
        assert events[:len(before)] == before     # pure append

        # Reconcile narrative against the authoritative queue rows.
        with CellQueue(queue_file) as queue:
            assert queue.unresolved() == 0
            results = queue.results()
        acked = {ev["key"] for ev in events if ev["ev"] == "ack"}
        assert acked == set(results)
        # Every charged attempt was journaled as a lease.
        leases = [ev for ev in events if ev["ev"] == "lease"]
        with CellQueue(queue_file) as queue:
            assert len(leases) == queue.total_attempts()
        # The crash's lost lease was reclaimed (expiry path: the
        # doomed worker had no supervisor).
        assert any(ev["ev"] == "lease_expired" for ev in events)

    def test_supervised_crash_attributed_in_journal(self, tmp_path):
        session = ExperimentSession(
            cache_dir=tmp_path / "cache",
            campaign_dir=str(tmp_path / "campaigns"),
            jobs=2, retries=1, **FAST)
        with inject_faults(FaultSpec(kind="crash", match="seed0",
                                     times=1),
                           spool=tmp_path / "spool"):
            session.run_cells(grid(session))
        cid = session.last_campaign.campaign_id
        events = read_events(
            tmp_path / "campaigns" / cid / "events.jsonl")
        crashes = [ev for ev in events if ev["ev"] == "worker_exit"
                   and ev.get("exitcode") == 86]
        assert crashes, "supervisor did not journal the crash"
        dead = crashes[0]["worker"]
        assert any(ev["ev"] == "release" and ev["worker"] == dead
                   for ev in events)


class TestInlineCampaignJournal:
    def test_inline_run_writes_full_story(self, tmp_path):
        session = ExperimentSession(
            cache_dir=tmp_path / "cache",
            campaign_dir=str(tmp_path / "campaigns"), **FAST)
        session.run_cells(grid(session, seeds=(0,)))
        cid = session.last_campaign.campaign_id
        cdir = tmp_path / "campaigns" / cid
        events = read_events(cdir / "events.jsonl")
        kinds = [ev["ev"] for ev in events]
        for expected in ("plan", "worker_start", "worker_exit"):
            assert expected in kinds, f"missing {expected}: {kinds}"
        assert all(ev["campaign"] == cid for ev in events)
        # Each executed cell's timeline carries all three latencies:
        # queue wait on its lease, execute and cache-put on its
        # execute event.
        acked = [ev["key"] for ev in events if ev["ev"] == "ack"]
        assert len(acked) == session.simulated == 2
        for key in acked:
            story = [ev for ev in events if ev.get("key") == key]
            (lease,) = [ev for ev in story if ev["ev"] == "lease"]
            (execute,) = [ev for ev in story if ev["ev"] == "execute"]
            assert [ev["ev"] for ev in story].count("ack") == 1
            assert lease["queue_wait"] >= 0
            assert execute["execute_seconds"] >= 0
            assert execute["cache_put_seconds"] >= 0
        # The journal is the campaign's only telemetry.
        assert not (cdir / "metrics").exists()

    def test_ephemeral_campaign_uses_null_journal(self, tmp_path):
        session = ExperimentSession(cache_dir=tmp_path / "cache",
                                    **FAST)
        results = session.run_cells(grid(session, seeds=(0,),
                                         policies=("RR.1.8",)))
        assert results                  # runs fine with no journal


class TestJournalVolume:
    """The journal records per-cell transitions, never the cycle loop,
    so its volume must not grow with the measured window."""

    def event_counts(self, root, cycles, jobs=1):
        session = ExperimentSession(
            cache_dir=root / "cache", campaign_dir=str(root / "campaigns"),
            cycles=cycles, warmup=100, jobs=jobs)
        session.run_cells(grid(session, seeds=(0,)))
        cid = session.last_campaign.campaign_id
        return Counter(ev["ev"] for ev in read_events(
            root / "campaigns" / cid / "events.jsonl"))

    def test_event_counts_do_not_grow_with_the_window(self, tmp_path):
        short = self.event_counts(tmp_path / "short", 200)
        long = self.event_counts(tmp_path / "long", 2000)
        assert short == long == {
            "plan": 1, "worker_start": 1, "lease": 2, "execute": 2,
            "ack": 2, "worker_exit": 1}

    def test_a_spawned_fleet_journals_per_cell_too(self, tmp_path):
        # Spawned workers and their supervisor add their own lifecycle
        # records, a fixed number per worker; per-cell records stay
        # one per cell.
        short = self.event_counts(tmp_path / "short", 200, jobs=2)
        long = self.event_counts(tmp_path / "long", 2000, jobs=2)
        assert short == long
        assert (short["lease"], short["execute"], short["ack"]) \
            == (2, 2, 2)
        assert short["worker_start"] == 2
