"""Status analytics and the campaign_status CLI.

A synthetic journal + queue exercise the analytics deterministically;
a real (tiny) durable campaign exercises the CLI end to end through
the same artifacts external workers leave behind.
"""

import importlib.util
import json
import sqlite3
import time
from pathlib import Path

import pytest

from repro.campaign import CellQueue
from repro.campaign.manifest import MANIFEST_NAME, QUEUE_NAME
from repro.experiments import ExperimentSession
from repro.obs.journal import Journal
from repro.obs.status import (
    SLOWEST_CELLS,
    campaign_report,
    connect_read_only,
    live_status,
    read_queue_counts,
)

SCRIPTS = Path(__file__).resolve().parents[2] / "scripts"

FAST = dict(cycles=300, warmup=150)


def load_cli(name: str):
    spec = importlib.util.spec_from_file_location(
        name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def synthetic_campaign(tmp_path: Path) -> Path:
    """A hand-built campaign dir: 2 done rows, 1 pending, rich journal."""
    cdir = tmp_path / "deadbeef"
    cdir.mkdir()
    (cdir / MANIFEST_NAME).write_text(
        json.dumps({"campaign": "deadbeef", "cells": {}}))
    with CellQueue(cdir / QUEUE_NAME) as queue:
        queue.add([(f"k{i}", {"i": i}, f"cell-{i}") for i in range(3)],
                  max_attempts=2)
        for key in ("k0", "k1"):
            lc = queue.lease("w1")
            assert lc.key == key
            queue.ack(key, "w1", {"ok": True})
    with Journal(cdir / "events.jsonl", campaign_id="deadbeef",
                 worker_id="w1") as j:
        j.emit("plan", cells=3, enqueued=3, worker="planner")
        j.emit("worker_start", t_wall=100.0)
        j.emit("lease", key="k0", label="cell-0", attempt=1,
               queue_wait=0.5, t_wall=100.0)
        j.emit("execute", key="k0", label="cell-0", attempt=1,
               execute_seconds=2.0, cache_put_seconds=0.01,
               t_wall=102.0)
        j.emit("ack", key="k0", label="cell-0", attempt=1,
               elapsed=2.0, t_wall=102.0)
        j.emit("lease", key="k1", label="cell-1", attempt=1,
               queue_wait=0.6, t_wall=102.0)
        j.emit("nack", key="k1", label="cell-1", attempt=1,
               error="boom", t_wall=103.0)
        j.emit("retry", key="k1", label="cell-1", attempt=1,
               t_wall=103.0)
        j.emit("lease", key="k1", label="cell-1", attempt=2,
               queue_wait=1.0, t_wall=103.0)
        j.emit("execute", key="k1", label="cell-1", attempt=2,
               execute_seconds=4.0, cache_put_seconds=0.02,
               t_wall=107.0)
        j.emit("ack", key="k1", label="cell-1", attempt=2,
               elapsed=5.0, t_wall=108.0)
        j.emit("quarantine", key="k9", reason="bad magic",
               t_wall=108.0)
        j.emit("worker_exit", exitcode=0, t_wall=108.0)
    return cdir


class TestLiveStatus:
    def test_counts_progress_rate_eta(self, tmp_path):
        doc = live_status(synthetic_campaign(tmp_path), now=110.0)
        assert doc["campaign"] == "deadbeef"
        assert doc["counts"] == {"done": 2, "pending": 1}
        assert doc["total"] == 3 and doc["done"] == 2
        assert doc["remaining"] == 1
        assert doc["progress"] == pytest.approx(2 / 3)
        assert doc["acks"] == 2
        # 2 acks over the 8 s lease->ack span.
        assert doc["cells_per_sec"] == pytest.approx(0.25)
        assert doc["eta_seconds"] == pytest.approx(4.0)
        assert doc["journal_events"] == 13
        assert doc["active_workers"] == 0

    def test_worker_table(self, tmp_path):
        doc = live_status(synthetic_campaign(tmp_path))
        w1 = doc["workers"]["w1"]
        assert w1["executed"] == 2
        assert w1["failed_attempts"] == 1
        assert w1["leased"] == 3
        assert w1["running"] is False
        assert w1["exitcode"] == 0
        assert w1["cells_per_sec"] == pytest.approx(2 / 8)

    def test_workers_are_drain_loops_and_spawned_processes(self,
                                                           tmp_path):
        # The planner's plan record carries a worker field but names no
        # worker; a spawned worker that crashed before its drain loop
        # began (no worker_start) is still one.
        cdir = synthetic_campaign(tmp_path)
        with Journal(cdir / "events.jsonl", campaign_id="deadbeef",
                     worker_id="planner") as j:
            j.emit("worker_spawn", worker="w2", pid=7, t_wall=100.0)
            j.emit("worker_exit", worker="w2", pid=7, exitcode=86,
                   crashed=True, t_wall=101.0)
        doc = live_status(cdir)
        assert sorted(doc["workers"]) == ["w1", "w2"]
        assert doc["workers"]["w2"]["exitcode"] == 86
        assert sorted(campaign_report(cdir)["workers"]) == ["w1", "w2"]

    def test_last_seen_is_the_last_journal_event(self, tmp_path):
        doc = live_status(synthetic_campaign(tmp_path), now=110.0)
        assert doc["last_seen"]["w1"] == pytest.approx(2.0)

    def test_stale_workers_hold_a_lease_past_its_deadline(self,
                                                          tmp_path):
        cdir = synthetic_campaign(tmp_path)
        with CellQueue(cdir / QUEUE_NAME) as queue:
            queue.lease("ghost", lease_seconds=5.0)
        now = time.time()
        assert live_status(cdir, now=now)["stale_workers"] == []
        assert live_status(cdir, now=now + 10.0)["stale_workers"] \
            == ["ghost"]

    def test_status_flags_stale_workers(self, tmp_path, capsys):
        cdir = synthetic_campaign(tmp_path)
        with CellQueue(cdir / QUEUE_NAME) as queue:
            queue.lease("ghost", lease_seconds=5.0)
        load_cli("campaign_status").print_status(
            live_status(cdir, now=time.time() + 10.0))
        out = capsys.readouterr().out
        assert "ghost: no journal events (STALE)" in out
        (w1,) = [line for line in out.splitlines() if "w1:" in line]
        assert "last seen" in w1 and "STALE" not in w1

    def test_the_next_lease_settles_what_status_flags(self, tmp_path):
        # Reading settles nothing: the dead owner stays flagged until
        # some worker leases, and that lease settles its row first.
        cdir = synthetic_campaign(tmp_path)
        with CellQueue(cdir / QUEUE_NAME) as queue:
            queue.lease("ghost", lease_seconds=5.0)
        conn = sqlite3.connect(cdir / QUEUE_NAME)
        conn.execute("UPDATE cells SET lease_deadline = ?"
                     " WHERE lease_owner = 'ghost'", (time.time() - 1.0,))
        conn.commit()
        conn.close()
        for _ in range(2):
            assert live_status(cdir)["stale_workers"] == ["ghost"]
        with Journal(cdir / "events.jsonl", worker_id="w2") as j, \
                CellQueue(cdir / QUEUE_NAME, journal=j) as queue:
            lc = queue.lease("w2")
        assert (lc.key, lc.attempts, lc.suspect) == ("k2", 2, True)
        assert live_status(cdir)["stale_workers"] == []
        assert campaign_report(cdir)["lease_expirations"] == 1

    def test_missing_queue_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            live_status(tmp_path / "nope")

    def test_journal_optional(self, tmp_path):
        cdir = synthetic_campaign(tmp_path)
        (cdir / "events.jsonl").unlink()
        doc = live_status(cdir)
        assert doc["counts"] == {"done": 2, "pending": 1}
        assert doc["journal_events"] == 0
        assert doc["workers"] == {}

    def test_read_queue_counts_is_read_only(self, tmp_path):
        cdir = synthetic_campaign(tmp_path)
        before = (cdir / QUEUE_NAME).read_bytes()
        read_queue_counts(cdir)
        assert (cdir / QUEUE_NAME).read_bytes() == before

    def test_read_only_connection_rows_are_named(self, tmp_path):
        cdir = synthetic_campaign(tmp_path)
        conn = connect_read_only(cdir / QUEUE_NAME)
        try:
            rows = conn.execute(
                "SELECT key, state FROM cells ORDER BY key").fetchall()
        finally:
            conn.close()
        assert [(row["key"], row["state"]) for row in rows] \
            == [("k0", "done"), ("k1", "done"), ("k2", "pending")]

    def test_read_only_connection_refuses_writes(self, tmp_path):
        cdir = synthetic_campaign(tmp_path)
        conn = connect_read_only(cdir / QUEUE_NAME)
        try:
            with pytest.raises(sqlite3.OperationalError,
                               match="readonly"):
                conn.execute("UPDATE cells SET state = 'pending'")
        finally:
            conn.close()
        assert read_queue_counts(cdir) == {"done": 2, "pending": 1}

    def test_read_only_connection_reads_beside_a_live_writer(
            self, tmp_path):
        # A worker mid-transaction must not stall the status tool, and
        # the tool sees only committed state.
        cdir = synthetic_campaign(tmp_path)
        writer = sqlite3.connect(cdir / QUEUE_NAME)
        try:
            writer.execute("BEGIN IMMEDIATE")
            writer.execute("UPDATE cells SET state = 'leased'"
                           " WHERE key = 'k2'")
            conn = connect_read_only(cdir / QUEUE_NAME)
            conn.execute("PRAGMA busy_timeout = 0")
            try:
                states = dict(conn.execute(
                    "SELECT key, state FROM cells").fetchall())
            finally:
                conn.close()
            writer.rollback()
        finally:
            writer.close()
        assert states["k2"] == "pending"


class TestCampaignReport:
    def test_totals_and_timelines(self, tmp_path):
        doc = campaign_report(synthetic_campaign(tmp_path))
        assert doc["campaign"] == "deadbeef"
        assert doc["cells_tracked"] == 2
        assert doc["attempts"] == 3
        assert doc["retries"] == 1
        assert doc["planned"]["cells"] == 3
        assert doc["worker_crashes"] == []
        assert doc["drift"] == {"done_without_ack": [],
                                "acked_not_done": []}

    def test_slowest_cells_ordered_with_breakdown(self, tmp_path):
        doc = campaign_report(synthetic_campaign(tmp_path))
        slowest = doc["slowest_cells"]
        assert [rec["key"] for rec in slowest] == ["k1", "k0"]
        assert slowest[0]["execute_seconds"] == 4.0
        assert slowest[0]["cache_put_seconds"] == 0.02
        assert slowest[0]["queue_wait_seconds"] == 0.6  # first lease
        assert slowest[0]["acked_by"] == "w1"

    def test_retry_culprits_carry_last_error(self, tmp_path):
        doc = campaign_report(synthetic_campaign(tmp_path))
        (culprit,) = doc["retry_culprits"]
        assert culprit["key"] == "k1"
        assert culprit["attempts"] == 2
        assert culprit["last_error"] == "boom"
        assert culprit["done"] is True

    def test_quarantine_reason_inline(self, tmp_path):
        doc = campaign_report(synthetic_campaign(tmp_path))
        (q,) = doc["quarantines"]
        assert q["key"] == "k9" and q["reason"] == "bad magic"

    def test_top_truncates_slowest(self, tmp_path):
        cdir = synthetic_campaign(tmp_path)
        with Journal(cdir / "events.jsonl", worker_id="w1") as j:
            for i in range(SLOWEST_CELLS):
                j.emit("execute", key=f"x{i}", label=f"extra-{i}",
                       attempt=1, execute_seconds=0.1 * i,
                       cache_put_seconds=0.0)
        slowest = campaign_report(cdir)["slowest_cells"]
        assert len(slowest) == SLOWEST_CELLS
        assert [rec["key"] for rec in slowest[:3]] == ["k1", "k0", "x9"]

    def test_drift_lists_both_directions_and_only_reads(self, tmp_path):
        cdir = synthetic_campaign(tmp_path)
        # A journal-less writer completes k2; the journal acks k3,
        # which the queue still holds pending.
        with CellQueue(cdir / QUEUE_NAME) as queue:
            queue.add([("k3", {"i": 3}, "cell-3")])
            lc = queue.lease("foreign")
            queue.ack(lc.key, "foreign", {"ok": True})
        with Journal(cdir / "events.jsonl", worker_id="w1") as j:
            j.emit("ack", key="k3", label="cell-3", attempt=1)
        before = (cdir / QUEUE_NAME).read_bytes()
        doc = campaign_report(cdir)
        assert doc["drift"] == {"done_without_ack": ["k2"],
                                "acked_not_done": ["k3"]}
        assert (cdir / QUEUE_NAME).read_bytes() == before

    def test_a_journal_without_acks_shows_no_drift(self, tmp_path):
        cdir = synthetic_campaign(tmp_path)
        (cdir / "events.jsonl").unlink()
        with Journal(cdir / "events.jsonl", worker_id="w1") as j:
            j.emit("plan", cells=3, enqueued=3)
        assert campaign_report(cdir)["drift"] == {
            "done_without_ack": [], "acked_not_done": []}
        assert read_queue_counts(cdir) == {"done": 2, "pending": 1}

    def test_a_campaign_without_a_manifest_still_reports(self,
                                                         tmp_path):
        cdir = synthetic_campaign(tmp_path)
        (cdir / MANIFEST_NAME).unlink()
        doc = campaign_report(cdir)
        assert doc["campaign"] is None
        assert doc["counts"] == {"done": 2, "pending": 1}
        assert (doc["attempts"], doc["retries"]) == (3, 1)
        assert doc["drift"] == {"done_without_ack": [],
                                "acked_not_done": []}
        assert live_status(cdir)["campaign"] is None

    def test_report_is_json_safe(self, tmp_path):
        json.dumps(campaign_report(synthetic_campaign(tmp_path)))


class TestStatusCli:
    @pytest.fixture(scope="class")
    def campaign(self, tmp_path_factory):
        """A real durable campaign drained inline."""
        root = tmp_path_factory.mktemp("cli-campaign")
        session = ExperimentSession(
            cache_dir=root / "cache",
            campaign_dir=str(root / "campaigns"), **FAST)
        cells = [session.make_cell("2_MIX", "stream", "ICOUNT.1.8",
                                   None, None,
                                   session.config.with_(seed=seed))
                 for seed in (0, 1)]
        session.run_cells(cells)
        return root / "campaigns" / session.last_campaign.campaign_id

    def test_status_human(self, campaign, capsys):
        cli = load_cli("campaign_status")
        assert cli.main(["--campaign", str(campaign)]) == 0
        out = capsys.readouterr().out
        assert "progress: 2/2" in out
        assert "queue:" in out and "done=2" in out

    def test_status_json(self, campaign, capsys):
        cli = load_cli("campaign_status")
        assert cli.main(["--campaign", str(campaign), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["done"] == 2 and doc["remaining"] == 0
        assert doc["acks"] == 2

    def test_report_json(self, campaign, capsys):
        cli = load_cli("campaign_status")
        assert cli.main(["--campaign", str(campaign),
                         "--report", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["counts"] == {"done": 2}
        assert doc["attempts"] == 2
        assert len(doc["slowest_cells"]) == 2
        assert doc["retry_culprits"] == []

    def test_report_prints_drift_only_when_there_is_some(self, campaign,
                                                          tmp_path,
                                                          capsys):
        cli = load_cli("campaign_status")
        assert cli.main(["--campaign", str(campaign), "--report"]) == 0
        assert "drift" not in capsys.readouterr().out
        cdir = synthetic_campaign(tmp_path)
        with Journal(cdir / "events.jsonl", worker_id="w1") as j:
            j.emit("ack", key="k2", label="cell-2", attempt=1)
        assert cli.main(["--campaign", str(cdir), "--report"]) == 0
        out = capsys.readouterr().out
        assert "drift (queue vs journal" in out
        assert "k2: acked in the journal, not done in the queue" in out

    def test_the_planner_is_not_a_worker(self, campaign):
        assert list(live_status(campaign)["workers"]) == ["inline"]
        assert list(campaign_report(campaign)["workers"]) == ["inline"]

    def test_missing_campaign_exits_2(self, tmp_path, capsys):
        cli = load_cli("campaign_status")
        assert cli.main(["--campaign", str(tmp_path / "ghost")]) == 2
        assert "campaign_status" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [[], ["--report"]],
                             ids=["status", "report"])
    def test_corrupt_journal_exits_2(self, tmp_path, capsys, argv):
        cdir = synthetic_campaign(tmp_path)
        lines = (cdir / "events.jsonl").read_text().splitlines()
        lines[2] = "not json"
        (cdir / "events.jsonl").write_text("\n".join(lines) + "\n")
        cli = load_cli("campaign_status")
        assert cli.main(["--campaign", str(cdir), *argv]) == 2
        assert "malformed journal line 3" in capsys.readouterr().err
