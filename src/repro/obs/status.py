"""Read-side analytics: campaign status, ETA and per-cell timelines.

Everything here reconstructs a campaign's story from two durable
artifacts — the queue database (authoritative *state*) and the event
journal (authoritative *narrative*) — without ever writing to either,
so it is safe to point at a campaign that external workers are
draining right now.  The queue is opened read-only; a missing journal
degrades to queue-only output instead of failing.

Two entry points, mirroring the CLI's two modes:

* :func:`live_status` — queue depth by state, per-worker throughput,
  overall completion rate and an ETA for the remaining cells.  The
  triage view for ``--resume``: is the campaign moving, who is
  draining it, when will it finish.
* :func:`campaign_report` — the post-mortem view for a finished (or
  abandoned) campaign: slowest cells with their queue-wait / execute /
  cache-put breakdown, retry culprits with their last error, fault
  attribution (timeouts, expired leases, releases, quarantines with
  the quarantine reason inline), per-worker totals and any drift
  between the queue's ``done`` rows and the journal's acks.
"""

from __future__ import annotations

import sqlite3
import statistics
import time
from pathlib import Path

from repro.campaign.manifest import QUEUE_NAME, read_campaign_id
from repro.obs.journal import journal_path, read_events

CELL_EVENTS = ("lease", "execute", "ack", "nack", "retry", "failed",
               "poisoned", "timeout", "lease_expired", "release",
               "unlease")
"""Events that carry a cell ``key`` (per-cell timeline material)."""

SLOWEST_CELLS = 10
"""Rows in a report's slowest-cells table."""


def connect_read_only(queue_file: str | Path) -> sqlite3.Connection:
    """A connection to a queue database that only ever reads it.

    Read-only is load-bearing: status and report readers must never
    take a write lock on a queue that live workers are leasing from.
    Falls back to a plain connection for filesystems where the
    ``mode=ro`` URI open fails (callers still only run SELECTs).  Rows
    are :class:`sqlite3.Row`.
    """
    try:
        conn = sqlite3.connect(f"file:{queue_file}?mode=ro", uri=True,
                               timeout=5.0)
    except sqlite3.OperationalError:
        conn = sqlite3.connect(str(queue_file), timeout=5.0)
    conn.row_factory = sqlite3.Row
    return conn


def read_queue_counts(campaign_dir: str | Path) -> dict[str, int]:
    """Row count per state, via :func:`connect_read_only`."""
    path = Path(campaign_dir) / QUEUE_NAME
    if not path.exists():
        raise FileNotFoundError(f"no queue at {path}")
    conn = connect_read_only(path)
    try:
        return {state: n for state, n in conn.execute(
            "SELECT state, COUNT(*) FROM cells GROUP BY state")}
    finally:
        conn.close()


def load_journal(campaign_dir: str | Path) -> list[dict]:
    """The campaign's events (empty when no journal was written)."""
    path = journal_path(campaign_dir)
    if not path.exists():
        return []
    return read_events(path)


def expired_leases(queue_file: str | Path,
                   now: float) -> list[sqlite3.Row]:
    """Rows still ``leased`` past their deadline at ``now``.

    The queue's liveness rule, read-only: these are exactly the rows
    the next ``CellQueue.lease`` settles as ``lease_expired``, so their
    owners have stopped acking and are presumed dead.  Rows carry
    ``key`` and ``lease_owner``.
    """
    conn = connect_read_only(queue_file)
    try:
        return conn.execute(
            "SELECT key, lease_owner FROM cells"
            " WHERE state = 'leased' AND lease_deadline < ?"
            " ORDER BY seq", (now,)).fetchall()
    finally:
        conn.close()


WORKER_EVENTS = ("worker_start", "worker_spawn")
"""Events that make their ``worker`` a worker: it ran a drain loop, or
a supervisor launched it (a worker that crashed before its drain loop
began journals no ``worker_start``).  Other records also carry a
``worker`` field, such as the planner's ``plan`` event, without naming
one."""


def _worker_table(events: list[dict]) -> dict[str, dict]:
    """Per-worker aggregates from the journal, for the ids named by a
    :data:`WORKER_EVENTS` record."""
    known = {ev["worker"] for ev in events
             if ev.get("ev") in WORKER_EVENTS and ev.get("worker")}
    workers: dict[str, dict] = {}

    def entry(worker: str) -> dict:
        return workers.setdefault(worker, {
            "executed": 0, "failed_attempts": 0, "leased": 0,
            "first_event": None, "last_event": None,
            "exitcode": None, "running": False,
        })

    for ev in events:
        worker = ev.get("worker")
        if worker not in known:
            continue
        rec = entry(worker)
        t = ev.get("t_wall")
        if t is not None:
            if rec["first_event"] is None or t < rec["first_event"]:
                rec["first_event"] = t
            if rec["last_event"] is None or t > rec["last_event"]:
                rec["last_event"] = t
        kind = ev.get("ev")
        if kind == "ack":
            rec["executed"] += 1
        elif kind in ("nack", "timeout"):
            rec["failed_attempts"] += 1
        elif kind == "lease":
            rec["leased"] += 1
        elif kind == "worker_start":
            rec["running"] = True
        elif kind == "worker_exit":
            rec["running"] = False
            if "exitcode" in ev:
                rec["exitcode"] = ev["exitcode"]

    for rec in workers.values():
        span = (rec["last_event"] or 0) - (rec["first_event"] or 0)
        rec["cells_per_sec"] = (rec["executed"] / span
                                if span > 0 and rec["executed"] else None)
    return workers


def live_status(campaign_dir: str | Path,
                now: float | None = None) -> dict:
    """Queue counts, per-worker throughput and ETA for one campaign.

    ``now`` is injectable for tests; defaults to wall-clock.  The ETA
    is honest about its basis: completion rate over the journal's ack
    history, scaled by currently-running workers when that is known.
    ``eta_seconds`` is ``None`` when nothing remains or no rate is
    derivable yet.  ``stale_workers`` names the owners of
    :func:`expired_leases`; ``last_seen`` is each journaled worker's
    age since its last event.
    """
    campaign_dir = Path(campaign_dir)
    counts = read_queue_counts(campaign_dir)
    events = load_journal(campaign_dir)
    workers = _worker_table(events)
    now = time.time() if now is None else now
    stale = sorted({row["lease_owner"] for row in
                    expired_leases(campaign_dir / QUEUE_NAME, now)})

    total = sum(counts.values())
    done = counts.get("done", 0)
    remaining = counts.get("pending", 0) + counts.get("leased", 0)

    acks = [ev for ev in events if ev.get("ev") == "ack"]
    rate = None
    if acks:
        t0 = min(ev["t_wall"] for ev in events
                 if ev.get("ev") in ("lease", "ack"))
        span = max(ev["t_wall"] for ev in acks) - t0
        if span > 0:
            rate = len(acks) / span
        execs = [ev["execute_seconds"] for ev in events
                 if ev.get("ev") == "execute"
                 and "execute_seconds" in ev]
        if rate is None and execs:
            rate = 1.0 / statistics.median(execs)

    active = sum(1 for rec in workers.values() if rec["running"])
    eta = remaining / rate if remaining and rate else None

    return {
        "campaign": read_campaign_id(campaign_dir),
        "dir": str(campaign_dir),
        "counts": counts,
        "total": total,
        "done": done,
        "remaining": remaining,
        "progress": (done / total) if total else None,
        "acks": len(acks),
        "cells_per_sec": rate,
        "eta_seconds": eta,
        "workers": workers,
        "active_workers": active,
        "last_seen": {wid: now - rec["last_event"]
                      for wid, rec in workers.items()
                      if rec["last_event"] is not None},
        "stale_workers": stale,
        "journal_events": len(events),
        "as_of": now,
    }


def _cell_timelines(events: list[dict]) -> dict[str, dict]:
    """Per-cell timeline: attempts, waits, timings, errors, faults."""
    cells: dict[str, dict] = {}

    def entry(key: str) -> dict:
        return cells.setdefault(key, {
            "key": key, "label": None, "attempts": 0,
            "queue_wait_seconds": None, "execute_seconds": None,
            "cache_put_seconds": None, "elapsed_seconds": None,
            "acked_by": None, "nacks": 0, "timeouts": 0,
            "lease_expired": 0, "released": 0,
            "last_error": None, "done": False, "poisoned": False,
        })

    for ev in events:
        key = ev.get("key")
        if key is None or ev.get("ev") not in CELL_EVENTS:
            continue
        rec = entry(key)
        if ev.get("label"):
            rec["label"] = ev["label"]
        kind = ev["ev"]
        if kind == "lease":
            rec["attempts"] = max(rec["attempts"],
                                  ev.get("attempt", 0))
            if rec["queue_wait_seconds"] is None \
                    and "queue_wait" in ev:
                rec["queue_wait_seconds"] = ev["queue_wait"]
        elif kind == "execute":
            rec["execute_seconds"] = ev.get("execute_seconds")
            rec["cache_put_seconds"] = ev.get("cache_put_seconds")
        elif kind == "ack":
            rec["done"] = True
            rec["acked_by"] = ev.get("worker")
            rec["elapsed_seconds"] = ev.get("elapsed")
        elif kind == "nack":
            rec["nacks"] += 1
            rec["last_error"] = ev.get("error")
        elif kind == "timeout":
            rec["timeouts"] += 1
        elif kind == "lease_expired":
            rec["lease_expired"] += 1
        elif kind == "release":
            rec["released"] += 1
            rec["last_error"] = ev.get("error", rec["last_error"])
        elif kind == "failed":
            rec["done"] = False
            rec["last_error"] = ev.get("error", rec["last_error"])
        elif kind == "poisoned":
            rec["done"] = False
            rec["poisoned"] = True
            rec["last_error"] = ev.get("error", rec["last_error"])
    return cells


def _drift(queue_file: Path, events: list[dict]) -> dict[str, list]:
    """Keys the queue and the journal disagree about.

    ``done_without_ack`` are ``done`` in the queue with no journaled
    ``ack``; ``acked_not_done`` were acked in the journal but are not
    ``done``.  The queue is authoritative, so drift is evidence (a
    torn journal, a foreign writer), reported and never repaired.  A
    journal with no acks at all proves nothing, so it gives no drift.
    """
    acked = {ev.get("key") for ev in events if ev.get("ev") == "ack"}
    if not acked:
        return {"done_without_ack": [], "acked_not_done": []}
    conn = connect_read_only(queue_file)
    try:
        done = {row["key"] for row in conn.execute(
            "SELECT key FROM cells WHERE state = 'done'")}
    finally:
        conn.close()
    return {"done_without_ack": sorted(done - acked),
            "acked_not_done": sorted(acked - done)}


def campaign_report(campaign_dir: str | Path) -> dict:
    """Post-mortem summary of a campaign from journal + queue.

    Returns a JSON-safe document: overall totals, the
    :data:`SLOWEST_CELLS` slowest cells (with the queue-wait / execute
    / cache-put breakdown), retry culprits (cells that needed more
    than one attempt, worst first, with their last error), fault
    attribution (timeouts, expired leases, supervisor releases, worker
    crash exits), quarantine events with the ``.reason.txt`` content
    inline and the queue/journal ``drift`` (see :func:`_drift`).
    """
    campaign_dir = Path(campaign_dir)
    counts = read_queue_counts(campaign_dir)
    events = load_journal(campaign_dir)
    cells = _cell_timelines(events)
    workers = _worker_table(events)

    timed = [rec for rec in cells.values()
             if rec["execute_seconds"] is not None]
    slowest = sorted(timed, key=lambda r: r["execute_seconds"],
                     reverse=True)[:SLOWEST_CELLS]
    retried = sorted((rec for rec in cells.values()
                      if rec["attempts"] > 1 or rec["nacks"]),
                     key=lambda r: (r["attempts"], r["nacks"]),
                     reverse=True)
    quarantines = [{"key": ev.get("key"), "reason": ev.get("reason"),
                    "t_wall": ev.get("t_wall")}
                   for ev in events if ev.get("ev") == "quarantine"]
    poisoned = [{"key": ev.get("key"), "label": ev.get("label"),
                 "error": ev.get("error"),
                 "fatal_attempts": ev.get("fatal_attempts"),
                 "t_wall": ev.get("t_wall")}
                for ev in events if ev.get("ev") == "poisoned"]
    crashes = [{"worker": ev.get("worker"),
                "exitcode": ev.get("exitcode")}
               for ev in events if ev.get("ev") == "worker_exit"
               and ev.get("exitcode") not in (None, 0)]
    plan = next((ev for ev in events if ev.get("ev") == "plan"), None)

    return {
        "campaign": read_campaign_id(campaign_dir),
        "dir": str(campaign_dir),
        "counts": counts,
        "planned": plan,
        "events": len(events),
        "cells_tracked": len(cells),
        "attempts": sum(rec["attempts"] for rec in cells.values()),
        "retries": sum(max(0, rec["attempts"] - 1)
                       for rec in cells.values()),
        "timeouts": sum(rec["timeouts"] for rec in cells.values()),
        "lease_expirations": sum(rec["lease_expired"]
                                 for rec in cells.values()),
        "releases": sum(rec["released"] for rec in cells.values()),
        "slowest_cells": slowest,
        "retry_culprits": retried,
        "quarantines": quarantines,
        "poisoned_cells": poisoned,
        "worker_crashes": crashes,
        "workers": workers,
        "drift": _drift(campaign_dir / QUEUE_NAME, events),
    }
