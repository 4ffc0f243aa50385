"""Durable SQLite-backed cell queue with lease/ack/nack semantics.

One campaign owns one queue (``<campaign_dir>/queue.sqlite``).  Each
row is one cell awaiting execution, addressed by its content key and
carrying the full descriptor, so *any* worker — same process, sibling
process, or a fresh process after a crash — can rebuild and run it.

State machine per row::

    pending --lease--> leased --ack-->  done
       ^                  |
       |                  +--nack/expiry/release--> pending   (budget left)
       |                  +--nack/expiry/release--> failed    (budget spent)
       |                  +--expiry/release-------> poisoned  (budget spent,
       |                                            every attempt worker-fatal)
       +---- add() revives failed rows when a new run re-requests them
             (poisoned rows stay settled: re-running a fleet-killer
             needs an explicit decision, not a resume)

Retry budgets live *in the queue*, not in the caller: every row stores
``max_attempts`` and a ``backoff`` base, ``lease`` increments
``attempts``, and a nacked row is only re-runnable once its
deterministic exponential backoff (``backoff * 2**(attempts-1)``)
expires.  The budget lives in durable state, so retries survive the
death of the process that scheduled them.

Crash safety rests on two mechanisms.  A worker that dies holding a
lease is caught either by its supervisor (``release(owner)`` returns
its cells immediately) or, with no supervisor, by the *lease
deadline*: any ``lease`` call first reclaims rows whose deadline
passed.  Both paths charge the lost attempt against the row's budget.
A cell executed twice because a lease expired while its (slow, not
dead) owner was still running is harmless: simulation is a pure
function of (seed, config), and ``ack`` is idempotent — the second
completion writes the identical result.

Fleet health (PR 8) refines both mechanisms with *heartbeats* and
*crash attribution*.  When a :class:`~repro.campaign.health.
HeartbeatStore` is attached, a worker's heartbeat renews its leases: a
row whose deadline passed is **deferred** (not reclaimed) while its
owner's last beat is younger than the row's own lease duration —
workers beat every lease round and every completed cell, so a slow-
but-alive worker keeps its batch while a crashed one (whose beats
stopped) is reclaimed exactly on the old deadline schedule.
Conversely, a worker whose heartbeat has gone *stale* (default
:data:`~repro.campaign.health.DEFAULT_HEARTBEAT_STALE_SECONDS`) has
its leases released early — no point waiting out a long deadline for
a worker the filesystem says is gone.

Crash attribution turns retry accounting into containment: attempts
ended by a worker death (lease expiry, supervisor release, stale
heartbeat) are counted in ``fatal_attempts``, distinct from clean
nacks (an exception the worker survived).  A row that exhausts its
budget with *every* charged attempt worker-fatal settles as
``poisoned`` rather than ``failed`` — the cell provably kills workers,
and marking it distinctly means one bad cell can never crash-loop a
fleet or hide among ordinary failures.  A leased cell with prior
fatal attempts is handed out flagged ``suspect`` so workers can run
it in an isolated child process (see :mod:`repro.campaign.worker`).

All mutations run inside ``BEGIN IMMEDIATE`` transactions so
concurrent workers on one queue file serialize cleanly; WAL mode keeps
readers unblocked.  ``":memory:"`` queues are supported for the
degenerate single-process case (no durability wanted, same code path).

Observability: every state transition is reported to the queue's
:attr:`~CellQueue.journal` (a :class:`repro.obs.Journal`, or the no-op
:data:`~repro.obs.NULL_JOURNAL` default) — lease, ack, nack, retry,
budget exhaustion, lease expiry, supervisor release, unlease — each
stamped with the cell key, label, owning worker and attempt number.
Events are buffered during the transaction and emitted only after it
commits, so the journal never narrates a rolled-back transition.
"""

from __future__ import annotations

import json
import sqlite3
import time
from dataclasses import dataclass
from pathlib import Path

from repro.campaign.health import DEFAULT_HEARTBEAT_STALE_SECONDS
from repro.obs.journal import NULL_JOURNAL
from repro.obs.metrics import REGISTRY
from repro.resilience.policy import CellFailure

_SCHEMA = """
CREATE TABLE IF NOT EXISTS cells (
    seq            INTEGER PRIMARY KEY AUTOINCREMENT,
    key            TEXT NOT NULL UNIQUE,
    descriptor     TEXT NOT NULL,
    label          TEXT NOT NULL,
    state          TEXT NOT NULL DEFAULT 'pending',
    attempts       INTEGER NOT NULL DEFAULT 0,
    fatal_attempts INTEGER NOT NULL DEFAULT 0,
    max_attempts   INTEGER NOT NULL DEFAULT 1,
    backoff        REAL NOT NULL DEFAULT 0.0,
    not_before     REAL NOT NULL DEFAULT 0.0,
    enqueued       REAL NOT NULL DEFAULT 0.0,
    lease_owner    TEXT,
    lease_deadline REAL,
    lease_seconds  REAL NOT NULL DEFAULT 0.0,
    first_leased   REAL,
    elapsed        REAL,
    error          TEXT,
    result         TEXT
);
CREATE INDEX IF NOT EXISTS cells_state ON cells (state, not_before);
"""

RESOLVED = ("done", "failed", "poisoned")
"""Terminal states: the row needs no further execution."""

FATAL_CAUSES = ("lease_expired", "release", "heartbeat_stale")
"""Settle causes that mean the owning worker died mid-attempt (as
opposed to a clean ``nack``, where the worker survived to report)."""

_LOCK_RETRIES = 6
"""Bounded ``BEGIN IMMEDIATE`` retries when a burst of external
workers contends for the write lock past ``busy_timeout``."""

_LOCK_RETRY_BASE_SECONDS = 0.05
"""Deterministic linear backoff unit between lock retries (retry ``n``
sleeps ``n * base``)."""


@dataclass(frozen=True)
class LeasedCell:
    """One unit of leased work: rebuildable descriptor + bookkeeping."""

    key: str
    descriptor: dict
    label: str
    attempts: int
    suspect: bool = False
    """Whether a previous attempt of this cell killed its worker
    (``fatal_attempts > 0``).  Workers run suspect cells in an
    isolated child process so a poison cell's further crashes are
    contained instead of taking the fleet down again."""


class CellQueue:
    """Lease/ack/nack work queue over one SQLite database.

    Open one :class:`CellQueue` per connection-holder (each worker
    process opens its own); any number may share a queue *file*.
    """

    def __init__(self, path: str | Path = ":memory:",
                 busy_timeout: float = 30.0, journal=None,
                 heartbeats=None,
                 heartbeat_stale_seconds: float =
                 DEFAULT_HEARTBEAT_STALE_SECONDS) -> None:
        self.path = str(path)
        self.journal = journal if journal is not None else NULL_JOURNAL
        self.heartbeats = heartbeats
        self.heartbeat_stale_seconds = heartbeat_stale_seconds
        self._conn = sqlite3.connect(self.path,
                                     timeout=busy_timeout,
                                     isolation_level=None)
        self._conn.row_factory = sqlite3.Row
        if self.path != ":memory:":
            self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute("PRAGMA synchronous=NORMAL")
        # Belt and braces alongside the connect timeout: make SQLite
        # itself wait out short write-lock bursts before raising.
        self._conn.execute(f"PRAGMA busy_timeout="
                           f"{max(0, int(busy_timeout * 1000))}")
        self._conn.executescript(_SCHEMA)
        # Queue files written by earlier layers lack newer columns;
        # migrate in place (idempotent).
        for migration in (
                "ALTER TABLE cells ADD COLUMN enqueued "
                "REAL NOT NULL DEFAULT 0.0",
                "ALTER TABLE cells ADD COLUMN fatal_attempts "
                "INTEGER NOT NULL DEFAULT 0",
                "ALTER TABLE cells ADD COLUMN lease_seconds "
                "REAL NOT NULL DEFAULT 0.0"):
            try:
                self._conn.execute(migration)
            except sqlite3.OperationalError:
                pass                   # column already exists

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "CellQueue":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def _txn(self):
        """``BEGIN IMMEDIATE`` write transaction (context manager)."""
        return _Transaction(self._conn)

    # ------------------------------------------------------------------
    # producer side
    # ------------------------------------------------------------------

    def add(self, entries, *, max_attempts: int = 1,
            backoff: float = 0.0) -> int:
        """Enqueue cells; returns how many rows were newly inserted.

        ``entries`` yields ``(key, descriptor, label)`` triples.  The
        call is idempotent: a key already present is *not* duplicated.
        Re-requesting a row does refresh its retry policy (a resumed
        run's ``--retries`` wins) and *revives* ``failed`` rows —
        attempts reset to zero — because a new run owns a fresh budget,
        exactly as per-session retry accounting always worked.  ``done``
        rows are never touched: their results are the cache.
        ``poisoned`` rows are never revived either: a cell that killed
        a worker on every attempt should not be re-armed by a routine
        resume — clearing it is a deliberate act (``campaign_doctor``
        or a fresh campaign), not a side effect.
        """
        added = 0
        now = time.time()
        with self._txn():
            for key, descriptor, label in entries:
                cur = self._conn.execute(
                    "INSERT INTO cells (key, descriptor, label,"
                    " max_attempts, backoff, enqueued)"
                    " VALUES (?, ?, ?, ?, ?, ?)"
                    " ON CONFLICT(key) DO NOTHING",
                    (key, json.dumps(descriptor, sort_keys=True), label,
                     max_attempts, backoff, now))
                added += cur.rowcount
                self._conn.execute(
                    "UPDATE cells SET max_attempts = ?, backoff = ?"
                    " WHERE key = ?"
                    " AND state NOT IN ('done', 'poisoned')",
                    (max_attempts, backoff, key))
                self._conn.execute(
                    "UPDATE cells SET state = 'pending', attempts = 0,"
                    " fatal_attempts = 0, not_before = 0,"
                    " lease_owner = NULL, lease_deadline = NULL,"
                    " error = NULL"
                    " WHERE key = ? AND state = 'failed'",
                    (key,))
        return added

    # ------------------------------------------------------------------
    # worker side
    # ------------------------------------------------------------------

    def lease(self, owner: str, limit: int = 1,
              lease_seconds: float = 300.0) -> list[LeasedCell]:
        """Claim up to ``limit`` runnable cells for ``owner``.

        Expired leases are reclaimed first (their lost attempt charged
        against the budget), then the oldest pending rows whose backoff
        has elapsed are leased.  Each lease increments ``attempts`` —
        the attempt is charged when the work is *handed out*, so a
        worker that dies without reporting cannot spend the budget
        forever.
        """
        now = time.time()
        leased: list[LeasedCell] = []
        events: list[tuple[str, dict]] = []
        with self._txn():
            events += self._reclaim_expired(now)
            events += self._settle_stale_owners(now)
            rows = self._conn.execute(
                "SELECT key, descriptor, label, attempts,"
                " fatal_attempts, enqueued"
                " FROM cells"
                " WHERE state = 'pending' AND not_before <= ?"
                " ORDER BY seq LIMIT ?", (now, limit)).fetchall()
            for row in rows:
                attempts = row["attempts"] + 1
                self._conn.execute(
                    "UPDATE cells SET state = 'leased', attempts = ?,"
                    " lease_owner = ?, lease_deadline = ?,"
                    " lease_seconds = ?,"
                    " first_leased = COALESCE(first_leased, ?)"
                    " WHERE key = ?",
                    (attempts, owner, now + lease_seconds,
                     lease_seconds, now, row["key"]))
                leased.append(LeasedCell(
                    key=row["key"],
                    descriptor=json.loads(row["descriptor"]),
                    label=row["label"], attempts=attempts,
                    suspect=row["fatal_attempts"] > 0))
                events.append(("lease", {
                    "key": row["key"], "label": row["label"],
                    "worker": owner, "attempt": attempts,
                    "queue_wait": round(now - row["enqueued"], 6)
                    if row["enqueued"] else None}))
        self._emit(events)
        return leased

    def ack(self, key: str, owner: str, result: dict) -> None:
        """Report success; idempotent, ignores stale/foreign leases.

        A late ack from an expired lease (the cell was re-leased, maybe
        even completed, by someone else) is accepted only if the row is
        not already done — and since results are deterministic, whoever
        wins writes the same bytes.
        """
        events: list[tuple[str, dict]] = []
        with self._txn():
            cur = self._conn.execute(
                "UPDATE cells SET state = 'done', result = ?,"
                " error = NULL, lease_owner = NULL,"
                " lease_deadline = NULL,"
                " elapsed = ? - first_leased"
                " WHERE key = ? AND state != 'done'",
                (json.dumps(result, sort_keys=True), time.time(), key))
            if cur.rowcount:
                row = self._conn.execute(
                    "SELECT label, attempts, elapsed FROM cells"
                    " WHERE key = ?", (key,)).fetchone()
                events.append(("ack", {
                    "key": key, "label": row["label"], "worker": owner,
                    "attempt": row["attempts"],
                    "elapsed": round(row["elapsed"], 6)
                    if row["elapsed"] is not None else None}))
        self._emit(events)

    def nack(self, key: str, owner: str, error: str,
             fatal: bool = False) -> None:
        """Report failure; requeues with backoff or fails by budget.

        ``fatal=True`` attributes the attempt to a worker death the
        caller *observed* — an isolated child that crashed
        (:class:`~repro.resilience.CellCrash`) is a contained fleet
        kill and must count toward poisoning exactly like an
        uncontained one.
        """
        with self._txn():
            events = self._settle(key, error, owner=owner,
                                  cause="nack", fatal=fatal)
        self._emit(events)

    def unlease(self, key: str, owner: str) -> bool:
        """Return a leased cell *unexecuted*, refunding the attempt.

        Used when a worker leased a batch but stopped before reaching
        this cell (a drain signal arrived, the operator hit Ctrl-C):
        the cell did not run, so its budget must not be charged.
        Returns whether a lease was actually refunded (``False`` for
        foreign/settled rows).
        """
        with self._txn():
            cur = self._conn.execute(
                "UPDATE cells SET state = 'pending',"
                " attempts = attempts - 1, lease_owner = NULL,"
                " lease_deadline = NULL"
                " WHERE key = ? AND state = 'leased'"
                " AND lease_owner = ?", (key, owner))
        if cur.rowcount:
            self._emit([("unlease", {"key": key, "worker": owner})])
        return bool(cur.rowcount)

    def release(self, owner: str, error: str) -> int:
        """Requeue/fail every cell ``owner`` holds (owner died).

        Called by a supervisor that *knows* the worker is gone —
        instead of waiting out the lease deadline.  The in-flight
        attempt stays charged.  Returns the number of cells released.
        """
        released = 0
        events: list[tuple[str, dict]] = []
        with self._txn():
            rows = self._conn.execute(
                "SELECT key FROM cells WHERE state = 'leased'"
                " AND lease_owner = ?", (owner,)).fetchall()
            for row in rows:
                events += self._settle(row["key"], error, owner=owner,
                                       cause="release")
                released += 1
        self._emit(events)
        return released

    def _reclaim_expired(self, now: float) -> list[tuple[str, dict]]:
        """Requeue/fail rows whose lease deadline has passed.

        Settled against the caller's ``now`` so a zero-backoff
        reclaimed row is leasable in the *same* ``lease`` call — the
        worker that discovers a death picks up the orphaned work
        immediately instead of sleeping out a poll interval.  Returns
        the journal events to emit once the transaction commits.

        With a heartbeat store attached, a beat *renews* the lease: a
        deadline-expired row is deferred while its owner's last
        heartbeat is younger than the row's own lease duration.
        Workers beat every lease round and every completed cell, so an
        alive worker grinding through a slow batch keeps its cells,
        while a crashed worker's beats stopped with it — its rows are
        reclaimed on exactly the deadline schedule a heartbeat-less
        queue would use.
        """
        rows = self._conn.execute(
            "SELECT key, lease_owner, lease_seconds FROM cells"
            " WHERE state = 'leased' AND lease_deadline < ?",
            (now,)).fetchall()
        events: list[tuple[str, dict]] = []
        for row in rows:
            if self._owner_renewed(row["lease_owner"],
                                   row["lease_seconds"], now):
                continue
            events += self._settle(
                row["key"], "lease expired (worker presumed dead)",
                now=now, cause="lease_expired")
        return events

    def _owner_renewed(self, owner: str | None,
                       lease_seconds: float, now: float) -> bool:
        """Whether ``owner``'s heartbeat implicitly renews its lease."""
        if self.heartbeats is None or owner is None \
                or lease_seconds <= 0:
            return False
        age = self.heartbeats.age(owner, now)
        return age is not None and age < lease_seconds

    def _settle_stale_owners(self, now: float) \
            -> list[tuple[str, dict]]:
        """Release leases of workers whose heartbeat has gone stale.

        The inverse of the deferral in :meth:`_reclaim_expired`: a
        worker that *stopped beating* for longer than
        ``heartbeat_stale_seconds`` is presumed dead even though its
        lease deadlines may be far in the future — no point making
        the fleet wait out a generous deadline for a worker the
        filesystem says is gone.  Owners with *no* heartbeat file are
        left to plain deadline semantics: absence of evidence (a
        heartbeat-less external worker, a cleanly exited one) is not
        evidence of death.
        """
        if self.heartbeats is None:
            return []
        events: list[tuple[str, dict]] = []
        owners = [row["lease_owner"] for row in self._conn.execute(
            "SELECT DISTINCT lease_owner FROM cells"
            " WHERE state = 'leased' AND lease_owner IS NOT NULL")]
        for owner in owners:
            age = self.heartbeats.age(owner, now)
            if age is None or age < self.heartbeat_stale_seconds:
                continue
            REGISTRY.counter("repro_heartbeat_stale_total").inc()
            for row in self._conn.execute(
                    "SELECT key FROM cells WHERE state = 'leased'"
                    " AND lease_owner = ?", (owner,)).fetchall():
                events += self._settle(
                    row["key"],
                    f"worker heartbeat stale ({age:.0f} s without a "
                    "beat; worker presumed dead)",
                    owner=owner, now=now, cause="heartbeat_stale")
        return events

    def reclaim(self, now: float | None = None) -> int:
        """Settle every reclaimable lease right now; returns how many.

        The supervisor's and doctor's entry point: one call sweeps
        both deadline-expired leases (heartbeat deferral honoured) and
        leases of heartbeat-stale owners, without leasing anything.
        """
        now = time.time() if now is None else now
        with self._txn():
            events = self._reclaim_expired(now)
            events += self._settle_stale_owners(now)
        self._emit(events)
        return sum(1 for ev, _ in events if ev in FATAL_CAUSES)

    def _settle(self, key: str, error: str,
                owner: str | None = None,
                now: float | None = None,
                cause: str = "nack",
                fatal: bool = False) -> list[tuple[str, dict]]:
        """Move one leased row to pending (budget left) or failed.

        Requeued rows honour the deterministic exponential backoff:
        retry ``n`` (i.e. after ``n`` charged attempts) may not lease
        again before ``backoff * 2**(n-1)`` seconds pass.  Returns the
        journal events describing what happened (the *cause* — nack,
        lease expiry, supervisor release or stale heartbeat — then the
        consequence — retry or budget exhaustion), for the caller to
        emit after its transaction commits.

        Attempts whose cause (or explicit ``fatal`` flag) means the
        worker died are tallied in ``fatal_attempts``; a budget
        exhausted purely by worker deaths settles the row as
        ``poisoned`` instead of ``failed`` — this cell kills workers,
        and must never crash-loop a fleet nor hide among ordinary
        failures.
        """
        fatal = fatal or cause in FATAL_CAUSES
        guard = " AND lease_owner = ?" if owner is not None else ""
        args = (key,) + ((owner,) if owner is not None else ())
        row = self._conn.execute(
            "SELECT label, attempts, fatal_attempts, max_attempts,"
            " backoff, first_leased, lease_owner"
            " FROM cells WHERE key = ? AND state = 'leased'" + guard,
            args).fetchone()
        if row is None:
            return []
        fatal_attempts = row["fatal_attempts"] + (1 if fatal else 0)
        scope = {"key": key, "label": row["label"],
                 "worker": owner if owner is not None
                 else row["lease_owner"],
                 "attempt": row["attempts"]}
        events: list[tuple[str, dict]] = \
            [(cause, {**scope, "error": error})]
        if row["attempts"] < row["max_attempts"]:
            delay = row["backoff"] * 2 ** (row["attempts"] - 1) \
                if row["backoff"] else 0.0
            settled = (now if now is not None else time.time())
            self._conn.execute(
                "UPDATE cells SET state = 'pending', not_before = ?,"
                " fatal_attempts = ?,"
                " lease_owner = NULL, lease_deadline = NULL,"
                " error = ? WHERE key = ?",
                (settled + delay, fatal_attempts, error, key))
            REGISTRY.counter("repro_retries_total").inc()
            events.append(("retry", {**scope,
                                     "backoff_seconds": delay}))
        else:
            poisoned = fatal and fatal_attempts >= row["attempts"]
            state = "poisoned" if poisoned else "failed"
            self._conn.execute(
                "UPDATE cells SET state = ?, fatal_attempts = ?,"
                " lease_owner = NULL,"
                " lease_deadline = NULL, error = ?,"
                " elapsed = ? - first_leased WHERE key = ?",
                (state, fatal_attempts, error, time.time(), key))
            if poisoned:
                REGISTRY.counter("repro_poisoned_total").inc()
                events.append(("poisoned", {
                    **scope, "error": error,
                    "fatal_attempts": fatal_attempts}))
            else:
                events.append(("failed", {**scope, "error": error}))
        if cause == "lease_expired":
            REGISTRY.counter("repro_lease_expired_total").inc()
        return events

    def _emit(self, events: list[tuple[str, dict]]) -> None:
        """Write buffered post-commit events to the journal."""
        for ev, fields in events:
            self.journal.emit(ev, **fields)

    # ------------------------------------------------------------------
    # observation
    # ------------------------------------------------------------------

    def counts(self) -> dict[str, int]:
        """Row count per state (absent states omitted)."""
        return {row["state"]: row["n"] for row in self._conn.execute(
            "SELECT state, COUNT(*) AS n FROM cells GROUP BY state")}

    def unresolved(self) -> int:
        """Rows still needing execution (pending or leased)."""
        (n,) = self._conn.execute(
            "SELECT COUNT(*) FROM cells WHERE state NOT IN"
            " ('done', 'failed', 'poisoned')").fetchone()
        return n

    def total_attempts(self) -> int:
        """Sum of charged execution attempts across all rows."""
        (n,) = self._conn.execute(
            "SELECT COALESCE(SUM(attempts), 0) FROM cells").fetchone()
        return n

    def earliest_not_before(self) -> float | None:
        """Soonest time a pending row becomes leasable (None if none)."""
        row = self._conn.execute(
            "SELECT MIN(not_before) AS t FROM cells"
            " WHERE state = 'pending'").fetchone()
        return row["t"]

    def results(self) -> dict[str, dict]:
        """key -> stored result payload for every ``done`` row."""
        return {row["key"]: json.loads(row["result"])
                for row in self._conn.execute(
                    "SELECT key, result FROM cells"
                    " WHERE state = 'done'")}

    def failures(self) -> dict[str, CellFailure]:
        """key -> :class:`CellFailure` per ``failed``/``poisoned`` row.

        Poisoned rows are failures too — they have no result, strict
        callers must still raise, partial reports must still mark the
        hole — but their error is prefixed so every downstream surface
        (reports, logs, exceptions) shows the fleet-killer distinctly.
        """
        out = {}
        for row in self._conn.execute(
                "SELECT key, label, state, attempts, fatal_attempts,"
                " error, elapsed"
                " FROM cells WHERE state IN ('failed', 'poisoned')"):
            error = row["error"] or "retry budget exhausted"
            if row["state"] == "poisoned":
                error = (f"poisoned after {row['fatal_attempts']} "
                         f"worker-fatal attempt(s): {error}")
            out[row["key"]] = CellFailure(
                key=row["key"], label=row["label"],
                attempts=row["attempts"], error=error,
                elapsed=row["elapsed"] or 0.0)
        return out

    def poisoned(self) -> dict[str, CellFailure]:
        """key -> :class:`CellFailure` for every ``poisoned`` row."""
        out = {}
        for row in self._conn.execute(
                "SELECT key, label, attempts, fatal_attempts, error,"
                " elapsed FROM cells WHERE state = 'poisoned'"):
            out[row["key"]] = CellFailure(
                key=row["key"], label=row["label"],
                attempts=row["attempts"],
                error=row["error"] or "retry budget exhausted",
                elapsed=row["elapsed"] or 0.0)
        return out


class _Transaction:
    """``BEGIN IMMEDIATE`` .. ``COMMIT``/``ROLLBACK`` scope.

    ``BEGIN IMMEDIATE`` takes the write lock up front; under a burst
    of external workers SQLite can still surface ``database is
    locked`` past the busy timeout, so acquisition retries a bounded,
    deterministic number of times (linear backoff) before giving up —
    a fleet member should ride out contention, not crash on it.
    """

    def __init__(self, conn: sqlite3.Connection) -> None:
        self._conn = conn

    def __enter__(self) -> sqlite3.Connection:
        for retry in range(_LOCK_RETRIES + 1):
            try:
                self._conn.execute("BEGIN IMMEDIATE")
                return self._conn
            except sqlite3.OperationalError as exc:
                message = str(exc).lower()
                if retry == _LOCK_RETRIES or (
                        "locked" not in message
                        and "busy" not in message):
                    raise
                time.sleep(_LOCK_RETRY_BASE_SECONDS * (retry + 1))
        raise AssertionError("unreachable")

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self._conn.execute("COMMIT")
        else:
            self._conn.execute("ROLLBACK")
