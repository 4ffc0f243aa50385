"""The durable cell queue: lease/ack/nack state machine, budgets,
crash reclamation, lease renewal and persistence.

Pure queue-protocol tests — no simulations run here; descriptors are
tiny stand-in dicts.  The integration suites (``test_engine.py``,
``test_resume.py``) exercise the same protocol with real cells, and
``test_queue_model.py`` checks it against a reference model.
"""

import sqlite3
import time
from contextlib import closing

import pytest

from repro.campaign.queue import CellQueue


def entry(n):
    return (f"key{n}", {"cell": n}, f"label{n}")


def fill(queue, n=3, **kwargs):
    return queue.add([entry(i) for i in range(n)], **kwargs)


class TestAdd:
    def test_add_counts_only_new_rows(self):
        with CellQueue() as queue:
            assert fill(queue, 3) == 3
            assert fill(queue, 3) == 0          # idempotent
            assert queue.counts() == {"pending": 3}

    def test_add_refreshes_retry_policy_of_unfinished_rows(self):
        with CellQueue() as queue:
            fill(queue, 1, max_attempts=1)
            fill(queue, 1, max_attempts=3)      # resumed run's budget
            (leased,) = queue.lease("w")
            queue.nack(leased.key, "w", "boom")
            # Under the original budget this row would now be failed.
            assert queue.counts() == {"pending": 1}

    def test_add_revives_failed_rows_with_fresh_budget(self):
        with CellQueue() as queue:
            fill(queue, 1)
            (leased,) = queue.lease("w")
            queue.nack(leased.key, "w", "boom")
            assert queue.counts() == {"failed": 1}
            fill(queue, 1)
            assert queue.counts() == {"pending": 1}
            (revived,) = queue.lease("w")
            assert revived.attempts == 1        # budget reset, not resumed

    def test_done_rows_are_never_touched(self):
        with CellQueue() as queue:
            fill(queue, 1)
            (leased,) = queue.lease("w")
            queue.ack(leased.key, "w", {"ipc": 1.0})
            fill(queue, 1, max_attempts=5)
            assert queue.counts() == {"done": 1}
            assert queue.results()["key0"] == {"ipc": 1.0}


class TestLeaseAckNack:
    def test_lease_claims_oldest_first_and_charges_attempt(self):
        with CellQueue() as queue:
            fill(queue, 3)
            batch = queue.lease("w", limit=2)
            assert [lc.key for lc in batch] == ["key0", "key1"]
            assert all(lc.attempts == 1 for lc in batch)
            assert queue.counts() == {"leased": 2, "pending": 1}
            assert queue.total_attempts() == 2

    def test_leased_rows_are_not_leased_twice(self):
        with CellQueue() as queue:
            fill(queue, 2)
            queue.lease("a", limit=2)
            assert queue.lease("b", limit=2) == []

    def test_ack_resolves_and_stores_the_result(self):
        with CellQueue() as queue:
            fill(queue, 1)
            (leased,) = queue.lease("w")
            queue.ack(leased.key, "w", {"ipc": 2.5})
            assert queue.counts() == {"done": 1}
            assert queue.unresolved() == 0
            assert queue.results() == {"key0": {"ipc": 2.5}}

    def test_ack_is_idempotent(self):
        with CellQueue() as queue:
            fill(queue, 1)
            (leased,) = queue.lease("w")
            queue.ack(leased.key, "w", {"ipc": 2.5})
            queue.ack(leased.key, "other", {"ipc": 2.5})
            assert queue.counts() == {"done": 1}

    def test_nack_requeues_while_budget_remains(self):
        with CellQueue() as queue:
            fill(queue, 1, max_attempts=2)
            (leased,) = queue.lease("w")
            queue.nack(leased.key, "w", "boom")
            assert queue.counts() == {"pending": 1}
            (again,) = queue.lease("w")
            assert again.attempts == 2

    def test_nack_fails_the_row_once_budget_is_spent(self):
        with CellQueue() as queue:
            fill(queue, 1, max_attempts=2)
            for _ in range(2):
                (leased,) = queue.lease("w")
                queue.nack(leased.key, "w", "boom")
            assert queue.counts() == {"failed": 1}
            failure = queue.failures()["key0"]
            assert failure.attempts == 2
            assert failure.error == "boom"
            assert failure.label == "label0"

    def test_nack_from_a_foreign_owner_is_ignored(self):
        with CellQueue() as queue:
            fill(queue, 1)
            queue.lease("w")
            queue.nack("key0", "impostor", "boom")
            assert queue.counts() == {"leased": 1}

    def test_retry_record_names_the_cell_and_attempt(self, journal):
        with CellQueue(journal=journal) as queue:
            fill(queue, 1, max_attempts=2)
            (leased,) = queue.lease("w")
            queue.nack(leased.key, "w", "boom")
        assert journal.of("retry") == [
            {"key": "key0", "label": "label0", "worker": "w",
             "attempt": 1}]


class TestUnlease:
    def test_unlease_refunds_the_attempt(self):
        with CellQueue() as queue:
            fill(queue, 2, max_attempts=1)
            batch = queue.lease("w", limit=2)
            queue.nack(batch[0].key, "w", "boom")    # the culprit pays
            queue.unlease(batch[1].key, "w")         # the innocent doesn't
            assert queue.counts() == {"failed": 1, "pending": 1}
            (retried,) = queue.lease("w")
            assert retried.key == "key1"
            assert retried.attempts == 1             # refunded, recharged

    def test_unlease_is_owner_guarded(self):
        with CellQueue() as queue:
            fill(queue, 1)
            queue.lease("w")
            queue.unlease("key0", "impostor")
            assert queue.counts() == {"leased": 1}


class TestCrashReclamation:
    def test_expired_lease_returns_to_pending_with_attempt_charged(self):
        with CellQueue() as queue:
            fill(queue, 1, max_attempts=2)
            queue.lease("dead", lease_seconds=0.05)
            time.sleep(0.1)
            (reclaimed,) = queue.lease("alive")
            assert reclaimed.attempts == 2           # dead worker's + ours

    def test_expired_lease_exhausting_budget_is_poisoned(self):
        # Every charged attempt ended in a worker death, so the row
        # settles as poisoned (fleet-killer), not plain failed.
        with CellQueue() as queue:
            fill(queue, 1, max_attempts=1)
            queue.lease("dead", lease_seconds=0.05)
            time.sleep(0.1)
            assert queue.lease("alive") == []
            assert queue.counts() == {"poisoned": 1}
            assert "lease expired" in queue.failures()["key0"].error
            assert "poisoned" in queue.failures()["key0"].error
            assert queue.unresolved() == 0

    def test_release_returns_a_dead_workers_cells_immediately(self):
        with CellQueue() as queue:
            fill(queue, 3, max_attempts=2)
            queue.lease("dead", limit=2)
            queue.lease("alive", limit=1)
            assert queue.release("dead", "worker crashed") == 2
            counts = queue.counts()
            assert counts == {"pending": 2, "leased": 1}

    def test_late_ack_after_reclaim_still_lands(self):
        # A slow-but-alive worker whose lease expired completes anyway:
        # results are deterministic, so whoever acks first wins and the
        # duplicate completion is harmless.
        with CellQueue() as queue:
            fill(queue, 1, max_attempts=3)
            (first,) = queue.lease("slow", lease_seconds=0.05)
            time.sleep(0.1)
            queue.lease("fast")
            queue.ack(first.key, "slow", {"ipc": 1.0})
            assert queue.counts() == {"done": 1}


class TestLeaseRenewal:
    """An ack or nack renews every other lease its owner holds, so a
    lease expires only once its owner has stopped reporting."""

    def test_ack_keeps_the_owners_other_rows_alive(self, clock):
        with CellQueue() as queue:
            fill(queue, 3, max_attempts=2)
            batch = queue.lease("w", limit=3, lease_seconds=10.0)
            clock.advance(8.0)
            queue.ack(batch[0].key, "w", {"ipc": 1.0})
            clock.advance(8.0)                   # past the first deadline
            assert queue.lease("other") == []
            assert queue.counts() == {"done": 1, "leased": 2}

    def test_nack_keeps_the_owners_other_rows_alive(self, clock):
        with CellQueue() as queue:
            fill(queue, 3, max_attempts=1)
            batch = queue.lease("w", limit=3, lease_seconds=10.0)
            clock.advance(8.0)
            queue.nack(batch[0].key, "w", "boom")
            clock.advance(8.0)                   # past the first deadline
            assert queue.lease("other") == []
            assert queue.counts() == {"failed": 1, "leased": 2}

    def test_an_owner_that_stops_acking_loses_its_rows(self, clock,
                                                       journal):
        with CellQueue(journal=journal) as queue:
            fill(queue, 3, max_attempts=2)
            batch = queue.lease("w", limit=3, lease_seconds=10.0)
            clock.advance(5.0)
            queue.ack(batch[0].key, "w", {"ipc": 1.0})
            clock.advance(9.0)                   # 9 s since the ack
            assert queue.lease("other", limit=3) == []
            assert journal.of("lease_expired") == []
            clock.advance(2.0)                   # 11 s since the ack
            again = queue.lease("other", limit=3)
            expired = journal.of("lease_expired")
            assert [(e["key"], e["worker"]) for e in expired] \
                == [("key1", "w"), ("key2", "w")]
            assert dict(queue._conn.execute(
                "SELECT key, fatal_attempts FROM cells")) \
                == {"key0": 0, "key1": 1, "key2": 1}
            assert [(lc.key, lc.attempts, lc.suspect) for lc in again] \
                == [("key1", 2, True), ("key2", 2, True)]

    def test_a_silent_owner_keeps_its_lease_to_the_deadline(self, clock):
        with CellQueue() as queue:
            fill(queue, 1, max_attempts=2)
            queue.lease("w", lease_seconds=10.0)
            clock.advance(10.0)                  # at, not past, it
            assert queue.lease("other") == []
            clock.advance(0.5)
            (taken,) = queue.lease("other")
            assert taken.attempts == 2

    def test_renewal_uses_each_rows_own_lease_seconds(self, clock):
        with CellQueue() as queue:
            fill(queue, 3, max_attempts=2)
            queue.lease("w", lease_seconds=10.0)
            queue.lease("w", lease_seconds=30.0)
            (last,) = queue.lease("w", lease_seconds=10.0)
            clock.advance(5.0)
            queue.ack(last.key, "w", {"ipc": 1.0})   # key0: 15, key1: 35
            clock.advance(11.0)
            assert [lc.key for lc in queue.lease("other")] == ["key0"]
            clock.advance(17.0)                  # 33 s: key1 lives on
            assert queue.lease("other") == []
            clock.advance(3.0)
            assert [lc.key for lc in queue.lease("other")] == ["key1"]

    def test_renewal_leaves_other_owners_alone(self, clock, journal):
        with CellQueue(journal=journal) as queue:
            fill(queue, 3, max_attempts=2)
            queue.lease("a", lease_seconds=10.0)
            queue.lease("b", limit=2, lease_seconds=10.0)
            clock.advance(8.0)
            queue.ack("key1", "b", {"ipc": 1.0})
            clock.advance(3.0)
            assert [lc.key for lc in queue.lease("other", limit=3)] \
                == ["key0"]                      # only a's row
            assert [(e["key"], e["worker"])
                    for e in journal.of("lease_expired")] \
                == [("key0", "a")]

    def test_a_late_ack_still_renews_the_acker(self, clock):
        # The ack lands after the row was reclaimed and re-leased; it
        # still proves its sender alive.
        with CellQueue() as queue:
            fill(queue, 2, max_attempts=2)
            queue.lease("w", lease_seconds=10.0)
            clock.advance(5.0)
            queue.lease("w", lease_seconds=10.0)     # key1: deadline 15
            clock.advance(6.0)
            (taken,) = queue.lease("other", lease_seconds=10.0)
            assert taken.key == "key0"
            queue.ack("key0", "w", {"ipc": 1.0})     # key1: deadline 21
            clock.advance(8.0)
            assert queue.lease("third") == []
            assert queue.counts() == {"done": 1, "leased": 1}


class TestPersistence:
    def test_state_survives_reconnection(self, tmp_path):
        path = tmp_path / "queue.sqlite"
        with CellQueue(path) as queue:
            fill(queue, 2)
            (leased,) = queue.lease("w", limit=1)
            queue.ack(leased.key, "w", {"ipc": 1.5})
        with CellQueue(path) as queue:
            assert queue.counts() == {"done": 1, "pending": 1}
            assert queue.results() == {"key0": {"ipc": 1.5}}
            assert queue.total_attempts() == 1

    def test_two_connections_partition_the_work(self, tmp_path):
        path = tmp_path / "queue.sqlite"
        with CellQueue(path) as a, CellQueue(path) as b:
            fill(a, 4)
            got_a = a.lease("a", limit=2)
            got_b = b.lease("b", limit=4)
            keys = {lc.key for lc in got_a} | {lc.key for lc in got_b}
            assert len(got_a) == 2 and len(got_b) == 2
            assert len(keys) == 4                    # no double-lease


LEGACY_COLUMNS = """
    seq            INTEGER PRIMARY KEY AUTOINCREMENT,
    key            TEXT NOT NULL UNIQUE,
    descriptor     TEXT NOT NULL,
    label          TEXT NOT NULL,
    state          TEXT NOT NULL DEFAULT 'pending',
    attempts       INTEGER NOT NULL DEFAULT 0,
    max_attempts   INTEGER NOT NULL DEFAULT 1,
    backoff        REAL NOT NULL DEFAULT 0.0,
    not_before     REAL NOT NULL DEFAULT 0.0,
    lease_owner    TEXT,
    lease_deadline REAL,
    first_leased   REAL,
    elapsed        REAL,
    error          TEXT,
    result         TEXT"""

LEGACY_SCHEMAS = {
    # Every column queue files carried before the retry backoff went:
    # ``backoff`` and ``not_before`` included, indexed on both.
    "with-backoff": "CREATE TABLE cells (" + LEGACY_COLUMNS + """,
    fatal_attempts INTEGER NOT NULL DEFAULT 0,
    enqueued       REAL NOT NULL DEFAULT 0.0,
    lease_seconds  REAL NOT NULL DEFAULT 0.0);
CREATE INDEX cells_state ON cells (state, not_before);""",
    # Older still: before the in-place migrations added crash
    # attribution, queue-wait stamps and per-row lease durations.
    "pre-migration": "CREATE TABLE cells (" + LEGACY_COLUMNS + """);
CREATE INDEX cells_state ON cells (state, not_before);""",
}


class TestLegacyQueueFiles:
    @pytest.mark.parametrize("schema", sorted(LEGACY_SCHEMAS))
    def test_adds_leases_nacks_and_acks(self, tmp_path, schema):
        path = tmp_path / "queue.sqlite"
        with closing(sqlite3.connect(path)) as conn, conn:
            conn.executescript(LEGACY_SCHEMAS[schema])
            conn.execute("INSERT INTO cells (key, descriptor, label)"
                         " VALUES ('old', '{}', 'old-label')")
        with CellQueue(path) as queue:
            assert fill(queue, 2, max_attempts=2) == 2
            batch = queue.lease("w", limit=3)
            assert [lc.key for lc in batch] == ["old", "key0", "key1"]
            queue.nack("key0", "w", "boom")
            queue.ack("old", "w", {"ipc": 0.5})
            queue.ack("key1", "w", {"ipc": 1.5})
            (again,) = queue.lease("w")
            assert (again.key, again.attempts) == ("key0", 2)
            queue.ack("key0", "w", {"ipc": 1.0})
        with CellQueue(path) as queue:      # migrations are idempotent
            assert queue.counts() == {"done": 3}
            assert queue.results() == {"old": {"ipc": 0.5},
                                       "key0": {"ipc": 1.0},
                                       "key1": {"ipc": 1.5}}
            assert queue.total_attempts() == 4
