"""The durable cell queue: lease/ack/nack state machine, budgets,
crash reclamation, lease deadlines and persistence.

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
            leased = queue.lease("w")
            queue.nack(leased.key, "w", "boom")
            # Under the original budget this row would now be failed.
            assert queue.counts() == {"pending": 1}

    def test_add_revives_failed_rows_with_fresh_budget(self):
        with CellQueue() as queue:
            fill(queue, 1)
            leased = queue.lease("w")
            queue.nack(leased.key, "w", "boom")
            assert queue.counts() == {"failed": 1}
            fill(queue, 1)
            assert queue.counts() == {"pending": 1}
            revived = queue.lease("w")
            assert revived.attempts == 1        # budget reset, not resumed

    def test_done_rows_are_never_touched(self):
        with CellQueue() as queue:
            fill(queue, 1)
            leased = queue.lease("w")
            queue.ack(leased.key, "w", {"ipc": 1.0})
            fill(queue, 1, max_attempts=5)
            assert queue.counts() == {"done": 1}
            assert queue.results()["key0"] == {"ipc": 1.0}


class TestLeaseAckNack:
    def test_lease_claims_oldest_first_and_charges_attempt(self):
        with CellQueue() as queue:
            fill(queue, 3)
            first = queue.lease("w")
            assert (first.key, first.attempts) == ("key0", 1)
            assert queue.counts() == {"leased": 1, "pending": 2}
            second = queue.lease("w")
            assert (second.key, second.attempts) == ("key1", 1)
            assert queue.counts() == {"leased": 2, "pending": 1}
            assert queue.total_attempts() == 2

    def test_leased_rows_are_not_leased_twice(self):
        with CellQueue() as queue:
            fill(queue, 2)
            queue.lease("a")
            queue.lease("a")
            assert queue.lease("b") is None

    def test_an_empty_queue_leases_nothing(self):
        with CellQueue() as queue:
            assert queue.lease("w") is None
            assert queue.total_attempts() == 0

    def test_ack_resolves_and_stores_the_result(self):
        with CellQueue() as queue:
            fill(queue, 1)
            leased = queue.lease("w")
            queue.ack(leased.key, "w", {"ipc": 2.5})
            assert queue.counts() == {"done": 1}
            assert queue.unresolved() == 0
            assert queue.results() == {"key0": {"ipc": 2.5}}

    def test_ack_is_idempotent(self):
        with CellQueue() as queue:
            fill(queue, 1)
            leased = queue.lease("w")
            queue.ack(leased.key, "w", {"ipc": 2.5})
            queue.ack(leased.key, "other", {"ipc": 2.5})
            assert queue.counts() == {"done": 1}

    def test_nack_requeues_while_budget_remains(self):
        with CellQueue() as queue:
            fill(queue, 1, max_attempts=2)
            leased = queue.lease("w")
            queue.nack(leased.key, "w", "boom")
            assert queue.counts() == {"pending": 1}
            again = queue.lease("w")
            assert again.attempts == 2

    def test_nack_fails_the_row_once_budget_is_spent(self):
        with CellQueue() as queue:
            fill(queue, 1, max_attempts=2)
            for _ in range(2):
                leased = queue.lease("w")
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
            leased = queue.lease("w")
            queue.nack(leased.key, "w", "boom")
        assert journal.of("retry") == [
            {"key": "key0", "label": "label0", "worker": "w",
             "attempt": 1}]


class TestUnlease:
    def test_unlease_refunds_the_attempt(self):
        with CellQueue() as queue:
            fill(queue, 2, max_attempts=1)
            culprit = queue.lease("w")
            innocent = queue.lease("w")
            queue.nack(culprit.key, "w", "boom")     # the culprit pays
            queue.unlease(innocent.key, "w")         # the innocent doesn't
            assert queue.counts() == {"failed": 1, "pending": 1}
            retried = queue.lease("w")
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
            reclaimed = queue.lease("alive")
            assert reclaimed.attempts == 2           # dead worker's + ours

    def test_expired_lease_exhausting_budget_is_poisoned(self):
        # Every charged attempt ended in a worker death, so the row
        # settles as poisoned (fleet-killer), not plain failed.
        with CellQueue() as queue:
            fill(queue, 1, max_attempts=1)
            queue.lease("dead", lease_seconds=0.05)
            time.sleep(0.1)
            assert queue.lease("alive") is None
            assert queue.counts() == {"poisoned": 1}
            assert "lease expired" in queue.failures()["key0"].error
            assert "poisoned" in queue.failures()["key0"].error
            assert queue.unresolved() == 0

    def test_release_returns_a_dead_workers_cells_immediately(self):
        with CellQueue() as queue:
            fill(queue, 3, max_attempts=2)
            queue.lease("dead")
            queue.lease("dead")
            queue.lease("alive")
            assert queue.release("dead", "worker crashed") == 2
            counts = queue.counts()
            assert counts == {"pending": 2, "leased": 1}

    def test_late_ack_after_reclaim_still_lands(self):
        # A slow-but-alive worker whose lease expired completes anyway:
        # results are deterministic, so whoever acks first wins and the
        # duplicate completion is harmless.
        with CellQueue() as queue:
            fill(queue, 1, max_attempts=3)
            first = queue.lease("slow", lease_seconds=0.05)
            time.sleep(0.1)
            queue.lease("fast")
            queue.ack(first.key, "slow", {"ipc": 1.0})
            assert queue.counts() == {"done": 1}


class TestLeaseDeadline:
    """The deadline ``lease`` sets is the one liveness rule: nothing
    moves it, and a lease expires only once it has passed."""

    def test_a_silent_owner_keeps_its_lease_to_the_deadline(self, clock):
        with CellQueue() as queue:
            fill(queue, 1, max_attempts=2)
            queue.lease("w", lease_seconds=10.0)
            clock.advance(10.0)                  # at, not past, it
            assert queue.lease("other") is None
            clock.advance(0.5)
            taken = queue.lease("other")
            assert taken.attempts == 2

    @pytest.mark.parametrize("settle", ["ack", "nack"])
    def test_settling_a_cell_moves_no_other_deadline(self, clock,
                                                     journal, settle):
        with CellQueue(journal=journal) as queue:
            fill(queue, 2, max_attempts=2)
            first = queue.lease("w", lease_seconds=10.0)
            queue.lease("w", lease_seconds=10.0)
            clock.advance(8.0)
            if settle == "ack":
                queue.ack(first.key, "w", {"ipc": 1.0})
            else:
                queue.nack(first.key, "w", "boom")
            clock.advance(2.5)                   # past key1's deadline
            queue.lease("other")
            assert [(e["key"], e["worker"])
                    for e in journal.of("lease_expired")] \
                == [("key1", "w")]


class TestPersistence:
    def test_state_survives_reconnection(self, tmp_path):
        path = tmp_path / "queue.sqlite"
        with CellQueue(path) as queue:
            fill(queue, 2)
            leased = queue.lease("w")
            queue.ack(leased.key, "w", {"ipc": 1.5})
        with CellQueue(path) as queue:
            assert queue.counts() == {"done": 1, "pending": 1}
            assert queue.results() == {"key0": {"ipc": 1.5}}
            assert queue.total_attempts() == 1

    def test_two_connections_partition_the_work(self, tmp_path):
        path = tmp_path / "queue.sqlite"
        with CellQueue(path) as a, CellQueue(path) as b:
            fill(a, 4)
            got = [a.lease("a"), b.lease("b"), a.lease("a"), b.lease("b")]
            assert a.lease("a") is None and b.lease("b") is None
            assert [lc.key for lc in got] \
                == ["key0", "key1", "key2", "key3"]  # no double-lease


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
    # ``backoff`` and ``not_before`` included, indexed on both, and
    # the per-row ``lease_seconds`` that lease renewal read.
    "with-backoff": "CREATE TABLE cells (" + LEGACY_COLUMNS + """,
    fatal_attempts INTEGER NOT NULL DEFAULT 0,
    enqueued       REAL NOT NULL DEFAULT 0.0,
    lease_seconds  REAL NOT NULL DEFAULT 0.0);
CREATE INDEX cells_state ON cells (state, not_before);""",
    # Older still: before the in-place migrations added crash
    # attribution and queue-wait stamps.
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
            leased = [queue.lease("w") for _ in range(3)]
            assert [lc.key for lc in leased] == ["old", "key0", "key1"]
            queue.nack("key0", "w", "boom")
            queue.ack("old", "w", {"ipc": 0.5})
            queue.ack("key1", "w", {"ipc": 1.5})
            again = queue.lease("w")
            assert (again.key, again.attempts) == ("key0", 2)
            queue.ack("key0", "w", {"ipc": 1.0})
        with CellQueue(path) as queue:      # migrations are idempotent
            assert queue.counts() == {"done": 3}
            assert queue.results() == {"old": {"ipc": 0.5},
                                       "key0": {"ipc": 1.0},
                                       "key1": {"ipc": 1.5}}
            assert queue.total_attempts() == 4

    def test_the_retired_lease_seconds_column_is_left_alone(self,
                                                             tmp_path):
        # Files that carry it keep it, and nothing writes it; new
        # files do not get it.
        old = tmp_path / "old.sqlite"
        with closing(sqlite3.connect(old)) as conn, conn:
            conn.executescript(LEGACY_SCHEMAS["with-backoff"])
        with CellQueue(old) as queue:
            fill(queue, 1)
            leased = queue.lease("w", lease_seconds=30.0)
            queue.ack(leased.key, "w", {"ipc": 1.0})
        with closing(sqlite3.connect(old)) as conn:
            assert conn.execute(
                "SELECT lease_seconds FROM cells").fetchall() == [(0.0,)]
        new = tmp_path / "new.sqlite"
        with CellQueue(new):
            pass
        with closing(sqlite3.connect(new)) as conn:
            columns = {row[1] for row in conn.execute(
                "PRAGMA table_info(cells)")}
        assert "lease_deadline" in columns
        assert "lease_seconds" not in columns
