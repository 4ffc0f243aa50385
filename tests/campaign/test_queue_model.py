"""The cell queue checked against a pure-Python reference model.

A hypothesis state machine drives an in-memory :class:`CellQueue` and
:class:`Model` through the same random sequence of adds, leases, acks,
nacks, unleases, releases and clock steps — each by a row's owner or
by a foreign one — and after every step requires both to agree on
every row and on every observation the queue offers.  A lease hands
out at most one row, and nothing but the lease itself sets a row's
deadline.  Lease expiry has no rule of its own: every ``lease``
settles expired rows first.
The queue reads the clock through its module's ``time``, which the
``clock`` fixture swaps for a fake so lease deadlines are exact.
"""

from dataclasses import dataclass

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    rule,
    run_state_machine_as_test,
)

from repro.campaign.queue import CellQueue

KEYS = ("k0", "k1", "k2", "k3")
OWNERS = ("a", "b", "c")
EXPIRED = "lease expired (worker presumed dead)"


@dataclass
class Row:
    key: str
    max_attempts: int
    state: str = "pending"
    attempts: int = 0
    fatal: int = 0
    owner: str | None = None
    deadline: float | None = None
    error: str | None = None


class Model:
    """What the queue's rows should hold, by the documented rules."""

    def __init__(self) -> None:
        self.rows: dict[str, Row] = {}          # insertion = seq order

    def add(self, keys, max_attempts) -> int:
        added = 0
        for key in keys:
            if key not in self.rows:
                self.rows[key] = Row(key, max_attempts)
                added += 1
            row = self.rows[key]
            if row.state not in ("done", "poisoned"):
                row.max_attempts = max_attempts
            if row.state == "failed":
                row.state, row.attempts, row.fatal = "pending", 0, 0
                row.error = None
        return added

    def settle(self, row, error, fatal) -> None:
        row.fatal += fatal
        row.owner = row.deadline = None
        row.error = error
        if row.attempts < row.max_attempts:
            row.state = "pending"
        elif fatal and row.fatal >= row.attempts:
            row.state = "poisoned"
        else:
            row.state = "failed"

    @staticmethod
    def holds(row, owner) -> bool:
        return row is not None and row.state == "leased" \
            and row.owner == owner

    def held(self, owner):
        return [row for row in self.rows.values()
                if self.holds(row, owner)]

    def expire(self, now) -> None:
        for row in self.rows.values():
            if row.state == "leased" and row.deadline < now:
                self.settle(row, EXPIRED, fatal=True)

    def lease(self, owner, lease_seconds, now):
        self.expire(now)
        for row in self.rows.values():
            if row.state == "pending":
                row.state, row.owner = "leased", owner
                row.attempts += 1
                row.deadline = now + lease_seconds
                return (row.key, row.attempts, row.fatal > 0)
        return None

    def ack(self, key) -> None:
        row = self.rows.get(key)
        if row is not None and row.state != "done":
            row.state, row.owner, row.deadline = "done", None, None
            row.error = None

    def nack(self, key, owner, error, fatal) -> None:
        row = self.rows.get(key)
        if self.holds(row, owner):
            self.settle(row, error, fatal)

    def unlease(self, key, owner) -> bool:
        row = self.rows.get(key)
        if not self.holds(row, owner):
            return False
        row.state, row.owner, row.deadline = "pending", None, None
        row.attempts -= 1
        return True

    def release(self, owner, error) -> int:
        held = self.held(owner)
        for row in held:
            self.settle(row, error, fatal=True)
        return len(held)

    def failures(self) -> dict[str, tuple[int, str]]:
        out = {}
        for row in self.rows.values():
            if row.state in ("failed", "poisoned"):
                error = row.error or "retry budget exhausted"
                if row.state == "poisoned":
                    error = (f"poisoned after {row.fatal} "
                             f"worker-fatal attempt(s): {error}")
                out[row.key] = (row.attempts, error)
        return out


owners = st.sampled_from(OWNERS)
keys = st.sampled_from(KEYS)


class QueueMachine(RuleBasedStateMachine):
    def __init__(self, clock) -> None:
        super().__init__()
        self.clock = clock
        self.queue = CellQueue()
        self.model = Model()

    def teardown(self) -> None:
        self.queue.close()

    def actor(self, key, owner, own):
        """The row's owner when ``own`` and the row is leased, else
        ``owner`` (possibly a foreign one)."""
        row = self.model.rows.get(key)
        if own and row is not None and row.state == "leased":
            return row.owner
        return owner

    @rule(chosen=st.lists(keys, min_size=1, max_size=4),
          max_attempts=st.integers(1, 3))
    def add(self, chosen, max_attempts):
        entries = [(key, {"cell": key}, f"label-{key}")
                   for key in chosen]
        assert self.queue.add(entries, max_attempts=max_attempts) \
            == self.model.add(chosen, max_attempts)

    @rule(owner=owners,
          lease_seconds=st.sampled_from((1.0, 2.5, 5.0)))
    def lease(self, owner, lease_seconds):
        got = self.queue.lease(owner, lease_seconds=lease_seconds)
        want = self.model.lease(owner, lease_seconds, self.clock.now)
        if want is None:
            assert got is None
        else:
            assert (got.key, got.attempts, got.suspect) == want

    @rule(key=keys, owner=owners, own=st.booleans())
    def ack(self, key, owner, own):
        owner = self.actor(key, owner, own)
        self.queue.ack(key, owner, {"cell": key})
        self.model.ack(key)

    @rule(key=keys, owner=owners, own=st.booleans(),
          fatal=st.booleans())
    def nack(self, key, owner, own, fatal):
        owner = self.actor(key, owner, own)
        self.queue.nack(key, owner, f"boom-{owner}", fatal=fatal)
        self.model.nack(key, owner, f"boom-{owner}", fatal)

    @rule(key=keys, owner=owners, own=st.booleans())
    def unlease(self, key, owner, own):
        owner = self.actor(key, owner, own)
        assert self.queue.unlease(key, owner) \
            == self.model.unlease(key, owner)

    @rule(owner=owners)
    def release(self, owner):
        assert self.queue.release(owner, f"{owner} died") \
            == self.model.release(owner, f"{owner} died")

    @rule(seconds=st.sampled_from((0.5, 1.0, 2.0, 4.0)))
    def advance(self, seconds):
        self.clock.advance(seconds)

    @invariant()
    def rows_agree(self):
        rows = self.queue._conn.execute(
            "SELECT key, state, attempts, fatal_attempts, lease_owner,"
            " lease_deadline FROM cells ORDER BY seq")
        assert [tuple(row) for row in rows] == [
            (r.key, r.state, r.attempts, r.fatal, r.owner, r.deadline)
            for r in self.model.rows.values()]

    @invariant()
    def observations_agree(self):
        rows = self.model.rows.values()
        counts: dict[str, int] = {}
        for row in rows:
            counts[row.state] = counts.get(row.state, 0) + 1
        assert self.queue.counts() == counts
        assert self.queue.unresolved() == sum(
            row.state in ("pending", "leased") for row in rows)
        assert self.queue.total_attempts() == sum(
            row.attempts for row in rows)
        assert {key: (f.attempts, f.error) for key, f
                in self.queue.failures().items()} \
            == self.model.failures()
        assert sorted(self.queue.results()) == sorted(
            row.key for row in rows if row.state == "done")


def test_queue_matches_the_model(clock):
    run_state_machine_as_test(
        lambda: QueueMachine(clock),
        settings=settings(max_examples=150, stateful_step_count=40,
                          deadline=None))
