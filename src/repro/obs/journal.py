"""Append-only JSONL event journal for campaign execution.

One journal file per campaign (``<campaign_root>/<id>/events.jsonl``)
records every lifecycle transition of every cell, from every process
that touches the campaign — planner, supervised workers, external
``campaign_worker.py`` instances, recovery drains.  The journal is the
durable *narrative* complementing the queue's durable *state*: the
queue says where each cell ended up, the journal says how it got
there (which worker, which attempt, how long each phase took, what
fault fired).

Design constraints, in order:

* **Crash-safe.**  A record is one JSON line written with a single
  ``write(2)`` call on an ``O_APPEND`` file descriptor.  POSIX append
  semantics make concurrent writers from many processes safe without
  locks, and a writer killed mid-``write`` can tear at most its own
  final line — :func:`read_events` tolerates (and reports) a torn
  tail, so a journal is always parseable line-by-line after a crash.
* **Self-describing.**  Every record carries the event name (``ev``),
  the campaign id, the emitting worker, and two timestamps: ``t_wall``
  (Unix seconds, for humans and cross-machine correlation) and
  ``t_mono`` (``time.monotonic()``, for intra-process latency math
  that must not be bent by NTP).  Cell-scoped events add ``key``,
  ``label`` and ``attempt``.
* **Zero simulator overhead.**  Events exist only at the campaign
  layer (plan/lease/execute/ack/...); nothing inside a backend's
  cycle loop ever emits, so a campaign journals the same records
  whatever its window.  A durable campaign always journals.
  Ephemeral, rootless campaigns have no directory to journal into:
  their call sites hold the :data:`NULL_JOURNAL` singleton and every
  ``emit`` is a no-op method call.

Event vocabulary (the ``ev`` field)::

    plan           campaign planned: cells, enqueued, retry_attempts
    lease          cell handed to a worker (attempt charged, queue_wait
                   until it starts running)
    execute        cell ran: execute_seconds, cache_put_seconds
    ack            cell completed durably (elapsed since first lease)
    nack           worker reported a failed attempt (error)
    retry          failed cell requeued, leasable again at once
    failed         cell's retry budget exhausted (error)
    timeout        attempt exceeded the per-cell wall-clock budget
    lease_expired  lease deadline passed (worker presumed dead)
    release        supervisor returned a dead worker's leased cell
    unlease        interrupted in-flight cell refunded to the queue
    quarantine     corrupt cache entry quarantined (reason inline)
    worker_start   a drain loop began (pid, cell_timeout)
    worker_exit    a drain loop ended (executed/failed/drained) or a
                   supervisor observed a worker die (exitcode)
    worker_spawn   supervisor launched a worker process

Fleet-health events::

    poisoned              cell's budget exhausted with every attempt
                          worker-fatal (fatal_attempts); terminal —
                          this cell kills workers and will not be
                          resumed into a fleet again
    worker_drain          SIGTERM/SIGINT drain: in-flight cell
                          finished, nothing more leased
                          (signal, executed)
    worker_interrupt      hard interrupt mid-cell: the in-flight
                          cell unleased before re-raising
                          (error, unleased: 0 or 1)
    campaign_interrupted  supervisor stopped a campaign on a signal
                          (unresolved count; resume picks it up)
    cache_degraded        result cache hit a full disk; puts are
                          no-ops until space frees (queue rows keep
                          the results)
    cache_recovered       a later put succeeded; cache healed
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

EVENTS_NAME = "events.jsonl"
"""Journal filename inside a campaign directory."""


class NullJournal:
    """No-op journal: the ephemeral campaign's stand-in.

    Call sites hold a journal unconditionally and ``emit`` into it;
    this class makes "no journal" a cheap method call instead of an
    ``if`` at every instrumentation point.
    """

    enabled = False
    path = None

    def emit(self, ev: str, **fields) -> None:
        pass

    def close(self) -> None:
        pass

    def __enter__(self) -> "NullJournal":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


NULL_JOURNAL = NullJournal()
"""Shared no-op instance (stateless, safe to share everywhere)."""


class Journal:
    """Append-only JSONL writer bound to one campaign and worker.

    Open one per process; any number of processes may append to the
    same file concurrently (``O_APPEND`` keeps lines whole).  The
    descriptor is opened eagerly so a permission problem surfaces at
    open time, not mid-campaign.
    """

    enabled = True

    def __init__(self, path: str | Path, campaign_id: str | None = None,
                 worker_id: str | None = None) -> None:
        self.path = Path(path)
        self.campaign_id = campaign_id
        self.worker_id = worker_id
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fd = os.open(self.path,
                           os.O_APPEND | os.O_CREAT | os.O_WRONLY,
                           0o644)

    def emit(self, ev: str, **fields) -> None:
        """Append one event record (a single atomic ``write``).

        ``fields`` override the bound defaults, so queue-side call
        sites can stamp the *owning* worker of an event even though
        the emitting process is the planner.
        """
        if self._fd < 0:
            return
        record = {"ev": ev, "campaign": self.campaign_id,
                  "worker": self.worker_id,
                  "t_wall": time.time(), "t_mono": time.monotonic()}
        record.update(fields)
        line = json.dumps(record, sort_keys=True,
                          separators=(",", ":")) + "\n"
        try:
            os.write(self._fd, line.encode("utf-8"))
        except OSError:
            # Observability must never take down execution: a full
            # disk or yanked filesystem degrades to silence.
            pass

    def close(self) -> None:
        if self._fd >= 0:
            try:
                os.close(self._fd)
            finally:
                self._fd = -1

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def journal_path(campaign_dir: str | Path) -> Path:
    """The journal file of a campaign directory."""
    return Path(campaign_dir) / EVENTS_NAME


def open_journal(campaign_dir: str | Path | None,
                 campaign_id: str | None = None,
                 worker_id: str | None = None):
    """A :class:`Journal` for the campaign, or :data:`NULL_JOURNAL`.

    Returns the null journal when the campaign has no durable
    directory (ephemeral runs leave no artifacts to journal into).
    """
    if campaign_dir is None:
        return NULL_JOURNAL
    return Journal(journal_path(campaign_dir), campaign_id=campaign_id,
                   worker_id=worker_id)


def read_events(path: str | Path, strict: bool = False) -> list[dict]:
    """Parse a journal file line-by-line, tolerating a torn tail.

    A worker killed mid-append can leave at most one torn line at the
    end of the file; by default it is skipped (every complete line
    still parses).  A malformed line *before* the last one means real
    corruption and always raises.  ``strict=True`` raises on the torn
    tail too.
    """
    events: list[dict] = []
    with open(path, encoding="utf-8") as fh:
        lines = fh.readlines()
    for i, line in enumerate(lines):
        line = line.strip()
        if not line:
            continue
        try:
            events.append(json.loads(line))
        except ValueError:
            if i == len(lines) - 1 and not strict:
                break
            raise ValueError(
                f"{path}: malformed journal line {i + 1}") from None
    return events
