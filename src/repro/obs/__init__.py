"""Campaign observability: event journal and status analytics.

The campaign engine (:mod:`repro.campaign`) is a durable, fault-
tolerant execution stack — but durability alone does not make a
running campaign *diagnosable*.  This package adds what a fleet
operator needs, all strictly **outside** the fused cycle loop
(instrumentation lives at the campaign layer; the simulator hot path
is untouched, so golden parity and throughput are preserved):

* :mod:`repro.obs.journal` — an append-only, crash-safe **JSONL event
  journal** per campaign (``<campaign_root>/<id>/events.jsonl``), the
  campaign's one telemetry record.  Every lifecycle transition — plan,
  lease, execute, ack, nack, retry, timeout, quarantine, worker
  start/exit — is one self-describing JSON line stamped with campaign
  id, cell key, worker id, attempt number and both wall-clock and
  monotonic timestamps; the ``lease`` and ``execute`` events carry
  each cell's queue-wait, execute and cache-put latencies.  Appends
  are atomic (single ``write(2)`` on an ``O_APPEND`` descriptor), so
  any number of workers share one journal file and a torn final line
  from a killed worker never corrupts the lines before it.

* :mod:`repro.obs.status` — the read side: reconstruct queue depth,
  per-worker throughput, ETA and per-cell timelines from the journal
  plus a read-only view of the queue.  ``scripts/campaign_status.py``
  is the CLI.

* :mod:`repro.obs.logging_setup` — shared ``logging`` configuration
  for the CLIs (``--log-level``).

Every durable campaign journals, and its results are byte-identical
to an ephemeral (journal-less) run's, because observability only ever
*watches* the execution stack.
"""

from repro.obs.journal import (
    EVENTS_NAME,
    Journal,
    NULL_JOURNAL,
    NullJournal,
    open_journal,
    read_events,
)
from repro.obs.logging_setup import (
    add_logging_args,
    get_logger,
    setup_from_args,
    setup_logging,
)

__all__ = [
    "EVENTS_NAME",
    "Journal",
    "NULL_JOURNAL",
    "NullJournal",
    "add_logging_args",
    "get_logger",
    "open_journal",
    "read_events",
    "setup_from_args",
    "setup_logging",
]
