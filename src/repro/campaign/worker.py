"""The campaign worker: lease, execute, ack — repeat until drained.

One :func:`drain` loop serves every execution mode in the stack:

* the in-process "degenerate one-worker" path of
  :class:`~repro.experiments.session.ExperimentSession` (``jobs=1``);
* the worker *processes* spawned by
  :class:`repro.campaign.engine.Campaign` for ``jobs > 1``;
* the standalone ``scripts/campaign_worker.py`` CLI, where N workers
  on N machines drain one shared queue file.

All of them run the exact same per-cell code, so where a cell executes
cannot change its result.  The last two also share one bootstrap,
:func:`worker_process_entry`.

A lease is one cell.  The loop leases the oldest runnable cell, runs
it through :func:`~repro.campaign.cells.execute_cell`, settles it and
only then leases again — durable completion, nothing to lose on a
crash but the in-flight cell.  When a cell's execution raises, that
cell is nacked (charging its retry budget) and the loop leases the
next one, so one poisoned cell costs the others nothing.  A worker
that dies outright takes only its in-flight cell with it: the
supervisor's ``release`` or the lease deadline returns it to the
queue, with that attempt charged.

Isolation only chooses where ``execute_cell`` runs.  With a
``cell_timeout`` (or ``isolate=True``), every attempt runs in an
isolated child process
(:func:`repro.resilience.isolate.run_cell_isolated`) so hangs are
killable; without one, cells run in the worker itself.  *Suspect*
cells — a previous attempt killed its worker (``LeasedCell.suspect``)
— are always run isolated, whatever the mode: after the first fleet
kill, a poison cell's further crashes are contained to disposable
children (surfacing as :class:`~repro.resilience.isolate.CellCrash`,
nacked with crash attribution) while the worker lives on.

Liveness needs nothing from the loop: the deadline ``lease`` sets
covers the one cell the worker runs, and a dead worker's cell is
settled by the next ``lease`` call, by any worker, once that deadline
passes (see :mod:`repro.campaign.queue`).  A
:class:`~repro.campaign.health.DrainControl` makes the loop
signal-aware: the loop checks it before each lease, so on the first
SIGTERM/SIGINT the in-flight cell is finished and delivered, nothing
more is leased, a ``worker_drain`` event is journaled, and the loop
returns normally (the process exits 0) — resuming later is
byte-identical.  A hard interrupt (second signal, or
KeyboardInterrupt without a control) returns the in-flight cell to
the queue with its attempt refunded before re-raising, journaled as
``worker_interrupt``, so even Ctrl-C never strands a cell until its
lease deadline.

Results flow to two places on ack: the shared content-addressed
:class:`~repro.experiments.cache.ResultCache` (when the worker has
one) and the queue row itself — so a campaign's results are complete
even with no cache configured, and the planner can collect them
without re-reading the cache.

Observability: every worker of a durable campaign journals.  A drain
loop journals its own lifecycle (``worker_start`` / ``worker_exit``),
each executed cell's latency breakdown (an ``execute`` event carrying
``execute_seconds`` and ``cache_put_seconds``, emitted just before
the queue's ``ack``) and explicit ``timeout`` events when an attempt
dies at its wall-clock budget.  The journal is the campaign's only
telemetry, and all of it lives here, at the campaign layer — the
simulator cycle loop is never touched, so the journal's volume is per
cell, whatever the window.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

from repro.campaign.cells import cell_from_descriptor, execute_cell
from repro.campaign.health import NULL_CONTROL, DrainControl
from repro.campaign.queue import DEFAULT_LEASE_SECONDS, CellQueue, \
    LeasedCell
from repro.obs.journal import NULL_JOURNAL
from repro.obs.logging_setup import get_logger
from repro.resilience.isolate import CellCrash, CellTimeout, \
    run_cell_isolated

log = get_logger("campaign.worker")

DEFAULT_POLL_SECONDS = 0.05
"""Sleep between lease attempts while other workers hold the
remaining cells."""


@dataclass
class DrainStats:
    """What one :func:`drain` call did (for logs and CLI footers)."""

    executed: int = 0
    failed: int = 0
    drained: bool = False
    """Whether the loop stopped on a graceful drain request rather
    than an empty queue."""


def drain(queue: CellQueue, *, worker_id: str, cache=None,
          cell_timeout: float | None = None,
          lease_seconds: float = DEFAULT_LEASE_SECONDS,
          wait: bool = True, isolate: bool = False, journal=None,
          control=None) -> DrainStats:
    """Drain a queue until nothing is left (or leasable, with
    ``wait=False``).

    Args:
        queue: The campaign's :class:`CellQueue` (this worker's own
            connection).
        worker_id: Lease owner string; must be unique per worker.
        cache: Optional :class:`ResultCache` — completed results are
            persisted there *before* the ack, so a ``done`` row always
            implies a stored artifact.
        cell_timeout: Per-cell wall-clock budget; routes attempts
            through isolated child processes.
        lease_seconds: Lease deadline handed to the queue.
        wait: ``True`` drains until every row is resolved, waiting out
            other workers' leases (one lease attempt every
            :data:`DEFAULT_POLL_SECONDS`); ``False`` exits at the first
            empty lease (the CLI's ``--no-wait``).
        isolate: Force isolated child processes even without a
            timeout — the recovery path, where whatever killed the
            previous workers must not kill this one.
        journal: Event journal for this drain's lifecycle events; also
            attached to ``queue`` (when the queue has none) so lease /
            ack / retry transitions are narrated too.
        control: Optional :class:`DrainControl`; when its
            ``requested`` flag is set (signal handler, supervisor,
            test) the loop finishes the in-flight cell, leases nothing
            more and returns with ``stats.drained`` set.
    """
    journal = journal if journal is not None else NULL_JOURNAL
    if queue.journal is NULL_JOURNAL and journal is not NULL_JOURNAL:
        queue.journal = journal
    control = control if control is not None else NULL_CONTROL
    stats = DrainStats()
    journal.emit("worker_start", worker=worker_id, pid=os.getpid(),
                 cell_timeout=cell_timeout)
    log.debug("worker %s draining %s", worker_id, queue.path)
    while not control.requested:
        leased = queue.lease(worker_id, lease_seconds=lease_seconds)
        if leased is None:
            if not wait or queue.unresolved() == 0:
                break
            time.sleep(DEFAULT_POLL_SECONDS)
            continue
        _run_cell(queue, leased, worker_id=worker_id, cache=cache,
                  cell_timeout=cell_timeout, isolate=isolate,
                  stats=stats, journal=journal)
    if control.requested:
        stats.drained = True
        journal.emit("worker_drain", worker=worker_id,
                     pid=os.getpid(), signal=control.signum,
                     executed=stats.executed)
        log.info("worker %s drained on signal %s: in-flight cell "
                 "finished, nothing more leased", worker_id,
                 control.signum)
    journal.emit("worker_exit", worker=worker_id, pid=os.getpid(),
                 executed=stats.executed, failed=stats.failed,
                 drained=stats.drained)
    log.info("worker %s done: %d executed, %d failed attempt(s)",
             worker_id, stats.executed, stats.failed)
    return stats


def _run_cell(queue: CellQueue, leased: LeasedCell, *, worker_id: str,
              cache, cell_timeout: float | None, isolate: bool,
              stats: DrainStats, journal) -> None:
    """Execute one leased cell and settle it exactly once.

    A cell that raises is nacked.  A completed cell is persisted, then
    acked: cache first, ack second, so a ``done`` row never refers to
    a result that was lost with the worker, and the ``execute`` event
    (latency breakdown) precedes the ack for the same reason.  A hard
    interrupt (KeyboardInterrupt, SystemExit) unleases the cell,
    refunding its attempt, journals ``worker_interrupt`` and
    re-raises, so the cell is not stranded on its lease deadline.
    """
    try:
        cell = cell_from_descriptor(leased.descriptor)
        t0 = time.perf_counter()
        try:
            if isolate or cell_timeout is not None or leased.suspect:
                result = run_cell_isolated(cell, timeout=cell_timeout)
            else:
                result = execute_cell(cell)
        except Exception as exc:
            if isinstance(exc, CellTimeout):
                journal.emit("timeout", key=leased.key,
                             label=leased.label, worker=worker_id,
                             attempt=leased.attempts,
                             budget_seconds=cell_timeout)
            log.warning("cell %s attempt %d failed: %r",
                        leased.label, leased.attempts, exc)
            # A crashed child is a *contained* worker death: charge
            # it as fatal so crash-looping cells settle as poisoned.
            queue.nack(leased.key, worker_id, repr(exc),
                       fatal=isinstance(exc, CellCrash))
            stats.failed += 1
            return
        t1 = time.perf_counter()
        if cache is not None:
            cache.put(leased.key, result, leased.descriptor)
        journal.emit("execute", key=leased.key, label=leased.label,
                     worker=worker_id, attempt=leased.attempts,
                     execute_seconds=round(t1 - t0, 6),
                     cache_put_seconds=round(time.perf_counter() - t1,
                                             6))
        queue.ack(leased.key, worker_id, result.to_dict())
        stats.executed += 1
    except BaseException as exc:       # noqa: BLE001 — unlease, re-raise
        refunded = int(queue.unlease(leased.key, worker_id))
        journal.emit("worker_interrupt", worker=worker_id,
                     pid=os.getpid(), error=repr(exc),
                     unleased=refunded)
        log.warning("worker %s interrupted (%r): %d leased cell(s) "
                    "returned to the queue", worker_id, exc, refunded)
        raise


def worker_process_entry(queue_path: str, worker_id: str,
                         cache_dir: str | None,
                         cell_timeout: float | None,
                         lease_seconds: float,
                         journal_path: str | None = None,
                         campaign_id: str | None = None,
                         wait: bool = True) \
        -> tuple[DrainStats, dict[str, int]]:
    """Bootstrap one worker process and drain the queue.

    The entry point of the processes :class:`~repro.campaign.engine.
    Campaign` spawns (it is top-level, hence picklable) and of
    ``scripts/campaign_worker.py``.  It opens its own queue
    connection, cache handle and journal — workers share *files*,
    never Python objects (journal appends are atomic, so any number
    of workers write one ``events.jsonl``).

    The process is signal-aware for the length of the drain:
    SIGTERM/SIGINT request a graceful drain (finish the in-flight cell,
    lease nothing more, journal ``worker_drain``, return — i.e. exit
    0), and the handlers they displaced are put back on return.

    Returns the drain's stats and the queue's row counts by state;
    spawned workers ignore both.
    """
    from repro.experiments.cache import ResultCache
    from repro.obs.journal import Journal
    cache = ResultCache(cache_dir) if cache_dir is not None else None
    journal = NULL_JOURNAL
    if journal_path is not None:
        journal = Journal(journal_path, campaign_id=campaign_id,
                          worker_id=worker_id)
    if cache is not None:
        cache.journal = journal
    control = DrainControl()
    queue = CellQueue(queue_path, journal=journal)
    try:
        control.install()
        stats = drain(queue, worker_id=worker_id, cache=cache,
                      cell_timeout=cell_timeout,
                      lease_seconds=lease_seconds, wait=wait,
                      journal=journal, control=control)
        return stats, queue.counts()
    finally:
        journal.close()
        queue.close()
        control.restore()
