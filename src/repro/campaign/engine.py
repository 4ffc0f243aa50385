"""Campaign orchestration: plan a cell set, execute it, collect it.

:class:`Campaign` is the seam between a *plan* and its *execution*.
The plan — the deduplicated cell set, its cache misses and its
campaign id — is computed once, by
:meth:`~repro.experiments.session.ExperimentSession.plan`;
:meth:`Campaign.open` persists it (manifest, enqueued misses) under
the id it is given, and :meth:`Campaign.execute` drains the queue.
Everything above it — the session, the sweep runner, both CLIs — is a
client; everything below it — the queue, the worker loop, the backend
— neither knows nor cares who planned the campaign.

Execution modes, all draining the same queue with the same worker
code:

* **inline** (``spawn=False``): the calling process is the one worker.
  This is the degenerate single-process case and the warm-cache path;
  an in-memory queue suffices.
* **spawned** (``spawn=True``): N worker *processes* share the queue
  file.  The parent supervises: a worker that dies is reaped and its
  leased cell released back to the queue immediately (no waiting out
  its lease deadline), where a surviving worker picks it up.  If *every*
  worker dies with work remaining, the parent drains the leftovers
  itself — in isolated child processes, so whatever killed the fleet
  cannot take the planner down too.
* **external**: some other process runs ``scripts/campaign_worker.py``
  against the campaign directory; this module only plans and
  collects.

Results and failures are collected from the queue rows, not from
worker IPC — the queue *is* the authoritative record, which is exactly
what makes a campaign resumable by a process with no memory of the
one that planned it.

Durable campaigns (those planned with a ``root``) also carry an event
journal, ``<campaign_dir>/events.jsonl``: planning, every queue
transition, worker spawns and deaths, and per-cell latency breakdowns
land there as append-only JSON lines that any number of processes
write concurrently (appends are atomic).  The planner emits the
``plan`` / ``worker_spawn`` events and — for workers that died without
getting to say so themselves — the crashed ``worker_exit``; live
workers journal their own lifecycle.  Ephemeral campaigns skip the
journal entirely (there is no durable directory for it to live in).
"""

from __future__ import annotations

import multiprocessing
import os
import shutil
import signal
import tempfile
import time
from pathlib import Path

from repro.campaign.health import DrainControl, check_free_disk
from repro.campaign.manifest import (
    QUEUE_NAME,
    campaign_dir,
    queue_path,
    write_manifest,
)
from repro.campaign.queue import DEFAULT_LEASE_SECONDS, CellQueue
from repro.campaign.worker import DrainStats, drain
from repro.core.metrics import SimResult
from repro.obs.journal import NULL_JOURNAL, journal_path, open_journal
from repro.obs.logging_setup import get_logger

log = get_logger("campaign.engine")

SUPERVISE_POLL_SECONDS = 0.02
"""How often the supervisor checks worker liveness."""

DEFAULT_DRAIN_GRACE_SECONDS = 60.0
"""How long the supervisor waits for signalled workers to finish
their in-flight cells before killing the holdouts.  Generous: a drain
that kills a worker mid-cell only downgrades graceful to crash-safe,
but the whole point of forwarding the signal was to avoid that."""


class Campaign:
    """One planned cell set bound to one (possibly durable) queue."""

    def __init__(self, cid: str, queue: CellQueue,
                 queue_file: str | None,
                 ephemeral_dir: str | None = None,
                 journal=None, dir: str | None = None) -> None:
        self.id = cid
        self.queue = queue
        self.queue_file = queue_file
        self.journal = journal if journal is not None else NULL_JOURNAL
        self.dir = dir
        self._ephemeral_dir = ephemeral_dir
        self._closed = False

    # ------------------------------------------------------------------
    # plan
    # ------------------------------------------------------------------

    @classmethod
    def open(cls, cid: str, planned: dict[str, dict], misses, *,
             root: str | Path | None = None,
             max_attempts: int = 1,
             need_file: bool = False) -> "Campaign":
        """Open a planned campaign: manifest, queue, enqueued misses.

        Args:
            cid: The campaign id the planner computed over ``planned``
                (:func:`~repro.campaign.manifest.campaign_id`).
            planned: key -> descriptor for **every** distinct cell of
                the campaign (hits included) — the id names the whole
                measurement, so a warm and a cold run of one grid plan
                to the same campaign.
            misses: iterable of ``(key, descriptor, label)`` for the
                cells that actually need execution; only these become
                queue rows.
            root: Campaign root directory.  ``None`` plans an
                *ephemeral* campaign: an in-memory queue, or a
                throwaway temp directory when ``need_file`` demands a
                shareable queue file (worker processes).
            max_attempts: Per-cell execution budget (first try
                included) folded into the queue rows.
            need_file: Require a real queue file even without a root.
        """
        ephemeral_dir = None
        journal = NULL_JOURNAL
        cdir: str | None = None
        if root is not None:
            # Resource preflight: refuse to start a campaign a full
            # disk would wedge mid-drain (raises ResourceGuardError).
            check_free_disk(root)
            write_manifest(root, cid, planned)
            path = queue_path(root, cid)
            queue_file = str(path)
            cdir = str(campaign_dir(root, cid))
            journal = open_journal(cdir, campaign_id=cid,
                                   worker_id=f"planner-{os.getpid()}")
            queue = CellQueue(path, journal=journal)
        elif need_file:
            ephemeral_dir = tempfile.mkdtemp(prefix=f"campaign-{cid}-")
            queue_file = str(Path(ephemeral_dir) / QUEUE_NAME)
            queue = CellQueue(queue_file)
        else:
            queue_file = None
            queue = CellQueue(":memory:")
        added = queue.add(misses, max_attempts=max_attempts)
        journal.emit("plan", cells=len(planned), enqueued=added,
                     retry_attempts=max_attempts)
        return cls(cid, queue, queue_file, ephemeral_dir,
                   journal=journal, dir=cdir)

    # ------------------------------------------------------------------
    # execute
    # ------------------------------------------------------------------

    def execute(self, *, workers: int = 1, spawn: bool = False,
                cache=None, cache_dir: str | None = None,
                cell_timeout: float | None = None,
                lease_seconds: float = DEFAULT_LEASE_SECONDS) \
            -> DrainStats:
        """Drain this campaign's queue to resolution.

        Inline mode executes in this process (``cache`` — an open
        :class:`ResultCache` or ``None`` — receives results).  Spawn
        mode launches ``workers`` processes which open their own
        caches from ``cache_dir``; the parent only supervises, so
        there is exactly one writer per result either way.

        If a SIGTERM/SIGINT arrives during supervised execution, the
        signal is forwarded to the fleet, every worker finishes its
        in-flight cell and leases nothing more, and this method
        raises :class:`KeyboardInterrupt` with a resume hint —
        completed cells are durable, so ``--resume`` picks up exactly
        where the drain stopped.
        """
        # Resource preflight on whichever filesystem results land on.
        target = self.dir or cache_dir or \
            (str(cache.root) if cache is not None else None)
        if target is not None:
            check_free_disk(target)
        if not spawn:
            return drain(self.queue, worker_id="inline", cache=cache,
                         cell_timeout=cell_timeout,
                         lease_seconds=lease_seconds,
                         journal=self.journal)
        if self.queue_file is None:
            raise ValueError("spawned workers need a queue file "
                             "(campaign planned with need_file=False)")
        signum = self._supervise(workers, cache_dir=cache_dir,
                                 cell_timeout=cell_timeout,
                                 lease_seconds=lease_seconds)
        if signum is not None:
            # Graceful drain: do NOT run the recovery drain — the
            # operator asked the campaign to stop, not to finish.
            unresolved = self.queue.unresolved()
            self.journal.emit("campaign_interrupted", signal=signum,
                              unresolved=unresolved)
            raise KeyboardInterrupt(
                f"campaign {self.id} interrupted by signal {signum} "
                f"with {unresolved} cell(s) unresolved; completed "
                f"cells are durable — resume with --resume {self.id}")
        stats = DrainStats()
        if self.queue.unresolved():
            # Every worker died with work outstanding (or crash
            # releases landed after the last survivor exited).  Finish
            # in isolated children: whatever killed the fleet must not
            # kill the planner.
            stats = drain(self.queue, worker_id="recovery",
                          cache=cache, cell_timeout=cell_timeout,
                          lease_seconds=lease_seconds, isolate=True,
                          journal=self.journal)
        return stats

    def _supervise(self, count: int, *, cache_dir: str | None,
                   cell_timeout: float | None, lease_seconds: float,
                   drain_grace: float = DEFAULT_DRAIN_GRACE_SECONDS) \
            -> int | None:
        """Run worker processes; reap the dead, release their cells.

        Workers exit on their own once every row is resolved (they
        wait out each other's leases, so a released cell is always
        picked up by a survivor).  Processes are non-daemonic
        because workers with a ``cell_timeout`` spawn isolation
        children of their own.

        The supervisor is signal-aware: on SIGTERM/SIGINT it forwards
        SIGTERM to every live worker (triggering their graceful
        drains), waits up to ``drain_grace`` seconds for them to
        finish their in-flight cells, kills any holdout, and returns
        the signal number — the caller decides what an interrupted
        campaign means.  Returns ``None`` on an undisturbed run.
        Deadline-expired leases (say, of a dead external worker that
        shared the queue file) need no sweep of their own: each
        worker's next ``lease`` settles them first.
        """
        from repro.campaign.worker import worker_process_entry
        ctx = multiprocessing.get_context()
        jpath = str(journal_path(self.dir)) if self.dir is not None else None
        procs: dict[str, multiprocessing.Process] = {}
        for i in range(count):
            wid = f"worker-{os.getpid()}-{i}"
            proc = ctx.Process(
                target=worker_process_entry, name=wid,
                args=(self.queue_file, wid, cache_dir, cell_timeout,
                      lease_seconds, jpath, self.id))
            proc.start()
            procs[wid] = proc
            self.journal.emit("worker_spawn", worker=wid, pid=proc.pid)

        def reap_dead(wid: str,
                      proc: multiprocessing.Process) -> None:
            del procs[wid]
            if proc.exitcode != 0:
                log.warning(
                    "worker %s died (exit code %s); releasing "
                    "its cell", wid, proc.exitcode)
                # The worker never got to journal its own exit;
                # record the crash on its behalf so the report
                # can attribute the released cells.
                self.journal.emit("worker_exit", worker=wid,
                                  pid=proc.pid,
                                  exitcode=proc.exitcode,
                                  crashed=True)
                self.queue.release(
                    wid, "worker crashed "
                    f"(exit code {proc.exitcode})")

        control = DrainControl().install()
        forwarded = False
        grace_deadline = 0.0
        try:
            while procs:
                if control.requested and not forwarded:
                    forwarded = True
                    grace_deadline = time.monotonic() + drain_grace
                    log.info("forwarding SIGTERM to %d worker(s); "
                             "waiting up to %.0f s for graceful "
                             "drains", len(procs), drain_grace)
                    for proc in procs.values():
                        if proc.is_alive() and proc.pid is not None:
                            try:
                                os.kill(proc.pid, signal.SIGTERM)
                            except OSError:
                                pass
                if forwarded and time.monotonic() > grace_deadline:
                    log.warning("drain grace expired; killing %d "
                                "holdout worker(s)", len(procs))
                    for wid, proc in list(procs.items()):
                        try:
                            proc.kill()
                        except OSError:
                            pass
                        proc.join(1.0)
                        reap_dead(wid, proc)
                    break
                for wid, proc in list(procs.items()):
                    proc.join(timeout=SUPERVISE_POLL_SECONDS)
                    if not proc.is_alive():
                        reap_dead(wid, proc)
        except BaseException:
            # Error/interrupt in the planner: kill the fleet (bounded
            # teardown; completed cells are already durable) and
            # re-raise.
            for proc in procs.values():
                try:
                    proc.kill()
                except OSError:
                    pass
            for proc in procs.values():
                proc.join(1.0)
            raise
        finally:
            control.restore()
        return control.signum if control.requested else None

    # ------------------------------------------------------------------
    # collect
    # ------------------------------------------------------------------

    def outcomes(self, keys) -> dict:
        """key -> SimResult | CellFailure for the requested keys.

        Read from the queue rows — the authoritative record — so
        collection works identically whether the cells ran inline,
        in spawned workers, in external workers, or in a previous
        process entirely (the ``--resume`` path).
        """
        results = self.queue.results()
        failures = self.queue.failures()
        out: dict = {}
        for key in keys:
            if key in results:
                out[key] = SimResult.from_dict(results[key])
            elif key in failures:
                out[key] = failures[key]
        return out

    def attempts(self) -> int:
        """Total charged execution attempts recorded in the queue."""
        return self.queue.total_attempts()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Close the queue connection; delete ephemeral storage."""
        if self._closed:
            return
        self._closed = True
        self.queue.close()
        self.journal.close()
        if self._ephemeral_dir is not None:
            shutil.rmtree(self._ephemeral_dir, ignore_errors=True)

    def __enter__(self) -> "Campaign":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

