"""Persistent, content-addressed cache for simulation results.

A grid cell is identified by a *content key*: the SHA-256 of a canonical
JSON rendering of everything that determines its outcome — workload,
engine, policy, measured cycles, warm-up cycles and every
:class:`~repro.core.config.SimConfig` field (seed included).  Two cells
with equal content hash to the same key regardless of object identity,
so results survive process restarts and are shared between the paper
document, its figures and claims, and sweeps.

On disk, each result is one JSON file under a two-character fan-out
directory (``<cache_dir>/<key[:2]>/<key>.json``) holding the key, the
cell description (for debuggability) and the serialized
:class:`~repro.core.metrics.SimResult`.  Corrupted entries are never
fatal — the cell re-simulates — but they are not *silent* either: the
bad file is **quarantined** into ``<cache_dir>/quarantine/`` next to a
``.reason.txt`` explaining what was wrong, so an operator can tell a
torn write from a stale schema, and the same broken entry can never
cause repeated re-simulation.  Writes are atomic (temp-file +
``os.replace``) so parallel workers and concurrent runs cannot tear
each other's entries.
"""

from __future__ import annotations

import contextlib
import json
import os
import tempfile
import time
from pathlib import Path

from repro.campaign.cells import (
    CACHE_FORMAT_VERSION,
    cell_descriptor,
    cell_key,
)
from repro.campaign.health import is_enospc
from repro.core.metrics import SimResult
from repro.obs.journal import NULL_JOURNAL
from repro.obs.logging_setup import get_logger
from repro.resilience.faults import fault_label, should_corrupt

log = get_logger("experiments.cache")

__all__ = [
    "CACHE_FORMAT_VERSION",
    "DEBRIS_AGE_SECONDS",
    "DEFAULT_CACHE_DIR",
    "QUARANTINE_DIR",
    "RESULT_SCHEMA_VERSION",
    "ResultCache",
    "cell_descriptor",
    "cell_key",
]

RESULT_SCHEMA_VERSION = 1
"""Version of the *stored payload* format, written into every entry
and verified on read.  Distinct from ``CACHE_FORMAT_VERSION`` (which
changes cache *keys*): bump this when the serialized ``SimResult``
shape changes meaning, so entries written under an older schema —
including pre-versioning entries with no stamp at all — read as
misses instead of silently deserialising stale dicts."""

DEFAULT_CACHE_DIR = ".repro-cache"
"""Default on-disk location, relative to the current working directory."""

DEBRIS_AGE_SECONDS = 900.0
"""A ``*.tmp`` file older than this is debris from a killed writer,
not a write in flight: :meth:`ResultCache.verify` deletes it."""

QUARANTINE_DIR = "quarantine"
"""Subdirectory (under the cache root) where corrupt entries land,
each next to a ``<key>.reason.txt`` naming the corruption.  The name
is deliberately longer than the two-character fan-out directories so
entry scans (``??/*.json``) never see quarantined files."""


class ResultCache:
    """On-disk result store addressed by :func:`cell_key`."""

    def __init__(self, root: str | Path = DEFAULT_CACHE_DIR) -> None:
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        self.quarantined = 0
        # Observability hooks.  ``journal`` is attached by whoever owns
        # a campaign journal (worker entry point, session); quarantines
        # that strike *before* a journal exists (cache probing during
        # planning) accumulate in ``quarantine_events`` so the owner
        # can flush them into the journal once it opens.
        self.journal = NULL_JOURNAL
        self.quarantine_events: list[dict] = []
        # Degraded mode: the filesystem ran out of space mid-campaign.
        # Instead of nack-looping every cell on ENOSPC, puts become
        # no-ops (results still land durably in the queue rows) until
        # a write succeeds again; the transition is journaled once.
        self.degraded = False

    def path_for(self, key: str) -> Path:
        """Where the entry for ``key`` lives (fan-out by prefix)."""
        return self.root / key[:2] / f"{key}.json"

    @property
    def quarantine_root(self) -> Path:
        """Where corrupt entries (and their reason files) land."""
        return self.root / QUARANTINE_DIR

    def _load(self, path: Path, key: str) -> SimResult:
        """Parse and validate one entry file; raises on any defect.

        ``FileNotFoundError`` means an ordinary miss; any other
        ``OSError``/``ValueError``/``KeyError``/``TypeError`` means
        the entry is *present but unusable* — truncated JSON, key/name
        disagreement, stale schema, malformed result — and should be
        quarantined by the caller.
        """
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        if payload.get("key") != key:
            raise ValueError("key mismatch (truncated or foreign file)")
        if payload.get("schema") != RESULT_SCHEMA_VERSION:
            raise ValueError("result schema mismatch (stale entry)")
        return SimResult.from_dict(payload["result"])

    def get(self, key: str) -> SimResult | None:
        """Load a cached result; corruption quarantines, then misses.

        A *missing* entry is an ordinary miss.  An unusable entry (see
        :meth:`_load`) is moved into the quarantine directory with a
        reason file and then reads as a miss: the cell re-simulates
        exactly once (the rewritten entry is healthy), and the
        evidence survives for inspection instead of being silently
        destroyed by the overwrite.
        """
        path = self.path_for(key)
        try:
            result = self._load(path, key)
        except FileNotFoundError:
            self.misses += 1
            return None
        except (OSError, ValueError, KeyError, TypeError) as exc:
            self._quarantine(path, f"{type(exc).__name__}: {exc}")
            self.misses += 1
            return None
        self.hits += 1
        return result

    def verify(self) -> dict:
        """Proactively validate every entry; quarantine the corrupt.

        Walks the whole store applying exactly the :meth:`get`
        validation (parse, key match, schema, result shape) without
        waiting for a read to trip over a bad entry — the audit to run
        before archiving a cache or handing it to a worker fleet.
        Corrupt entries are quarantined next to ``.reason.txt`` files
        like any other corruption.

        It also deletes ``*.tmp`` debris anywhere under the cache root
        (the campaign directories of the default ``--campaign-dir``
        included) once it is :data:`DEBRIS_AGE_SECONDS` old: what a
        writer killed between ``mkstemp`` and ``os.replace`` leaves
        behind, garbage by construction.  Returns ``{"checked",
        "healthy", "quarantined", "corrupt", "debris"}`` where
        ``corrupt`` lists ``{"key", "reason"}`` for every defective
        entry found and ``debris`` counts the temp files deleted.
        """
        checked = healthy = quarantined = 0
        corrupt: list[dict] = []
        for path in sorted(self.root.glob("??/*.json")):
            checked += 1
            try:
                self._load(path, path.stem)
            except FileNotFoundError:
                continue               # raced a pruner; nothing to judge
            except (OSError, ValueError, KeyError, TypeError) as exc:
                reason = f"{type(exc).__name__}: {exc}"
                corrupt.append({"key": path.stem, "reason": reason})
                self._quarantine(path, reason)
                quarantined += 1
            else:
                healthy += 1
        return {"checked": checked, "healthy": healthy,
                "quarantined": quarantined, "corrupt": corrupt,
                "debris": self._sweep_debris()}

    def _sweep_debris(self) -> int:
        """Delete ``*.tmp`` files under the root older than
        :data:`DEBRIS_AGE_SECONDS`; returns how many went."""
        cutoff = time.time() - DEBRIS_AGE_SECONDS
        removed = 0
        for tmp in self.root.rglob("*.tmp"):
            try:
                if tmp.stat().st_mtime < cutoff:
                    tmp.unlink()
                    removed += 1
            except OSError:
                continue               # raced its writer or a sweeper
        return removed

    def _quarantine(self, path: Path, reason: str) -> None:
        """Move a corrupt entry (plus a reason file) out of the cache.

        Best-effort: if a racing reader already moved the file (or the
        filesystem objects), the entry still reads as a miss — the
        invariant that matters is that a corrupt file never *stays* at
        its addressable path, silently re-corrupting every future run.
        """
        target = self.quarantine_root / path.name
        try:
            self.quarantine_root.mkdir(parents=True, exist_ok=True)
            os.replace(path, target)
        except OSError:
            return
        self.quarantined += 1
        # The journal record carries the reason *inline* — the same
        # text as the .reason.txt file — so fault attribution does not
        # require the quarantine directory to still exist.
        event = {"key": path.stem, "reason": reason}
        self.quarantine_events.append(event)
        self.journal.emit("quarantine", **event)
        with contextlib.suppress(OSError):
            (self.quarantine_root / f"{path.stem}.reason.txt") \
                .write_text(reason + "\n", encoding="utf-8")

    def put(self, key: str, result: SimResult,
            descriptor: dict | None = None) -> None:
        """Store a result atomically (safe under parallel writers).

        A full filesystem (ENOSPC/EDQUOT) does not raise: the cache
        flips into *degraded* mode — this and subsequent puts become
        no-ops — because every result also lands durably in its queue
        row, so losing cache writes costs warm-start time, not data,
        while raising would nack-loop the whole fleet against a full
        disk.  Each put keeps retrying the write, so the cache heals
        itself the moment space frees up (journaled both ways).
        """
        path = self.path_for(key)
        payload = {"key": key, "schema": RESULT_SCHEMA_VERSION,
                   "cell": descriptor, "result": result.to_dict()}
        tmp = None
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(payload, fh, sort_keys=True)
            os.replace(tmp, path)
        except BaseException as exc:
            # Any interruption — KeyboardInterrupt included — must
            # drop the partial temp file, then re-raise the *original*
            # exception; suppress() keeps a failed unlink out of the
            # exception context so the traceback stays attributable.
            with contextlib.suppress(OSError):
                if tmp is not None:
                    os.unlink(tmp)
            if is_enospc(exc):
                self._degrade(key, exc)
                return
            raise
        if self.degraded:
            self.degraded = False
            log.info("cache writable again; leaving degraded mode")
            self.journal.emit("cache_recovered", key=key)
        # Fault-injection hook (no-op unless REPRO_FAULTS is set):
        # a matching "corrupt" fault truncates the entry just written,
        # modelling a torn write for the quarantine machinery to catch.
        if should_corrupt(fault_label(descriptor)
                          if descriptor else key):
            path.write_text(f'{{"key": "{key}", "schema"',
                            encoding="utf-8")

    def _degrade(self, key: str, exc: BaseException) -> None:
        """Note a disk-full write failure; journal the transition once."""
        if not self.degraded:
            self.degraded = True
            log.warning("filesystem full (%s); cache degraded — "
                        "results continue to land in the queue rows",
                        exc)
            self.journal.emit("cache_degraded", key=key,
                              error=str(exc))

    def __len__(self) -> int:
        """Number of entries currently on disk."""
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("??/*.json"))

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------

    def _entries(self) -> list[tuple[float, int, Path]]:
        """(mtime, size, path) of every entry, oldest first."""
        entries = []
        for path in self.root.glob("??/*.json"):
            try:
                stat = path.stat()
            except OSError:
                continue                # deleted by a concurrent pruner
            entries.append((stat.st_mtime, stat.st_size, path))
        entries.sort()
        return entries

    def stats(self) -> dict:
        """Size accounting for long-running sweep campaigns.

        Returns ``entries`` (count), ``bytes`` (payload total), the
        ``oldest``/``newest`` entry modification times (Unix seconds;
        ``None`` when the cache is empty) and ``quarantined`` — the
        number of corrupt entries sitting in the quarantine directory
        (from every run, not just this process).
        """
        entries = self._entries()
        return {
            "entries": len(entries),
            "bytes": sum(size for _, size, _ in entries),
            "oldest": entries[0][0] if entries else None,
            "newest": entries[-1][0] if entries else None,
            "quarantined": sum(
                1 for _ in self.quarantine_root.glob("*.json"))
            if self.quarantine_root.is_dir() else 0,
        }

    def prune(self, max_entries: int) -> int:
        """Evict entries so the cache stays bounded; returns evictions.

        Drops the oldest entries beyond ``max_entries`` (LRU-by-mtime
        — ``put`` refreshes mtime, reads do not).  Racing pruners and
        writers are safe: a vanished file is skipped, and a pruned
        entry simply re-simulates on next use.
        """
        if max_entries < 0:
            raise ValueError(f"max_entries must be >= 0, got {max_entries}")
        entries = self._entries()
        excess = max(0, len(entries) - max_entries)
        removed = 0
        for _, _, path in entries[:excess]:
            try:
                path.unlink()
                removed += 1
            except OSError:
                continue
        # Empty fan-out directories are left in place deliberately:
        # rmdir would race a concurrent put() between its mkdir and its
        # mkstemp, and 256 empty two-character directories cost nothing.
        return removed
