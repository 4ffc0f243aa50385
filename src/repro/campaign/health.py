"""Fleet health primitives: graceful drain and resource guards.

The campaign engine (queue + workers + supervisor) is crash-*safe*:
nothing is lost when a worker dies, and the queue's lease deadlines
decide which workers are dead (see :mod:`repro.campaign.queue`).  This
module makes fleets operator-friendly.  Two primitives, both above the
simulator (golden parity is untouched):

* :class:`DrainControl` — cooperative signal-triggered shutdown.
  Worker entry points install SIGTERM/SIGINT handlers that *request* a
  drain; the drain loop finishes the in-flight cell, leases nothing
  more, journals a ``worker_drain`` event and exits 0.  A second signal
  escalates to an ordinary :class:`KeyboardInterrupt` for operators
  who really mean *now*.

* Resource guard — :func:`check_free_disk`, a preflight with a
  configurable floor, so a campaign refuses to start on a disk that
  would wedge it mid-drain.

Everything here is dependency-free and side-effect-free at import
time; signal handlers are only installed where a process owns its main
thread (worker entry points and CLIs, never library code).
"""

from __future__ import annotations

import errno
import math
import os
import shutil
import signal
from pathlib import Path

from repro.obs.logging_setup import get_logger

log = get_logger("campaign.health")

DISK_FLOOR_ENV_VAR = "REPRO_DISK_FLOOR_MB"
"""Environment override for the free-disk floor, in megabytes.  ``0``
disables the preflight entirely."""

DEFAULT_DISK_FLOOR_BYTES = 64 * 1024 * 1024
"""Free bytes below which planning/execution refuses to start.  Small
on purpose — the guard exists to fail *before* a fleet starts writing
into a full disk, not to reserve working space."""


class ResourceGuardError(RuntimeError):
    """A resource preflight failed (e.g. free disk below the floor)."""


# ----------------------------------------------------------------------
# graceful drain
# ----------------------------------------------------------------------


class DrainControl:
    """Cooperative shutdown flag, optionally wired to signals.

    The drain loop polls :attr:`requested` between cells; handlers (or
    supervisors, or tests) set it via :meth:`request`.  When installed
    on signals, the *first* SIGTERM/SIGINT requests a graceful drain
    and the *second* raises :class:`KeyboardInterrupt` — finish the
    cell on the first ask, stop immediately on the second.
    """

    def __init__(self) -> None:
        self.requested = False
        self.signum: int | None = None
        self._previous: dict[int, object] = {}

    def request(self, signum: int | None = None) -> None:
        self.requested = True
        if signum is not None and self.signum is None:
            self.signum = signum

    def _handler(self, signum, frame) -> None:
        if self.requested:
            raise KeyboardInterrupt(
                f"second signal {signum} during drain")
        log.info("signal %d: draining after the in-flight cell "
                 "(signal again to stop now)", signum)
        self.request(signum)

    def install(self, signums=(signal.SIGTERM, signal.SIGINT)) \
            -> "DrainControl":
        """Install drain handlers (main thread only); returns self."""
        for signum in signums:
            self._previous[signum] = signal.signal(signum,
                                                   self._handler)
        return self

    def restore(self) -> None:
        """Put back the handlers :meth:`install` displaced."""
        for signum, previous in self._previous.items():
            signal.signal(signum, previous)
        self._previous.clear()


NULL_CONTROL = DrainControl()
"""Shared never-draining control for call sites without signal wiring
(the flag is only ever set by ``request``, which nothing calls on this
instance)."""


# ----------------------------------------------------------------------
# resource guards
# ----------------------------------------------------------------------


def disk_floor_bytes(default: int = DEFAULT_DISK_FLOOR_BYTES) -> int:
    """The free-disk floor in bytes (env override; ``0`` disables).

    A value that does not parse, or parses to no finite byte count
    (``inf``, ``nan``, ``1e400``), is ignored with a warning.
    """
    raw = os.environ.get(DISK_FLOOR_ENV_VAR, "").strip()
    if not raw:
        return default
    try:
        floor = float(raw) * 1024 * 1024
    except ValueError:
        floor = math.nan
    if not math.isfinite(floor):
        log.warning("ignoring unparseable %s=%r", DISK_FLOOR_ENV_VAR,
                    raw)
        return default
    return max(0, int(floor))


def free_disk_bytes(path: str | Path) -> int | None:
    """Free bytes on the filesystem holding ``path``.

    Walks up to the nearest existing ancestor (the preflight runs
    before campaign directories are created).  ``None`` when even that
    probe fails — an unknowable filesystem is not a reason to refuse
    to run.
    """
    probe = Path(path).absolute()
    while True:
        try:
            return shutil.disk_usage(probe).free
        except OSError:
            if probe.parent == probe:
                return None
            probe = probe.parent


def check_free_disk(path: str | Path,
                    floor: int | None = None) -> int | None:
    """Preflight: refuse to proceed on a nearly-full filesystem.

    Raises :class:`ResourceGuardError` when the filesystem holding
    ``path`` has fewer than ``floor`` free bytes (default:
    :func:`disk_floor_bytes`, overridable via
    :data:`DISK_FLOOR_ENV_VAR`; a floor of ``0`` disables the check).
    Returns the free byte count (``None`` if unprobeable) so callers
    can log it.
    """
    floor = disk_floor_bytes() if floor is None else floor
    if floor <= 0:
        return None
    free = free_disk_bytes(path)
    if free is not None and free < floor:
        raise ResourceGuardError(
            f"only {free / 1e6:.1f} MB free on the filesystem holding "
            f"{path} (floor: {floor / 1e6:.1f} MB) — free space or "
            f"lower the floor via {DISK_FLOOR_ENV_VAR}")
    return free


def is_enospc(exc: BaseException) -> bool:
    """Whether an exception is a disk-full ``OSError``."""
    return isinstance(exc, OSError) and exc.errno in (errno.ENOSPC,
                                                      errno.EDQUOT)
