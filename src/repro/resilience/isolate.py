"""Run one cell in a disposable child process.

The recovery path of :meth:`ExperimentSession.run_cells` needs three
guarantees a shared :class:`~concurrent.futures.ProcessPoolExecutor`
cannot give for an individual cell:

* a **crash** (OOM kill, ``os._exit``) must be attributable to *this*
  cell, not break a pool shared with innocent neighbours;
* a **hang** must be killable after a wall-clock budget — pool workers
  cannot be terminated individually;
* an **exception** must come back with its description even if the
  child dies immediately after.

So each recovery attempt gets its own ``multiprocessing.Process`` and
a one-shot pipe: the child sends ``("ok", result)`` or
``("err", description)`` and exits; the parent polls with the timeout
and kills on expiry.  The child re-enters the exact same execution
path as campaign workers (:func:`repro.campaign.cells.execute_cell`),
so results are byte-identical wherever a cell runs.
"""

from __future__ import annotations

import multiprocessing

from repro.obs.logging_setup import get_logger

log = get_logger("resilience.isolate")


class CellCrash(RuntimeError):
    """The child died without reporting a result (e.g. OOM-killed)."""


class CellTimeout(RuntimeError):
    """The child exceeded its wall-clock budget and was killed."""


class CellRemoteError(RuntimeError):
    """The child raised; carries the remote exception's description."""


def _child_main(conn, cell) -> None:
    # Imported lazily: the resilience layer must stay importable
    # without pulling in the execution stack.
    from repro.campaign.cells import execute_cell
    try:
        result = execute_cell(cell)
    except BaseException as exc:       # noqa: BLE001 — report, then die
        try:
            conn.send(("err", f"{type(exc).__name__}: {exc}"))
        except (OSError, ValueError):
            pass                       # parent gone or result unpicklable
        return
    conn.send(("ok", result))


def run_cell_isolated(cell, timeout: float | None = None):
    """Execute ``cell`` in a child process; enforce ``timeout`` seconds.

    Returns the cell's ``SimResult``.  Raises :class:`CellTimeout` if
    the budget expires (the child is SIGKILLed), :class:`CellCrash` if
    the child dies without reporting, or :class:`CellRemoteError`
    carrying the child's exception description.
    """
    ctx = multiprocessing.get_context()
    parent_conn, child_conn = ctx.Pipe(duplex=False)
    proc = ctx.Process(target=_child_main,
                       args=(child_conn, cell),
                       daemon=True)
    proc.start()
    child_conn.close()     # parent keeps only the read end
    try:
        if not parent_conn.poll(timeout):
            log.warning("killing cell child pid=%d: exceeded %ss "
                        "wall-clock budget", proc.pid, timeout)
            raise CellTimeout(
                f"cell exceeded {timeout}s wall-clock budget")
        try:
            status, payload = parent_conn.recv()
        except EOFError:
            proc.join(5.0)
            log.warning("cell child pid=%d died without a result "
                        "(exit code %s)", proc.pid, proc.exitcode)
            raise CellCrash(
                f"worker crashed without a result "
                f"(exit code {proc.exitcode})") from None
        if status == "ok":
            return payload
        raise CellRemoteError(payload)
    finally:
        if proc.is_alive():
            proc.kill()
        proc.join(5.0)
        parent_conn.close()
