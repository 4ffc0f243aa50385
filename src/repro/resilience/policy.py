"""Retry budgets, failure records and the strict-mode error.

The types here are the vocabulary of the fault-tolerance layer:
:class:`RetryPolicy` says how hard the session tries before giving up
on a cell, :class:`CellFailure` is the durable record of a cell it
gave up on, and :class:`CellExecutionError` is how strict mode turns
those records into a raised exception *after* all completed work has
been stored.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class RetryPolicy:
    """How many times, how patiently, and how long per attempt.

    Attributes:
        retries: Re-executions granted after a cell's first failed
            attempt (``0`` = fail on first error).
        backoff: Base delay in seconds; retry ``n`` (1-based) waits
            ``backoff * 2**(n-1)`` first — a deterministic exponential
            schedule, so recovery timing is reproducible.  The queue
            row carries it, and :meth:`CellQueue.nack
            <repro.campaign.queue.CellQueue.nack>` applies it.
        cell_timeout: Per-cell wall-clock budget in seconds; a cell
            still running past it is killed and marked failed (or
            retried) instead of wedging the campaign.  ``None``
            disables the timeout.
    """

    retries: int = 0
    backoff: float = 0.0
    cell_timeout: float | None = None

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")
        if self.backoff < 0:
            raise ValueError(f"backoff must be >= 0, got {self.backoff}")
        if self.cell_timeout is not None and self.cell_timeout <= 0:
            raise ValueError(f"cell_timeout must be > 0, got "
                             f"{self.cell_timeout}")

    @property
    def attempts(self) -> int:
        """Total execution attempts a cell is entitled to."""
        return self.retries + 1


@dataclass(frozen=True)
class CellFailure:
    """One cell the session gave up on, with full attribution.

    Attributes:
        key: The cell's content-hash cache key.
        label: Human-readable cell name
            (:func:`repro.resilience.faults.fault_label` format).
        attempts: Execution attempts consumed (first try included).
        error: ``repr`` of the last failure — exception, crash or
            timeout description.
        elapsed: Wall-clock seconds spent on the recovery attempts
            (diagnostic only; deliberately excluded from deterministic
            reports).
    """

    key: str
    label: str
    attempts: int
    error: str
    elapsed: float

    def __str__(self) -> str:
        return (f"{self.label} failed after {self.attempts} attempt(s): "
                f"{self.error}")


class CellExecutionError(RuntimeError):
    """Raised by strict mode when cells remain failed after retries.

    Raised only after every *successful* result has been stored, so a
    strict campaign that dies still keeps its partial progress; the
    ``failures`` attribute carries the per-cell records.
    """

    def __init__(self, failures) -> None:
        self.failures = tuple(failures)
        preview = "; ".join(str(f) for f in self.failures[:3])
        more = len(self.failures) - 3
        if more > 0:
            preview += f"; ... and {more} more"
        super().__init__(
            f"{len(self.failures)} cell(s) failed after retries: "
            f"{preview}")
