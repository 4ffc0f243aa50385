"""Failure records and the strict-mode error.

:class:`CellFailure` is the durable record of a cell the session gave
up on once its retry budget (a queue-row field, see
:mod:`repro.campaign.queue`) was spent, and
:class:`CellExecutionError` is how strict mode turns those records
into a raised exception *after* all completed work has been stored.
"""

from __future__ import annotations

from dataclasses import dataclass


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
