"""The reference backend: the fused cycle loop, one machine per cell.

A thin adapter over :class:`~repro.core.simulator.Simulator` and its
:class:`~repro.pipeline.core.SmtCore` cycle loop.  The
closure-specialisation contract of :mod:`repro.pipeline.core` is
untouched; the adapter only splits a run into the warm/advance/result
phases that the throughput benchmarks time separately (their timed
region is exactly one ``advance`` call).
"""

from __future__ import annotations

from repro.core.config import SimConfig
from repro.core.metrics import SimResult
from repro.core.simulator import Simulator


class ReferenceBackend:
    """Golden-truth backend wrapping one :class:`Simulator` per cell.

    ``benchmarks`` is an explicit benchmark tuple; use
    :func:`~repro.core.workloads.resolve_workload` to turn a workload
    name into one.  ``config`` defaults to the Table 3 baseline.
    """

    name = "reference"

    def __init__(self, benchmarks, engine="gshare+BTB",
                 policy="ICOUNT.1.8", config: SimConfig | None = None,
                 workload_name: str | None = None) -> None:
        self.simulator = Simulator(benchmarks, engine, policy, config,
                                   workload_name=workload_name)

    def warm(self, cycles: int) -> None:
        """Advance ``cycles`` cycles, then discard all statistics."""
        self.simulator.warm(cycles)

    def advance(self, cycles: int) -> None:
        """Advance ``cycles`` measured cycles."""
        self.simulator.core.run(cycles)

    def result(self) -> SimResult:
        """Snapshot the statistics accumulated since the last reset."""
        return self.simulator.result()


def get_backend(name: str) -> type[ReferenceBackend]:
    """The backend class for ``name`` (``SimConfig.backend``).

    Raises ValueError for any name but ``reference`` — surfaced
    verbatim by the CLIs and by the sweep-axis check, so the message
    must stand alone.
    """
    if name != ReferenceBackend.name:
        raise ValueError(f"unknown backend {name!r}; registered: "
                         f"{ReferenceBackend.name}")
    return ReferenceBackend
