"""Fault tolerance for the execution stack.

Long sweep campaigns die in boring ways: a worker gets OOM-killed, one
cell wedges forever, a cache file is half a JSON document.  This
package supplies the pieces that let
:class:`~repro.experiments.session.ExperimentSession` survive all
three with *deterministic* recovery — a retried cell reproduces its
result bit-for-bit because every simulation is a pure function of
(seed, config):

* :class:`CellFailure` / :class:`CellExecutionError` — durable
  failure records and the strict-mode error
  (:mod:`repro.resilience.policy`; retry budgets and their
  deterministic backoff live in the campaign queue's rows);
* :func:`run_cell_isolated` — per-cell child processes with crash
  attribution and killable wall-clock timeouts
  (:mod:`repro.resilience.isolate`);
* :func:`inject_faults` and friends — a deterministic fault-injection
  harness over an environment-variable channel, so every recovery
  path above is testable bit-for-bit, inside real worker subprocesses
  (:mod:`repro.resilience.faults`).
"""

from repro.resilience.faults import (
    CRASH_EXIT_CODE,
    ENV_VAR,
    FAULT_KINDS,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    fault_label,
    inject_faults,
    maybe_fire,
    should_corrupt,
)
from repro.resilience.isolate import (
    CellCrash,
    CellRemoteError,
    CellTimeout,
    run_cell_isolated,
)
from repro.resilience.policy import CellExecutionError, CellFailure

__all__ = [
    "CRASH_EXIT_CODE",
    "CellCrash",
    "CellExecutionError",
    "CellFailure",
    "CellRemoteError",
    "CellTimeout",
    "ENV_VAR",
    "FAULT_KINDS",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "fault_label",
    "inject_faults",
    "maybe_fire",
    "run_cell_isolated",
    "should_corrupt",
]
