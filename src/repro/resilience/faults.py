"""Deterministic fault injection for the execution stack.

Testing recovery paths requires faults that are *reproducible*: the
same campaign with the same fault plan must crash the same worker at
the same cell every time, and a "crash once" fault must fire exactly
once even though the crashed process forgets everything it knew.  Two
mechanisms make that work:

* **The environment channel.**  A fault plan is a JSON document in the
  ``REPRO_FAULTS`` environment variable.  Worker subprocesses inherit
  the environment regardless of the multiprocessing start method, so
  injected faults fire *inside* the worker where the real failure
  would happen — no pickling support from the pool plumbing required.
* **The spool directory.**  Fire budgets (``times``) are enforced by
  atomically claiming marker files (``O_CREAT | O_EXCL``) in a spool
  directory shared by every process of the campaign.  A claim survives
  the claimant's death, which is exactly the semantics "crash once"
  needs: the retry of the crashed cell finds the budget spent and runs
  clean.

Fault kinds:

``crash``
    ``os._exit`` the executing process (models an OOM kill; surfaces
    as ``BrokenProcessPool`` in the parent).
``hang``
    Sleep ``seconds`` (default one hour) before continuing — a wedged
    cell, recoverable only via a wall-clock timeout.
``raise``
    Raise :class:`InjectedFault` (an ordinary in-worker exception).
``corrupt``
    Truncate the cache entry just written for the matching cell
    (checked by :meth:`repro.experiments.cache.ResultCache.put`).

Faults are matched by substring against a cell's *fault label* (see
:func:`fault_label`), which names workload, engine, policy, run
windows, seed and every config field off its default — e.g.
``match="seed1"``, ``match="RR.1.8"`` or ``match="ftq_depth=8"`` picks
out specific cells, ``match="*"`` matches everything.
"""

from __future__ import annotations

import contextlib
import json
import os
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from repro.core.config import DEFAULT_CONFIG

ENV_VAR = "REPRO_FAULTS"
"""Environment variable carrying the JSON fault plan."""

FAULT_KINDS = ("crash", "hang", "raise", "corrupt")

CRASH_EXIT_CODE = 86
"""Exit status of a ``crash``-faulted process (any non-zero works; a
recognisable value keeps post-mortems readable)."""

WORKER_FAULT_KINDS = ("crash", "hang", "raise")
"""Kinds that fire in the execution path (``corrupt`` fires in the
cache write path instead)."""

_DEFAULT_FIELDS = DEFAULT_CONFIG.to_dict()
"""Config fields a label omits while they hold these values."""


class InjectedFault(RuntimeError):
    """The exception a ``raise`` fault throws inside the worker."""


def fault_label(cell) -> str:
    """Canonical matchable name of a cell (duck-typed descriptor).

    ``cell`` needs ``workload``/``engine``/``policy``/``cycles``/
    ``warmup`` attributes and a ``config`` —
    :class:`repro.campaign.cells.Cell` in practice.  The label is
    ``workload:engine:policy:c<cycles>:w<warmup>:seed<seed>`` plus
    ``:<field>=<value>`` for each other config field that differs from
    :data:`~repro.core.config.DEFAULT_CONFIG`, in field order, so the
    points of a config sweep get distinct labels.
    """
    return _label(cell.workload, cell.engine, cell.policy, cell.cycles,
                  cell.warmup, cell.config.to_dict())


def descriptor_label(descriptor: dict) -> str:
    """:func:`fault_label` rebuilt from a cache descriptor mapping."""
    return _label(descriptor["workload"], descriptor["engine"],
                  descriptor["policy"], descriptor["cycles"],
                  descriptor["warmup"], descriptor["config"])


def _label(workload: str | list[str] | tuple[str, ...], engine: str,
           policy: str, cycles: int, warmup: int, config: dict) -> str:
    if not isinstance(workload, str):
        workload = "+".join(workload)
    overrides = "".join(
        f":{name}={config[name]}" for name, default in _DEFAULT_FIELDS.items()
        if name != "seed" and config.get(name, default) != default)
    return (f"{workload}:{engine}:{policy}:c{cycles}:w{warmup}"
            f":seed{config['seed']}{overrides}")


@dataclass(frozen=True)
class FaultSpec:
    """One fault: what fires, where, and how many times.

    Attributes:
        kind: One of :data:`FAULT_KINDS`.
        match: Substring matched against the fault label (``"*"``
            matches every cell).
        times: Fire budget — the fault fires for the first ``times``
            matching executions *across all processes*, then never
            again.
        seconds: Sleep duration for ``hang`` faults (ignored by the
            other kinds).
    """

    kind: str
    match: str
    times: int = 1
    seconds: float = 3600.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; choose "
                             f"from {', '.join(FAULT_KINDS)}")
        if self.times < 1:
            raise ValueError(f"times must be >= 1, got {self.times}")
        if self.seconds < 0:
            raise ValueError(f"seconds must be >= 0, got {self.seconds}")

    def matches(self, label: str) -> bool:
        return self.match == "*" or self.match in label


class FaultPlan:
    """An ordered set of :class:`FaultSpec` plus the claim spool."""

    def __init__(self, specs, spool: str | Path) -> None:
        self.specs = tuple(specs)
        self.spool = Path(spool)

    # -- env (de)serialisation -----------------------------------------

    def to_env(self) -> str:
        return json.dumps({
            "spool": str(self.spool),
            "faults": [{"kind": s.kind, "match": s.match,
                        "times": s.times, "seconds": s.seconds}
                       for s in self.specs]})

    @classmethod
    def from_env(cls, environ=None) -> "FaultPlan | None":
        """The active plan, or ``None`` when no faults are injected."""
        raw = (environ if environ is not None else os.environ) \
            .get(ENV_VAR)
        if not raw:
            return None
        doc = json.loads(raw)
        return cls([FaultSpec(**spec) for spec in doc["faults"]],
                   doc["spool"])

    # -- firing --------------------------------------------------------

    def _claim(self, index: int, spec: FaultSpec) -> bool:
        """Atomically claim one firing of ``spec``; False = budget spent.

        Marker files are claimed with ``O_CREAT | O_EXCL``, which is
        atomic across processes, so exactly ``times`` claims succeed
        campaign-wide no matter how execution interleaves.
        """
        self.spool.mkdir(parents=True, exist_ok=True)
        for n in range(spec.times):
            marker = self.spool / f"fault-{index}-fire-{n}"
            try:
                os.close(os.open(marker, os.O_CREAT | os.O_EXCL
                                 | os.O_WRONLY))
            except FileExistsError:
                continue
            return True
        return False

    def fire(self, label: str, kinds=WORKER_FAULT_KINDS) -> None:
        """Fire the first matching, unspent fault of the given kinds."""
        for index, spec in enumerate(self.specs):
            if spec.kind not in kinds or not spec.matches(label):
                continue
            if not self._claim(index, spec):
                continue
            if spec.kind == "crash":
                os._exit(CRASH_EXIT_CODE)
            if spec.kind == "hang":
                time.sleep(spec.seconds)
                return
            if spec.kind == "raise":
                raise InjectedFault(f"injected fault on {label}")
            return

    def wants_corruption(self, label: str) -> bool:
        """Claim-and-report whether a ``corrupt`` fault hits ``label``."""
        for index, spec in enumerate(self.specs):
            if spec.kind == "corrupt" and spec.matches(label) \
                    and self._claim(index, spec):
                return True
        return False


def maybe_fire(label: str) -> None:
    """Execution-path hook: fire any active worker fault for ``label``.

    Reads the plan from the environment on every call so worker
    subprocesses (and tests that swap plans) always see the current
    one; with no plan installed this is a dictionary miss and a return.
    """
    plan = FaultPlan.from_env()
    if plan is not None:
        plan.fire(label)


def should_corrupt(label: str) -> bool:
    """Cache-path hook: does a ``corrupt`` fault claim this write?"""
    plan = FaultPlan.from_env()
    return plan is not None and plan.wants_corruption(label)


@contextlib.contextmanager
def inject_faults(*specs: FaultSpec, spool: str | Path | None = None):
    """Install a fault plan for the duration of a ``with`` block.

    Sets :data:`ENV_VAR` (so sessions created inside the block — and
    the worker processes they spawn — observe the plan) and restores
    the previous value on exit.  ``spool`` defaults to a fresh
    temporary directory, giving every injection its own fire budget.
    """
    if spool is None:
        spool = tempfile.mkdtemp(prefix="repro-faults-")
    plan = FaultPlan(specs, spool)
    previous = os.environ.get(ENV_VAR)
    os.environ[ENV_VAR] = plan.to_env()
    try:
        yield plan
    finally:
        if previous is None:
            os.environ.pop(ENV_VAR, None)
        else:
            os.environ[ENV_VAR] = previous
