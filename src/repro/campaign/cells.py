"""The campaign layer's unit of work: cells, content keys, execution.

A *cell* is one fully-resolved simulation request — workload, engine,
policy, run windows and a complete :class:`~repro.core.config.SimConfig`.
Everything above this module (sessions, sweeps, queues, workers) moves
cells around; everything below it (the backend) executes them.  Three
representations exist, all loss-free:

* :class:`Cell` — the in-process dataclass;
* the *descriptor* — a canonical JSON-safe mapping
  (:func:`cell_descriptor`), which is what queues and manifests store
  and what :func:`cell_from_descriptor` rebuilds a :class:`Cell` from;
* the *content key* — the SHA-256 of the descriptor
  (:func:`cell_key`), the address of the cell's result in the
  content-addressed cache and in a campaign's queue.

:func:`execute_cell` is the one way a cell runs: campaign workers,
isolated recovery children and the in-process path all call it.  It
is top-level and picklable, and that single path is one of the two
reasons results are byte-identical wherever a cell runs (the other
being that each simulation is a pure function of (seed, config)).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import SimConfig, canonical_hash
from repro.core.metrics import SimResult
from repro.core.simulator import simulate
from repro.resilience.faults import fault_label, maybe_fire

CACHE_FORMAT_VERSION = 2
"""Bumped whenever the simulator's observable behaviour changes
incompatibly; old entries then miss instead of serving stale results.
Version 2: backend-aware cells (``SimConfig.backend`` joins the
descriptor) and schema-stamped payloads."""


@dataclass(frozen=True)
class Cell:
    """One grid cell, fully resolved (no ``None``, config included).

    Carrying the config per cell (rather than per batch) means a single
    campaign can mix machine configurations — the shape of an ablation
    or width sweep — and a cell can never be keyed or simulated under a
    different config than the one it was built with.
    """

    workload: str | tuple[str, ...]
    engine: str
    policy: str
    cycles: int
    warmup: int
    config: SimConfig


def cell_descriptor(workload: str | tuple[str, ...], engine: str,
                    policy: str, cycles: int, warmup: int,
                    config: SimConfig) -> dict:
    """The JSON-safe mapping that :func:`cell_key` hashes."""
    return {
        "version": CACHE_FORMAT_VERSION,
        "workload": list(workload) if not isinstance(workload, str)
        else workload,
        "engine": engine,
        "policy": policy,
        "cycles": cycles,
        "warmup": warmup,
        "config": config.to_dict(),
    }


def cell_key(workload: str | tuple[str, ...], engine: str, policy: str,
             cycles: int, warmup: int, config: SimConfig) -> str:
    """Content hash identifying one grid cell.

    ``warmup`` must already be resolved (the ``None`` default of
    :func:`repro.experiments.session.ExperimentSession.measure` maps to
    ``config.warmup_cycles`` before hashing), so the explicit and the
    defaulted spelling of the same cell share a key.
    """
    return canonical_hash(cell_descriptor(workload, engine, policy,
                                          cycles, warmup, config))


def descriptor_for(cell: Cell) -> dict:
    """:func:`cell_descriptor` of a :class:`Cell`."""
    return cell_descriptor(cell.workload, cell.engine, cell.policy,
                           cell.cycles, cell.warmup, cell.config)


def key_for(cell: Cell) -> str:
    """:func:`cell_key` of a :class:`Cell`."""
    return cell_key(cell.workload, cell.engine, cell.policy,
                    cell.cycles, cell.warmup, cell.config)


def cell_from_descriptor(descriptor: dict) -> Cell:
    """Rebuild a :class:`Cell` from :func:`cell_descriptor` output.

    This is how a queue row (or a manifest entry) turns back into
    executable work in a worker process that never saw the original
    object.  Loss-free: ``key_for(cell_from_descriptor(d))`` equals
    ``canonical_hash(d)``.
    """
    workload = descriptor["workload"]
    if not isinstance(workload, str):
        workload = tuple(workload)
    return Cell(workload, descriptor["engine"], descriptor["policy"],
                descriptor["cycles"], descriptor["warmup"],
                SimConfig.from_dict(descriptor["config"]))


def execute_cell(cell: Cell) -> SimResult:
    """Run one cell: fault hook, build, run (picklable, top-level).

    The fault-injection hook (no-op unless ``REPRO_FAULTS`` is set)
    fires first — inside the worker or isolated child, which is where
    real faults strike.  :func:`~repro.core.simulator.simulate` builds
    the machine through the backend the config names, so a cell
    planned for a removed backend fails with
    :func:`~repro.backend.get_backend`'s error.
    """
    maybe_fire(fault_label(cell))
    return simulate(cell.workload, cell.engine, cell.policy,
                    cycles=cell.cycles, config=cell.config,
                    warmup=cell.warmup)
