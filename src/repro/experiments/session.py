"""Parallel, cached execution of experiment grids — campaign client.

The figures and claim checks of the paper share most of their
(workload, engine, policy) grid cells.  :class:`ExperimentSession`
exploits that structure, as a *client* of the campaign layer
(:mod:`repro.campaign`), in two phases:

* **Plan** — every figure/claim expands to a set of
  :class:`~repro.campaign.Cell` descriptors *before* anything runs;
  the set is deduplicated by content key, looked up in the in-process
  memo and the persistent content-addressed cache
  (:mod:`repro.experiments.cache`), and the distinct cells are hashed
  into a **campaign id** — the durable name of this measurement, the
  thing ``--resume`` resumes and reports stamp as provenance.  Cache
  misses become rows in the campaign's
  :class:`~repro.campaign.CellQueue` (in-memory for the degenerate
  one-process case, a durable SQLite file under ``campaign_dir`` when
  the caller wants crash-safe resume or external workers).

* **Execute** — the queue is drained by campaign workers.  ``jobs=1``
  drains inline in this process; ``jobs > 1`` spawns supervised worker
  processes that share the queue file and the result cache.  Retry
  budgets, deterministic backoff and per-cell wall-clock timeouts all
  live in queue lease state (see :mod:`repro.campaign.queue`), so a
  crash — of a worker *or* of this planner — loses only in-flight
  cells: every completed cell was acked durably and persisted before
  the crash.  Cells that stay dead after their budget surface as
  :class:`~repro.resilience.CellFailure` records — raised as
  :class:`~repro.resilience.CellExecutionError` in strict mode,
  returned as partial results otherwise.

Results are bit-identical however the campaign runs: each cell's
simulation is deterministic given (seed, config), every cell runs
through the one :func:`~repro.campaign.cells.execute_cell` path,
workers share nothing but files, and a retried or resumed cell
therefore reproduces exactly the result its interrupted attempt would
have produced.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.campaign.cells import Cell, descriptor_for, key_for
from repro.campaign.engine import Campaign
from repro.campaign.manifest import campaign_id
from repro.core.config import DEFAULT_CONFIG, SimConfig
from repro.core.metrics import SimResult
from repro.experiments.cache import ResultCache
from repro.experiments.figures import FigureSpec
from repro.experiments.paper_data import Claim
from repro.obs.journal import NULL_JOURNAL
from repro.resilience.faults import fault_label
from repro.resilience.policy import CellExecutionError, CellFailure

DEFAULT_CYCLES = 20_000
"""Measured window for figure regeneration (per grid cell)."""

MAX_LEASE_BATCH = 8
"""Upper bound on cells per worker lease.  Nothing is amortised across
a lease; the size only trades lease transactions against the work a
dying worker forfeits.  Leases of 8 and of 1 were indistinguishable
on the 84-cell claims grid at 3000 + 1000 cycles and jobs=2 (2-core
KVM guest, Python 3.11; 4 interleaved runs each): medians 12.2 s and
12.4 s, ranges 11.3-12.8 s and 11.7-13.4 s."""


@dataclass(frozen=True)
class CampaignInfo:
    """Provenance stamp of one planned campaign.

    Deliberately tiny and fully content-derived — no timestamps, no
    hostnames, no backend names — so any report that embeds it stays
    byte-identical across cold/warm caches and worker counts.
    """

    campaign_id: str
    cells: int
    """Distinct cells in the planned grid (hits included)."""
    pending: int
    """Cells that needed execution when the plan was made."""

    def as_dict(self) -> dict:
        """JSON-safe provenance for reports (excludes ``pending``,
        which is cache-state-dependent and would break warm/cold
        byte-identity)."""
        return {"campaign": self.campaign_id, "cells": self.cells}


@dataclass
class CampaignPlan:
    """Everything the plan phase decided, ready to execute."""

    cells: list[Cell]
    keys: dict[Cell, str]
    by_key: dict[str, Cell]
    descriptors: dict[str, dict] = field(repr=False)
    cached: dict[str, SimResult] = field(repr=False)
    misses: list[str]
    campaign_id: str

    @property
    def info(self) -> CampaignInfo:
        return CampaignInfo(campaign_id=self.campaign_id,
                            cells=len(self.by_key),
                            pending=len(self.misses))


class ExperimentSession:
    """Deduplicating, parallel, cache-backed experiment runner.

    Args:
        jobs: Worker processes for cache misses.  ``1`` (the default)
            drains the campaign queue inline in the calling process.
        cache_dir: Directory for the persistent result cache; ``None``
            keeps memoisation in-process only.
        config: Default machine configuration for cells that do not
            override it.
        cycles / warmup: Default run windows (``warmup=None`` means the
            config's ``warmup_cycles``).
        cache_budget_entries: Maintenance policy for long campaigns —
            on :meth:`close` (or context-manager exit) the persistent
            cache is pruned to at most this many entries, oldest-first.
            ``None`` (the default) keeps the cache unbounded.
        retries: Re-execution budget per failed cell (crash, exception
            or timeout), folded into each queue row's lease state;
            retried cells are deterministic given (seed, config), so
            recovery never changes a result.
        cell_timeout: Per-cell wall-clock budget in seconds.  A cell
            still running past it is killed and retried/failed instead
            of wedging the campaign.  Also routes execution through
            isolated child processes so the timeout is enforceable.
        strict: Default failure mode of :meth:`run_cells`: ``True``
            raises :class:`~repro.resilience.CellExecutionError` when
            cells remain failed after retries (completed results are
            stored first), ``False`` returns partial results and
            records :class:`~repro.resilience.CellFailure` entries in
            ``self.failures`` / ``self.last_failures``.
        campaign_dir: Root directory for durable campaign state
            (manifest + queue, one subdirectory per campaign id).
            ``None`` (the default) plans ephemeral campaigns — same
            code path, nothing left behind — which is the classic
            single-process UX.  Set it to make runs resumable
            (``--resume``) and drainable by external
            ``scripts/campaign_worker.py`` processes.
    """

    def __init__(self, jobs: int = 1, cache_dir=None,
                 config: SimConfig | None = None,
                 cycles: int = DEFAULT_CYCLES,
                 warmup: int | None = None,
                 cache_budget_entries: int | None = None,
                 retries: int = 0,
                 cell_timeout: float | None = None,
                 strict: bool = True,
                 campaign_dir=None) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if cache_budget_entries is not None and cache_budget_entries < 0:
            raise ValueError(f"cache_budget_entries must be >= 0, got "
                             f"{cache_budget_entries}")
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        if cell_timeout is not None and cell_timeout <= 0:
            raise ValueError(f"cell_timeout must be > 0, got "
                             f"{cell_timeout}")
        self.jobs = jobs
        self.config = config or DEFAULT_CONFIG
        self.cycles = cycles
        self.warmup = warmup
        self.disk = ResultCache(cache_dir) if cache_dir is not None else None
        self.cache_budget_entries = cache_budget_entries
        self.campaign_dir = campaign_dir
        self.retries = retries
        self.cell_timeout = cell_timeout
        self.strict = strict
        self._memo: dict[str, SimResult] = {}
        self._closed = False
        # Execution attempts charged in campaign queues: equals
        # distinct cells simulated on a healthy run; under faults,
        # retries count too (so the accounting shows recovery work,
        # not just coverage).
        self.simulated = 0
        self.memo_hits = 0
        self.failures: list[CellFailure] = []
        self.last_failures: tuple[CellFailure, ...] = ()
        self.last_campaign: CampaignInfo | None = None

    # ------------------------------------------------------------------
    # lifecycle / cache maintenance
    # ------------------------------------------------------------------

    def close(self) -> int:
        """Run end-of-session cache maintenance; returns evictions.

        With ``cache_budget_entries`` set and a persistent cache
        attached, prunes the cache to the budget (oldest entries first;
        a pruned cell simply re-simulates on next use).  Idempotent —
        the second and later calls do nothing and return ``0`` — and
        exception-safe: maintenance trouble (an unreadable or vanished
        cache directory) is swallowed, because :meth:`__exit__` calls
        this on the error path and must never mask the original
        exception.
        """
        if self._closed:
            return 0
        self._closed = True
        if self.disk is None or self.cache_budget_entries is None:
            return 0
        try:
            return self.disk.prune(max_entries=self.cache_budget_entries)
        except OSError:
            return 0

    def __enter__(self) -> "ExperimentSession":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------
    # cell resolution
    # ------------------------------------------------------------------

    def _resolve(self, cycles: int | None, warmup: int | None,
                 config: SimConfig | None) \
            -> tuple[int, int, SimConfig]:
        config = config or self.config
        cycles = self.cycles if cycles is None else cycles
        if warmup is None:
            warmup = self.warmup
        if warmup is None:
            warmup = config.warmup_cycles
        return cycles, warmup, config

    def make_cell(self, workload, engine: str, policy: str,
                  cycles: int | None = None,
                  warmup: int | None = None,
                  config: SimConfig | None = None) -> Cell:
        """Build a fully-resolved cell descriptor."""
        cycles, warmup, config = self._resolve(cycles, warmup, config)
        if not isinstance(workload, str):
            workload = tuple(workload)
        return Cell(workload, engine, policy, cycles, warmup, config)

    def key_for(self, cell: Cell) -> str:
        """Content-hash cache key of ``cell``."""
        return key_for(cell)

    # ------------------------------------------------------------------
    # plan
    # ------------------------------------------------------------------

    def plan(self, cells) -> CampaignPlan:
        """Plan phase: dedup, cache-check and name a campaign.

        Pure bookkeeping — nothing executes, nothing is written.  The
        campaign id hashes *all* distinct cells (hits included), so a
        warm re-run plans to the same campaign as the cold run that
        populated the cache.
        """
        cells = list(cells)
        keys: dict[Cell, str] = {}
        by_key: dict[str, Cell] = {}
        for cell in cells:
            key = keys.setdefault(cell, key_for(cell))
            by_key.setdefault(key, cell)
        descriptors = {key: descriptor_for(cell)
                       for key, cell in by_key.items()}
        cached: dict[str, SimResult] = {}
        misses: list[str] = []
        for key in by_key:
            hit = self._lookup(key)
            if hit is not None:
                cached[key] = hit
            else:
                misses.append(key)
        return CampaignPlan(cells=cells, keys=keys, by_key=by_key,
                            descriptors=descriptors, cached=cached,
                            misses=misses,
                            campaign_id=campaign_id(descriptors.values()))

    def plan_campaign(self, cells) -> CampaignInfo:
        """Plan *and persist* a campaign without executing anything.

        Writes the manifest and enqueues the misses under
        ``campaign_dir``, so external workers
        (``scripts/campaign_worker.py``) can start draining while the
        planner goes away.  Requires a ``campaign_dir``.
        """
        if self.campaign_dir is None:
            raise ValueError("plan_campaign needs a campaign_dir "
                             "(ephemeral campaigns cannot be handed to "
                             "external workers)")
        plan = self.plan(cells)
        with self._open_campaign(plan, need_file=True):
            pass
        self.last_campaign = plan.info
        return plan.info

    def _open_campaign(self, plan: CampaignPlan, *,
                       need_file: bool) -> Campaign:
        misses = [(key, plan.descriptors[key],
                   fault_label(plan.descriptors[key]))
                  for key in plan.misses]
        return Campaign.open(plan.descriptors, misses,
                             root=self.campaign_dir,
                             max_attempts=self.retries + 1,
                             need_file=need_file)

    # ------------------------------------------------------------------
    # execute
    # ------------------------------------------------------------------

    def run_cells(self, cells,
                  strict: bool | None = None) -> dict[Cell, SimResult]:
        """Execute (or recall) a batch of cells; misses run in parallel.

        Cells are deduplicated by content key first, so overlapping
        figures cost one simulation per distinct cell.  Cells may mix
        machine configurations: each runs under its own ``config``.

        Every completed cell is persisted (cache + queue ack) the
        moment it finishes, so interrupting a campaign loses only
        in-flight work; with a ``campaign_dir``, the interrupted
        campaign resumes by id.  Cells that stay failed after the
        retry budget become :class:`~repro.resilience.CellFailure`
        records: with ``strict`` (default: the session's setting) they
        raise a :class:`~repro.resilience.CellExecutionError`;
        otherwise they are simply absent from the returned mapping and
        recorded in ``self.last_failures`` / ``self.failures``.
        """
        strict = self.strict if strict is None else strict
        plan = self.plan(cells)
        self.last_campaign = plan.info

        results: dict[str, SimResult] = dict(plan.cached)
        failures: dict[str, CellFailure] = {}
        if plan.misses:
            for key, outcome in self._execute_plan(plan).items():
                if isinstance(outcome, CellFailure):
                    failures[key] = outcome
                else:
                    results[key] = outcome

        self.last_failures = tuple(failures.values())
        self.failures.extend(failures.values())
        if failures and strict:
            raise CellExecutionError(failures.values())
        return {cell: results[plan.keys[cell]] for cell in plan.cells
                if plan.keys[cell] in results}

    def _execute_plan(self, plan: CampaignPlan) -> dict:
        """Execute a plan's misses; returns key -> SimResult|CellFailure.

        ``jobs=1`` drains the queue inline (the degenerate one-worker
        case); ``jobs > 1`` spawns supervised worker processes sharing
        the queue file and the cache.  Either way the queue rows are
        the authoritative outcome record, and ``self.simulated``
        advances by the execution attempts this run charged.
        """
        spawn = self.jobs > 1
        workers = min(self.jobs, len(plan.misses))
        campaign = self._open_campaign(plan, need_file=spawn)
        try:
            if self.disk is not None and campaign.journal.enabled:
                # Quarantines struck during plan(), before this
                # campaign's journal existed; flush them now so the
                # report can attribute corrupt-cache faults.  Then
                # route live quarantines (from this process's drain)
                # straight to the journal.
                for event in self.disk.quarantine_events:
                    campaign.journal.emit("quarantine", **event)
                self.disk.quarantine_events.clear()
                self.disk.journal = campaign.journal
            before = campaign.attempts()
            campaign.execute(
                workers=workers, spawn=spawn, cache=self.disk,
                cache_dir=str(self.disk.root)
                if self.disk is not None else None,
                cell_timeout=self.cell_timeout,
                lease_batch=max(1, min(MAX_LEASE_BATCH,
                                       len(plan.misses) // workers)))
            self.simulated += campaign.attempts() - before
            outcomes = campaign.outcomes(plan.misses)
        finally:
            if self.disk is not None:
                self.disk.journal = NULL_JOURNAL
            campaign.close()
        for key, outcome in outcomes.items():
            if not isinstance(outcome, CellFailure):
                self._memo[key] = outcome
        return outcomes

    def measure(self, workload, engine: str, policy: str,
                cycles: int | None = None,
                config: SimConfig | None = None,
                warmup: int | None = None) -> SimResult:
        """Run (or recall) one grid cell.

        Always strict: a single-cell request has no useful partial
        result, so a dead cell raises ``CellExecutionError`` even on a
        partial-mode session.
        """
        cell = self.make_cell(workload, engine, policy, cycles, warmup,
                              config)
        return self.run_cells([cell], strict=True)[cell]

    def _lookup(self, key: str) -> SimResult | None:
        result = self._memo.get(key)
        if result is not None:
            self.memo_hits += 1
            return result
        if self.disk is not None:
            result = self.disk.get(key)
            if result is not None:
                self._memo[key] = result
        return result

    # ------------------------------------------------------------------
    # figure / claim grids
    # ------------------------------------------------------------------

    def cells_for_figure(self, spec: FigureSpec,
                         cycles: int | None = None,
                         warmup: int | None = None,
                         config: SimConfig | None = None) -> list[Cell]:
        """Every cell of a figure's measurement grid, plotting order."""
        return [self.make_cell(w, e, p, cycles, warmup, config)
                for w in spec.workloads
                for e in spec.engines
                for p in spec.policies]

    def cells_for_claims(self, claims, cycles: int | None = None,
                         warmup: int | None = None,
                         config: SimConfig | None = None) -> list[Cell]:
        """Every numerator/denominator cell behind a set of claims."""
        cells = []
        for claim in claims:
            for workload in claim.workloads:
                for engine, policy in (claim.numer, claim.denom):
                    cells.append(self.make_cell(workload, engine, policy,
                                                cycles, warmup, config))
        return cells

    def run_figure(self, spec: FigureSpec, cycles: int | None = None,
                   config: SimConfig | None = None,
                   warmup: int | None = None):
        """Execute a figure's full grid; returns a ``FigureResult``."""
        from repro.experiments.runner import FigureResult
        resolved_cycles, _, config = self._resolve(cycles, warmup, config)
        cells = self.cells_for_figure(spec, cycles, warmup, config)
        results = self.run_cells(cells)
        out = FigureResult(spec, resolved_cycles)
        for cell, result in results.items():
            metric = result.ipfc if spec.metric == "ipfc" else result.ipc
            out.values[(cell.workload, cell.engine, cell.policy)] = metric
        return out

    def check_claims(self, claims: tuple[Claim, ...],
                     cycles: int | None = None,
                     config: SimConfig | None = None,
                     warmup: int | None = None):
        """Measure all claims' cells (one batch) and compute ratios."""
        from repro.experiments.runner import ClaimOutcome
        self.run_cells(self.cells_for_claims(claims, cycles, warmup,
                                             config))
        outcomes = []
        for claim in claims:
            numer_vals = []
            denom_vals = []
            for workload in claim.workloads:
                n = self.measure(workload, claim.numer[0], claim.numer[1],
                                 cycles, config, warmup)
                d = self.measure(workload, claim.denom[0], claim.denom[1],
                                 cycles, config, warmup)
                numer_vals.append(n.ipfc if claim.metric == "ipfc"
                                  else n.ipc)
                denom_vals.append(d.ipfc if claim.metric == "ipfc"
                                  else d.ipc)
            ratio = (sum(numer_vals) / len(numer_vals)) \
                / (sum(denom_vals) / len(denom_vals))
            outcomes.append(ClaimOutcome(claim, ratio))
        return outcomes

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    @property
    def disk_hits(self) -> int:
        """Results served from the persistent cache."""
        return self.disk.hits if self.disk is not None else 0

    def summary(self) -> str:
        """One-line execution accounting (for CLI footers and logs)."""
        parts = [f"{self.simulated} cell(s) simulated",
                 f"{self.memo_hits} memo hit(s)"]
        if self.disk is not None:
            parts.append(f"{self.disk.hits} disk hit(s) "
                         f"[{self.disk.root}]")
        if self.failures:
            parts.append(f"{len(self.failures)} cell(s) FAILED")
        return ", ".join(parts)
