"""Drive each layer through its public functions and measure it.

Two families of passes:

* **simulator** passes run grid cells one at a time in this process,
  each on a fresh machine: ``program_for`` (``program``), the backend
  constructor (``core``), ``warm``/``advance``/``result``
  (``backend``), with the ``pipeline``, ``frontend``, ``branch`` and
  ``memory`` layers read from ``SimResult`` and the live machine's
  public state;
* **campaign** passes run a cell set through ``ExperimentSession``
  (``experiments``) with a durable campaign directory, so the queue,
  workers and engine (``campaign``) narrate themselves into the
  ``events.jsonl`` journal (``obs``), which is read back with
  ``read_events``.

Every pass checks its outputs: each cell's ``SimResult.to_dict()``
digest must repeat across passes (and match the pinned digest where
one exists), so a faster but wrong layer fails the benchmark.
"""

from __future__ import annotations

import hashlib
import json
import random
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.backend import get_backend
from repro.campaign.manifest import campaign_dir
from repro.core.workloads import ILP_WORKLOADS, MEM_WORKLOADS, WORKLOADS
from repro.experiments import PAPER_CLAIMS, ExperimentSession
from repro.experiments.runner import ClaimOutcome, format_claims
from repro.obs.journal import journal_path, read_events
from repro.perf.bench import BENCH_ENGINES, BENCH_POLICIES, geomean
from repro.program.generator import program_for
from repro.resilience import CellExecutionError

import reference
from tracing import NULL_TRACER

CLAIMS_PROFILE_CELLS = tuple(
    (workload, "stream", "ICOUNT.2.8")
    for workload in ILP_WORKLOADS + MEM_WORKLOADS)
"""The claims grid's cells re-simulated in process by a traced
``claims-regen`` run, one per Table 2 workload, so the simulator layers
are profiled on that workload too."""


@dataclass(frozen=True)
class Windows:
    """Warm-up and measured cycles of every cell of a workload."""

    warmup: int
    cycles: int


@dataclass(frozen=True)
class Cell:
    """One (Table 2 workload, engine, policy) grid point."""

    workload: str
    engine: str
    policy: str

    @property
    def label(self) -> str:
        return label_of(self)


def grid(workloads) -> list[Cell]:
    """Workloads x the throughput bench's engines and policies."""
    return [Cell(w, e, p) for w in workloads for e in BENCH_ENGINES
            for p in BENCH_POLICIES]


def seeded_order(cells: list, seed: int) -> list:
    """``cells`` with each workload's cells shuffled by ``seed``.

    Workloads keep their first-appearance order, so the first cell —
    whose programs a cold run generates first — is always of the same
    workload and set-up cost does not swing with the seed.
    """
    rng = random.Random(seed)
    groups: dict[str, list] = {}
    for cell in cells:
        groups.setdefault(cell.workload, []).append(cell)
    ordered = []
    for group in groups.values():
        rng.shuffle(group)
        ordered += group
    return ordered


def label_of(cell) -> str:
    """Label of any cell-like object (ours or a session ``Cell``)."""
    return f"{cell.workload}/{cell.engine}/{cell.policy}"


def digest(result) -> str:
    """Short content digest of a ``SimResult.to_dict()``."""
    blob = json.dumps(result.to_dict(), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def text_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


class OutputCheck:
    """Per-cell output check across every pass of one run.

    The first digest seen for a label is the reference; every later
    pass must reproduce it, and so must the digest pinned for the run's
    windows, if any.  A mismatch or an exception marks the cell failed.
    """

    def __init__(self, pinned: dict[str, str] | None) -> None:
        self.pinned = pinned
        self.seen: dict[str, str] = {}
        self.failed: dict[str, str] = {}

    def observe(self, label: str, value: str, source: str) -> None:
        reference = self.seen.setdefault(label, value)
        pin = (self.pinned or {}).get(label, value)
        if value != reference:
            self.fail(label, f"{source} digest {value} != {reference}")
        elif value != pin:
            self.fail(label, f"{source} digest {value} != pinned {pin}")

    def fail(self, label: str, why: str) -> None:
        self.seen.setdefault(label, "")
        self.failed.setdefault(label, why)

    @property
    def attempted(self) -> int:
        return len(self.seen)


# ----------------------------------------------------------------------
# simulator passes
# ----------------------------------------------------------------------

@dataclass
class CellRun:
    """One cell simulated on a fresh machine, with its phase times."""

    cell: Cell
    build_s: float
    warm_s: float
    measure_s: float
    export_s: float
    result: object
    dispatch_stalls: int
    mshr_rejections: int
    fetched: int
    quiet: int | None = None
    kernel_s: float | None = None
    """The reference kernel's time just before this cell, if taken."""

    @property
    def seconds(self) -> float:
        return self.build_s + self.warm_s + self.measure_s + self.export_s


def build(cell: Cell, config):
    return get_backend(config.backend)(
        WORKLOADS[cell.workload], cell.engine, cell.policy, config,
        workload_name=cell.workload)


def setup(cells: list[Cell], config, tracer=NULL_TRACER) -> dict:
    """Cold ``program_for`` for every program of ``cells``, then the
    first machine build: the time before cells can flow."""
    names = sorted({name for cell in cells
                    for name in WORKLOADS[cell.workload]})
    program_for.cache_clear()
    with tracer.span("setup"):
        t0 = time.perf_counter()
        for name in names:
            with tracer.span("program.generate", cell=name):
                program_for(name, config.seed)
        t1 = time.perf_counter()
        with tracer.span("core.build", cell=cells[0].label):
            build(cells[0], config)
        t2 = time.perf_counter()
    return {"setup_s": t2 - t0, "generate_s": t1 - t0,
            "programs": len(names)}


def run_cell(cell: Cell, config, windows: Windows, tracer=NULL_TRACER,
             ticked: bool = False) -> CellRun:
    """Build, warm, measure and export one cell.

    ``ticked`` steps the measured window one ``SmtCore.tick()`` at a
    time and counts quiet cycles: no commit, no issue, no fetch
    delivery and unchanged ROB/IQ occupancy.
    """
    with tracer.span("cell", cell=cell.label):
        t0 = time.perf_counter()
        with tracer.span("core.build"):
            machine = build(cell, config)
        t1 = time.perf_counter()
        with tracer.span("backend.warm"):
            machine.warm(windows.warmup)
        t2 = time.perf_counter()
        sim = machine.simulator
        quiet = None
        with tracer.span("backend.advance"):
            if ticked:
                quiet = _tick_window(sim, windows.cycles)
            else:
                machine.advance(windows.cycles)
        t3 = time.perf_counter()
        with tracer.span("backend.result"):
            result = machine.result()
        t4 = time.perf_counter()
    return CellRun(cell, t1 - t0, t2 - t1, t3 - t2, t4 - t3, result,
                   sim.core.stats.dispatch_stalls,
                   sim.memory.dmshr.rejections,
                   sim.fetch_unit.stats.fetched_instructions, quiet)


def _tick_window(sim, cycles: int) -> int:
    core = sim.core
    stats = core.stats
    fetch_stats = sim.fetch_unit.stats
    rob = core.rob
    q0, q1, q2 = core.iqs.queues
    tick = core.tick
    quiet = 0
    rob_size = rob.size
    iq_size = len(q0) + len(q1) + len(q2)
    for _ in range(cycles):
        committed = stats.committed
        issued = stats.issued
        fetched = fetch_stats.fetched_instructions
        tick()
        new_rob = rob.size
        new_iq = len(q0) + len(q1) + len(q2)
        if stats.committed == committed and stats.issued == issued \
                and fetch_stats.fetched_instructions == fetched \
                and new_rob == rob_size and new_iq == iq_size:
            quiet += 1
        rob_size = new_rob
        iq_size = new_iq
    return quiet


def simulate_cells(cells: list[Cell], config, windows: Windows,
                   check: OutputCheck, source: str, tracer=NULL_TRACER,
                   ticked: bool = False,
                   calibrated: bool = False) -> list[CellRun]:
    """One pass over ``cells``; exceptions and mismatches fail cells.

    ``calibrated`` times the reference kernel just before each cell.
    """
    runs = []
    for cell in cells:
        kernel_s = reference.timed() if calibrated else None
        try:
            run = run_cell(cell, config, windows, tracer, ticked)
        except Exception as exc:      # noqa: BLE001 — counted as failed
            check.fail(cell.label, f"{source}: {exc!r}")
            continue
        check.observe(cell.label, digest(run.result), source)
        run.kernel_s = kernel_s
        runs.append(run)
    return runs


def grid_claims(results: dict) -> list[ClaimOutcome]:
    """The paper claims a cell grid covers, over the workloads it has.

    Ratios are computed as ``ExperimentSession.check_claims`` does
    (mean numerator over mean denominator), restricted to the claim's
    workloads whose numerator and denominator cells are in ``results``
    (keyed by ``(workload, engine, policy)``).
    """
    outcomes = []
    for claim in PAPER_CLAIMS:
        workloads = [w for w in claim.workloads
                     if (w, *claim.numer) in results
                     and (w, *claim.denom) in results]
        if not workloads:
            continue

        def mean(side) -> float:
            values = [results[(w, *side)] for w in workloads]
            return sum(r.ipfc if claim.metric == "ipfc" else r.ipc
                       for r in values) / len(values)

        outcomes.append(ClaimOutcome(claim, mean(claim.numer)
                                     / mean(claim.denom)))
    return outcomes


def claim_metrics(outcomes: list[ClaimOutcome]) -> dict:
    return {
        "claims_held": sum(o.holds for o in outcomes),
        "claim_error_mean": statistics.fmean(
            abs(o.measured_ratio - o.claim.paper_ratio) for o in outcomes),
        "claims": len(outcomes),
    }


def steady_run(cells: list[Cell], config, windows: Windows,
               check: OutputCheck, seconds: float, setups: int,
               min_rounds: int, max_rounds: int) -> tuple[list, list]:
    """Cold set-ups and whole passes over ``cells``, interleaved.

    The first ``setups`` rounds each follow a cold set-up, so set-ups
    sample as many host phases as rounds do.  Rounds continue while
    another one is predicted to end within ``seconds``.  Every set-up
    and cell is timed next to the reference kernel.
    """
    done_setups: list[dict] = []
    rounds: list[list[CellRun]] = []
    start = time.perf_counter()
    while len(rounds) < max_rounds:
        elapsed = time.perf_counter() - start
        if len(rounds) >= min_rounds and \
                elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            break
        if len(done_setups) < setups:
            kernel_s = reference.timed()
            done_setups.append({**setup(cells, config),
                                "kernel_s": kernel_s})
        rounds.append(simulate_cells(cells, config, windows, check,
                                     f"round {len(rounds) + 1}",
                                     calibrated=True))
    return done_setups, rounds


def steady_metrics(setups: list[dict], rounds: list[list[CellRun]],
                   windows: Windows) -> dict:
    """End-to-end figures of a steady workload, in scaled seconds.

    ``wall_s`` adds the median set-up to each cell's median round,
    ``sim_kcycles_per_s`` takes each cell's median measured window, and
    all are scaled by the run's median reference kernel time (see
    ``reference``); the raw figures are reported beside them.
    """
    by_cell: dict[str, list[CellRun]] = {}
    for runs in rounds:
        for run in runs:
            by_cell.setdefault(run.cell.label, []).append(run)
    kernel_s = statistics.median(
        [s["kernel_s"] for s in setups]
        + [r.kernel_s for runs in rounds for r in runs])
    setup_s = statistics.median(s["setup_s"] for s in setups)
    wall_s = setup_s + sum(statistics.median(r.seconds for r in runs)
                           for runs in by_cell.values())
    kcps = geomean(
        windows.cycles / statistics.median(r.measure_s for r in runs) / 1e3
        for runs in by_cell.values())
    first = {(r.cell.workload, r.cell.engine, r.cell.policy): r.result
             for r in rounds[0]} if rounds else {}
    return {"wall_s": reference.scaled(wall_s, kernel_s),
            "setup_s": reference.scaled(setup_s, kernel_s),
            "sim_kcycles_per_s": kcps / reference.scaled(1.0, kernel_s),
            **claim_metrics(grid_claims(first)),
            "raw": {"wall_s": wall_s, "setup_s": setup_s,
                    "sim_kcycles_per_s": kcps},
            "kernel_s": kernel_s,
            "rounds": len(rounds), "setups": len(setups)}


def simulator_layers(setup_info: dict, runs: list[CellRun],
                     ticked: list[CellRun], sampler) -> dict:
    """Per-layer metrics of the simulator, from one traced pass."""
    results = [r.result for r in runs]
    cycles = sum(r.cycles for r in results)
    committed = sum(r.committed for r in results)
    fetched = sum(r.fetched for r in runs)
    wrong_path = sum(r.wrong_path_fetched for r in results)
    fetch_cycles = sum(r.fetch_cycles for r in results)

    def median(attr: str) -> float:
        return statistics.median(getattr(r, attr) for r in runs)

    def mean(attr: str) -> float:
        return statistics.fmean(getattr(r, attr) for r in results)

    share = sampler.share
    metrics = {
        "program.generate_s": (setup_info["generate_s"], "s"),
        "program.count": (setup_info["programs"], "count"),
        "core.build_s": (median("build_s"), "s"),
        "backend.warm_s": (median("warm_s"), "s"),
        "backend.measure_s": (median("measure_s"), "s"),
        "backend.export_s": (median("export_s"), "s"),
        "pipeline.quiet_cycle_share": (
            sum(r.quiet for r in ticked)
            / sum(r.result.cycles for r in ticked), "fraction"),
        "pipeline.ipc": (committed / cycles, "instr/cycle"),
        "pipeline.rob_occupancy": (mean("avg_rob_occupancy"), "entries"),
        "pipeline.iq_occupancy": (mean("avg_iq_occupancy"), "entries"),
        "pipeline.dispatch_stalls_per_kcycle": (
            sum(r.dispatch_stalls for r in runs) * 1e3 / cycles,
            "1/kcycle"),
        "frontend.ipfc": (fetched / fetch_cycles, "instr/fetch"),
        "frontend.useful_fetch_ratio": ((fetched - wrong_path) / fetched,
                                        "fraction"),
        "frontend.bank_conflicts_per_kcycle": (
            sum(r.bank_conflicts for r in results) * 1e3 / cycles,
            "1/kcycle"),
        "branch.mispredicts_per_kinstr": (
            sum(r.squashes + r.decode_redirects for r in results) * 1e3
            / committed, "1/kinstr"),
        "memory.l1i_miss_rate": (mean("l1i_miss_rate"), "fraction"),
        "memory.l1d_miss_rate": (mean("l1d_miss_rate"), "fraction"),
        "memory.l2_miss_rate": (mean("l2_miss_rate"), "fraction"),
        "memory.mshr_rejections_per_kcycle": (
            sum(r.mshr_rejections for r in runs) * 1e3 / cycles,
            "1/kcycle"),
        "sampler.samples": (sampler.samples, "count"),
        "sampler.unknown": (sampler.unknown, "count"),
    }
    for layer in ("pipeline", "frontend", "branch", "memory", "program",
                  "util", "trace", "isa"):
        metrics[f"{layer}.sample_share"] = (share(sampler.layers[layer]),
                                            "fraction")
    for stage in ("commit", "writeback", "issue", "dispatch", "rename",
                  "decode"):
        metrics[f"pipeline.{stage}_share"] = (share(sampler.stages[stage]),
                                              "fraction")
    return metrics


# ----------------------------------------------------------------------
# campaign passes
# ----------------------------------------------------------------------

@dataclass
class CampaignPass:
    """A cold campaign over a fresh cache, then a warm pass over it."""

    jobs: int
    cells: int
    plan_s: float
    wall_s: float
    setup_s: float
    claims: list
    events: list = field(repr=False)
    warm_s: float | None = None
    warm_simulated: int | None = None


def claims_cells(session: ExperimentSession) -> list:
    return session.cells_for_claims(PAPER_CLAIMS)


def campaign_pass(make_cells, config, windows: Windows, work: Path,
                  jobs: int, check: OutputCheck, claims_of,
                  tracer=NULL_TRACER) -> CampaignPass:
    """Run ``make_cells(session)`` cold through a durable campaign.

    ``claims_of(session, results)`` computes the claim outcomes.  A
    second session then re-reads the same cache: it must simulate
    nothing and reproduce every result and the claims table byte for
    byte.
    """
    def session() -> ExperimentSession:
        return ExperimentSession(
            jobs=jobs, cache_dir=work / "cache",
            campaign_dir=work / "campaigns", cycles=windows.cycles,
            warmup=windows.warmup, config=config, strict=False)

    cold = session()
    cells = make_cells(cold)
    t0 = time.monotonic()
    with tracer.span("experiments.plan"):
        plan = cold.plan(cells)
    plan_s = time.monotonic() - t0
    start = time.monotonic()
    with tracer.span("experiments.run_cells", cell=plan.campaign_id):
        results = cold.run_cells(cells)
    for failure in cold.last_failures:
        check.fail(label_of(plan.by_key[failure.key]),
                   f"cold campaign: {failure}")
    for cell, result in results.items():
        check.observe(label_of(cell), digest(result), "cold campaign")
    claims = _claims(claims_of, cold, results, check, "cold campaign")
    events = read_events(journal_path(campaign_dir(work / "campaigns",
                                                   plan.campaign_id)))
    acks = [e["t_mono"] for e in events if e["ev"] == "ack"]
    out = CampaignPass(jobs=jobs, cells=len(plan.by_key), plan_s=plan_s,
                       wall_s=max(acks) - start if acks else 0.0,
                       setup_s=min(acks) - start if acks else 0.0,
                       claims=claims, events=events)
    again = session()
    t1 = time.monotonic()
    with tracer.span("experiments.warm_pass"):
        warm_results = again.run_cells(cells)
        warm_claims = _claims(claims_of, again, warm_results, check,
                              "warm pass")
    out.warm_s = time.monotonic() - t1
    out.warm_simulated = again.simulated
    for cell, result in warm_results.items():
        check.observe(label_of(cell), digest(result), "warm pass")
    if again.simulated:
        check.fail("claims_table",
                   f"warm pass simulated {again.simulated} cell(s)")
    if claims is not None and warm_claims is not None:
        check.observe("claims_table", text_digest(format_claims(claims)),
                      "cold campaign")
        check.observe("claims_table", text_digest(format_claims(warm_claims)),
                      "warm pass")
    return out


def _claims(claims_of, session, results, check, source):
    try:
        return claims_of(session, results)
    except CellExecutionError as exc:
        check.fail("claims_table", f"{source}: {exc}")
        return None


def session_claims(session: ExperimentSession, results) -> list:
    """The claims-regen path: ``check_claims`` over the full grid."""
    return session.check_claims(PAPER_CLAIMS)


def grid_session_claims(session: ExperimentSession, results) -> list:
    """A steady grid's claims, from the cells the session returned."""
    return grid_claims({(c.workload, c.engine, c.policy): r
                        for c, r in results.items()})


def campaign_kcycles(events: list, cycles: int) -> float:
    """Measured cycles per host second of execute, geomean over cells."""
    return geomean(cycles / e["execute_seconds"] / 1e3 for e in events
                   if e["ev"] == "execute" and e["execute_seconds"] > 0)


def campaign_layers(cpass: CampaignPass) -> dict:
    """Per-layer metrics of experiments, campaign and obs."""
    events = cpass.events
    executes = [e for e in events if e["ev"] == "execute"]
    exits = [e["t_mono"] for e in events if e["ev"] == "worker_exit"]
    execute_s = sum(e["execute_seconds"] for e in executes)
    return {
        "experiments.plan_s": (cpass.plan_s, "s"),
        "experiments.cache_put_s": (
            sum(e["cache_put_seconds"] for e in executes), "s"),
        "experiments.warm_pass_s": (cpass.warm_s, "s"),
        "campaign.execute_s": (execute_s, "s"),
        "campaign.execute_max_s": (
            max((e["execute_seconds"] for e in executes), default=0.0),
            "s"),
        "campaign.orchestration_s": (cpass.wall_s - execute_s / cpass.jobs,
                                     "s"),
        "campaign.tail_s": (max(exits) - min(exits) if exits else 0.0,
                            "s"),
        "campaign.attempts": (
            sum(1 for e in events if e["ev"] == "lease"), "count"),
        "obs.events": (len(events) / cpass.cells, "1/cell"),
    }


def journal_spans(tracer, cpass: CampaignPass) -> None:
    """Rebuild per-cell lease -> execute -> ack spans from the journal.

    One track per worker; each cell span (keyed by cell key) holds
    ``campaign.lease`` (leased, waiting in its batch),
    ``campaign.execute``, ``experiments.cache_put`` and
    ``campaign.ack`` sub-spans.
    """
    leases: dict[tuple[str, str], float] = {}
    acks: dict[tuple[str, str], float] = {}
    for e in cpass.events:
        if e["ev"] == "lease":
            leases[(e["key"], e["worker"])] = e["t_mono"]
        elif e["ev"] == "ack":
            acks[(e["key"], e["worker"])] = e["t_mono"]
    for e in cpass.events:
        if e["ev"] != "execute":
            continue
        ident = (e["key"], e["worker"])
        emitted = e["t_mono"]
        put_start = emitted - e["cache_put_seconds"]
        exec_start = put_start - e["execute_seconds"]
        lease = leases.get(ident, exec_start)
        ack = acks.get(ident, emitted)
        track = e["worker"]
        cell = tracer.add("cell", lease, ack, cell=e["label"], track=track,
                          key=e["key"])
        for name, start, end in (
                ("campaign.lease", lease, exec_start),
                ("campaign.execute", exec_start, put_start),
                ("experiments.cache_put", put_start, emitted),
                ("campaign.ack", emitted, ack)):
            tracer.add(name, start, end, parent=cell, cell=e["label"],
                       track=track)
