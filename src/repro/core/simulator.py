"""Simulator wiring and the one-call ``simulate`` entry point.

Builds the full machine for a workload — synthetic programs, thread
contexts, warm memory hierarchy, fetch engine, decoupled fetch unit and
the out-of-order core — runs a warm-up window (caches/predictors train,
statistics discarded), then measures.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.core.config import DEFAULT_CONFIG, SimConfig
from repro.core.metrics import SimResult
from repro.core.workloads import resolve_workload
from repro.frontend.engine import EngineKind, make_engine
from repro.frontend.fetch_unit import FetchUnit
from repro.frontend.policy import PolicySpec
from repro.memory.hierarchy import MemoryHierarchy
from repro.pipeline.core import SmtCore
from repro.program.blocks import Program
from repro.program.generator import program_for
from repro.trace.context import ThreadContext


class Simulator:
    """A fully-wired SMT machine executing one workload.

    ``config`` is the machine's one description: the simulator hands it
    to every component it builds, and each component reads its own
    sizes from it.  Each entry of ``benchmarks`` is a SPECint2000
    benchmark name, generated at ``config.seed``, or a ready
    :class:`Program`; the workload is named after the programs.
    ``contexts`` is a tuple: the fetch and commit stages capture each
    thread's structures when the machine is built, so a thread's
    program is fixed from then on.
    """

    def __init__(self, benchmarks: Sequence[str | Program],
                 engine: str | EngineKind = EngineKind.GSHARE_BTB,
                 policy: str = "ICOUNT.1.8",
                 config: SimConfig | None = None,
                 workload_name: str | None = None) -> None:
        if not benchmarks:
            raise ValueError("a workload needs at least one benchmark")
        self.config = config or DEFAULT_CONFIG
        cfg = self.config
        programs = [entry if isinstance(entry, Program)
                    else program_for(entry, cfg.seed)
                    for entry in benchmarks]
        self.workload_name = workload_name \
            or "+".join(program.name for program in programs)

        self.contexts = tuple(ThreadContext(program, tid)
                              for tid, program in enumerate(programs))
        self.memory = MemoryHierarchy(cfg)
        for ctx in self.contexts:
            program = ctx.program
            self.memory.warm_instruction_side(
                ctx.tid, program.entry_addr,
                program.entry_addr + program.code_bytes)
            # Deduplicated data regions, small first.  The order decides
            # which regions survive the TLB page budget, so it is part
            # of the golden-parity contract: do not change it without
            # regenerating the fixture.
            regions = sorted({(g.base, g.footprint())
                              for g in program.memgens},
                             key=lambda r: r[1])
            self.memory.warm_data_side(
                ctx.tid, regions,
                tlb_budget_pages=max(cfg.dtlb_entries
                                     // max(len(self.contexts), 1), 8))

        self.spec = PolicySpec.parse(policy) \
            .for_threads(len(self.contexts))
        self.engine = make_engine(engine, len(self.contexts), cfg)
        self.fetch_unit = FetchUnit(self.engine, self.spec, self.memory,
                                    self.contexts, cfg)
        self.core = SmtCore(self.fetch_unit, cfg)

    def run(self, cycles: int, warmup: int | None = None) -> SimResult:
        """Warm up, then measure ``cycles`` cycles.

        ``warmup=None`` defers to ``config.warmup_cycles``.
        """
        self.warm(self.config.warmup_cycles if warmup is None else warmup)
        self.core.run(cycles)
        return self.result()

    def warm(self, cycles: int) -> None:
        """Run ``cycles`` warm-up cycles, then reset every statistic.

        The one warm-up/measurement boundary.  No cycles, no reset.
        """
        if cycles:
            self.core.run(cycles)
            self._reset_stats()

    def _reset_stats(self) -> None:
        """Zero every statistic at the warm-up/measurement boundary.

        Each component owns a ``reset_stats()`` that clears its counters
        while keeping trained state (cache lines, TLB translations,
        predictor tables), so warm-up activity never leaks into measured
        miss rates.
        """
        self.core.reset_stats()
        self.fetch_unit.reset_stats()
        self.memory.reset_stats()
        self.engine.reset_stats()

    def result(self) -> SimResult:
        """Snapshot the current statistics into a :class:`SimResult`."""
        core_stats = self.core.stats
        fetch_stats = self.fetch_unit.stats
        return SimResult(
            workload=self.workload_name,
            engine=self.engine.name,
            policy=str(self.spec),
            cycles=core_stats.cycles,
            committed=core_stats.committed,
            ipc=core_stats.ipc,
            ipfc=fetch_stats.ipfc,
            fetch_cycles=fetch_stats.fetch_cycles,
            committed_by_thread=tuple(core_stats.committed_by_thread),
            delivered_at_least={n: fetch_stats.delivered_at_least(n)
                                for n in (1, 4, 8, 16)},
            squashes=core_stats.squashes,
            decode_redirects=core_stats.decode_redirects,
            bank_conflicts=fetch_stats.bank_conflicts,
            wrong_path_fetched=fetch_stats.wrong_path_fetched,
            engine_stats=self.engine.stats(),
            l1i_miss_rate=self.memory.l1i.miss_rate,
            l1d_miss_rate=self.memory.l1d.miss_rate,
            l2_miss_rate=self.memory.l2.miss_rate,
            avg_rob_occupancy=core_stats.avg_rob_occupancy,
            avg_iq_occupancy=core_stats.avg_iq_occupancy,
        )


def simulate(workload: str | tuple[str, ...] | list[str],
             engine: str | EngineKind = EngineKind.GSHARE_BTB,
             policy: str = "ICOUNT.1.8", cycles: int = 20_000,
             config: SimConfig | None = None,
             warmup: int | None = None) -> SimResult:
    """Run one simulation and return its measured result.

    Args:
        workload: A Table 2 workload name (``"4_MIX"``) or an explicit
            benchmark tuple (``("gzip", "twolf")``).
        engine: Fetch engine: ``"gshare+BTB"``, ``"gskew+FTB"`` or
            ``"stream"``.
        policy: Fetch policy spec, e.g. ``"ICOUNT.2.8"``.
        cycles: Measured window length.
        config: Machine configuration (Table 3 defaults if omitted).
        warmup: Warm-up cycles before measurement (config default if
            omitted).
    """
    # Deferred import: repro.backend builds on this module.
    from repro.backend import get_backend

    benchmarks, name = resolve_workload(workload)
    config = config or DEFAULT_CONFIG
    get_backend(config.backend)     # any other backend fails by name
    return Simulator(benchmarks, engine, policy, config,
                     workload_name=name).run(cycles, warmup=warmup)
