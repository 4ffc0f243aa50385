"""Simulator wiring and the one-call ``simulate`` entry point.

Builds the full machine for a workload — synthetic programs, thread
contexts, warm memory hierarchy, fetch engine, decoupled fetch unit and
the out-of-order core — runs a warm-up window (caches/predictors train,
statistics discarded), then measures.
"""

from __future__ import annotations

from repro.core.config import DEFAULT_CONFIG, SimConfig
from repro.core.metrics import SimResult
from repro.core.workloads import resolve_workload
from repro.frontend.engine import EngineKind, make_engine
from repro.frontend.fetch_unit import FetchUnit
from repro.frontend.policy import PolicySpec
from repro.memory.hierarchy import MemoryHierarchy
from repro.pipeline.core import CoreParams, SmtCore
from repro.program.generator import program_for
from repro.trace.context import ThreadContext


class Simulator:
    """A fully-wired SMT machine executing one workload."""

    def __init__(self, benchmarks: tuple[str, ...] | list[str],
                 engine: str | EngineKind = EngineKind.GSHARE_BTB,
                 policy: str = "ICOUNT.1.8",
                 config: SimConfig | None = None,
                 workload_name: str | None = None) -> None:
        if not benchmarks:
            raise ValueError("a workload needs at least one benchmark")
        self.config = config or DEFAULT_CONFIG
        self.workload_name = workload_name or "+".join(benchmarks)
        cfg = self.config

        self.contexts = [ThreadContext(program_for(name, cfg.seed), tid)
                         for tid, name in enumerate(benchmarks)]
        self.memory = MemoryHierarchy(
            l1i_kb=cfg.l1i_kb, l1i_assoc=cfg.l1i_assoc,
            l1d_kb=cfg.l1d_kb, l1d_assoc=cfg.l1d_assoc,
            l2_kb=cfg.l2_kb, l2_assoc=cfg.l2_assoc,
            line_bytes=cfg.line_bytes, banks=cfg.cache_banks,
            l1_latency=cfg.l1_latency, l2_latency=cfg.l2_latency,
            memory_latency=cfg.memory_latency,
            itlb_entries=cfg.itlb_entries, dtlb_entries=cfg.dtlb_entries,
            dmshr_entries=cfg.dmshr_entries)
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
        self.fetch_unit = FetchUnit(
            self.engine, self.spec, self.spec.make(len(self.contexts)),
            self.memory, self.contexts,
            icounts=[0] * len(self.contexts),
            fetch_buffer_capacity=cfg.fetch_buffer,
            ftq_depth=cfg.ftq_depth, line_bytes=cfg.line_bytes)
        params = CoreParams(
            decode_width=cfg.decode_width, issue_width=cfg.issue_width,
            commit_width=cfg.commit_width, rob_entries=cfg.rob_entries,
            iq_int=cfg.iq_int, iq_ldst=cfg.iq_ldst, iq_fp=cfg.iq_fp,
            int_regs=cfg.int_regs, fp_regs=cfg.fp_regs,
            int_units=cfg.int_units, ldst_units=cfg.ldst_units,
            fp_units=cfg.fp_units, watchdog_cycles=cfg.watchdog_cycles)
        self.core = SmtCore(self.fetch_unit, self.memory, self.contexts,
                            params)

    def run(self, cycles: int, warmup: int | None = None) -> SimResult:
        """Warm up, reset statistics, then measure ``cycles`` cycles."""
        warmup = self.config.warmup_cycles if warmup is None else warmup
        if warmup:
            self.core.run(warmup)
            self._reset_stats()
        self.core.run(cycles)
        return self.result()

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
    machine = get_backend(config.backend)(
        benchmarks, engine, policy, config, workload_name=name)
    return machine.run(cycles, warmup=warmup)
