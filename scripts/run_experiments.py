#!/usr/bin/env python3
"""Regenerate the paper's figures/tables as Markdown or JSON.

Usage::

    python scripts/run_experiments.py [--jobs N] [--cycles C]
        [--cache-dir DIR | --no-cache] [--only fig2,fig5a,claims]
        [--format md|json] > EXPERIMENTS.md

All grid cells behind the selected sections are enumerated up front,
deduplicated, and executed through one
:class:`repro.experiments.ExperimentSession`: cache misses fan out
across ``--jobs`` worker processes, and every result lands in a
persistent content-addressed cache (``--cache-dir``, default
``.repro-cache``), so a re-run with warm cache completes in seconds
with zero simulations executed.  Results are cell-for-cell identical
to a serial run: each simulation is deterministic given (seed, config).

Every run plans a **campaign** (see :mod:`repro.campaign`): the full
deduplicated grid is content-hashed into a campaign id (printed to
stderr and stamped into the output), and with a persistent cache the
campaign's manifest and durable cell queue live under
``--campaign-dir`` (default: ``<cache-dir>/campaigns``).
``--plan-only`` writes that state and prints the id without executing
(drain it with ``scripts/campaign_worker.py``); ``--resume <id>``
asserts this invocation continues that exact campaign;
``--verify-cache`` audits every cache entry up front, quarantining
corrupt ones.

A bare integer positional argument is still accepted as the cycle
count for backward compatibility with the old
``run_experiments.py [cycles]`` form.
"""

import argparse
import json
import statistics
import sys
import time

from repro.experiments import FIGURES, PAPER_CLAIMS, ExperimentSession, \
    format_claims, format_figure
from repro.experiments.cli import add_runner_args, check_runner_args, \
    close_session, open_session, plan, run_cli
from repro.obs.logging_setup import add_logging_args, setup_from_args
from repro.resilience import CellExecutionError
from repro.experiments.paper_data import DISTRIBUTION_CLAIMS, \
    FIG2_ANCHORS, SUPERSCALAR_CLAIMS
from repro.program import SPECINT2000, program_for
from repro.trace import dynamic_stats

PROG = "run_experiments"
SECTIONS = ("table1", "figures", "claims", "dist", "superscalar")

SUPERSCALAR_ENGINES = ("gshare+BTB", "gskew+FTB", "stream")
DIST_WORKLOAD, DIST_ENGINE = "2_MIX", "gshare+BTB"


def fmt(x) -> str:
    """Render an optional paper anchor value for a Markdown cell."""
    return f"{x:.2f}" if x is not None else "-"


def skip_section(name: str, exc: Exception) -> None:
    """Partial-results mode: mark a section its failed cells killed.

    The document gets an explicit placeholder (a reader must see the
    hole, not a silently absent table) and stderr gets the cause.
    """
    print(f"*(section skipped: cell(s) failed after retries — "
          f"see stderr)*")
    print(f"[run_experiments] section {name!r} skipped: {exc}",
          file=sys.stderr)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="Regenerate every figure/table of the paper.")
    parser.add_argument("legacy_cycles", nargs="?", type=int, default=None,
                        metavar="cycles",
                        help="positional cycle count (legacy form; "
                             "--cycles takes precedence)")
    add_runner_args(parser, strict=True)
    parser.add_argument("--only", default=None,
                        help="comma-separated subset to regenerate: "
                             "figure ids (fig2,fig5a,...) and/or section "
                             f"names ({','.join(SECTIONS)})")
    parser.add_argument("--format", dest="fmt", choices=("md", "json"),
                        default="md", help="output format (default: md)")
    add_logging_args(parser)
    args = parser.parse_args(argv)
    if args.cycles is None:
        args.cycles = args.legacy_cycles
    return check_runner_args(parser, args)


def select(only: str | None) -> tuple[set, set]:
    """Resolve ``--only`` into (sections, figure ids) to regenerate."""
    if only is None:
        return set(SECTIONS), set(FIGURES)
    sections, fig_ids = set(), set()
    for token in only.split(","):
        token = token.strip()
        if not token:
            continue
        if token in SECTIONS:
            sections.add(token)
            if token == "figures":
                fig_ids.update(FIGURES)
        elif token in FIGURES:
            sections.add("figures")
            fig_ids.add(token)
        else:
            raise SystemExit(
                f"unknown --only token {token!r}; expected a figure id "
                f"({', '.join(FIGURES)}) or a section "
                f"({', '.join(SECTIONS)})")
    return sections, fig_ids


def enumerate_cells(session: ExperimentSession, sections: set,
                    fig_ids: set) -> list:
    """Every simulation cell the selected sections will read."""
    cells = []
    if "figures" in sections:
        for fig_id in fig_ids:
            cells.extend(session.cells_for_figure(FIGURES[fig_id]))
    if "claims" in sections:
        cells.extend(session.cells_for_claims(PAPER_CLAIMS))
    if "dist" in sections:
        cells.extend(session.make_cell(DIST_WORKLOAD, DIST_ENGINE, policy)
                     for policy in DISTRIBUTION_CLAIMS)
    if "superscalar" in sections:
        cells.extend(session.make_cell((name,), engine, "ICOUNT.1.8")
                     for engine in SUPERSCALAR_ENGINES
                     for name in sorted(SPECINT2000))
    return cells


def table1_rows() -> list[dict]:
    rows = []
    for name in sorted(SPECINT2000):
        profile = SPECINT2000[name]
        stats = dynamic_stats(program_for(name), 50_000)
        rows.append({"benchmark": name,
                     "avg_bb_paper": profile.avg_bb_size,
                     "avg_bb_measured": stats.avg_block_size,
                     "avg_stream_length": stats.avg_stream_length})
    return rows


def superscalar_ipc(session: ExperimentSession) -> dict[str, float]:
    return {engine: statistics.mean(
        session.measure((name,), engine, "ICOUNT.1.8").ipc
        for name in sorted(SPECINT2000))
        for engine in SUPERSCALAR_ENGINES}


def emit_markdown(session: ExperimentSession, sections: set, fig_ids: set,
                  cycles: int, t0: float, campaign=None) -> None:
    print("# EXPERIMENTS — paper vs. measured")
    print()
    print("Regenerated by `python scripts/run_experiments.py "
          f"--cycles {cycles}`.")
    print(f"Measured window: {cycles} cycles per grid cell "
          "(Table 3 configuration, warm-up excluded).")
    if campaign is not None:
        # Content-derived provenance: the id hashes the planned cell
        # set, so warm and cold regenerations stamp the same line.
        print(f"Campaign `{campaign.campaign_id}` "
              f"({campaign.cells} distinct cells).")
    print()
    print("Absolute numbers are not expected to match the paper (the")
    print("substrate is a synthetic-workload simulator, not the authors'")
    print("Alpha SPECint2000 traces); the *shape* — who wins, by roughly")
    print("what factor, where the crossovers fall — is the reproduction")
    print("target. See DESIGN.md for the substitution list.")
    print()

    if "table1" in sections:
        print("## Table 1 — benchmark characteristics")
        print()
        print("| benchmark | avg BB (paper) | avg BB (measured) | "
              "avg stream length |")
        print("|---|---|---|---|")
        for row in table1_rows():
            print(f"| {row['benchmark']} | {row['avg_bb_paper']:.2f} | "
                  f"{row['avg_bb_measured']:.2f} | "
                  f"{row['avg_stream_length']:.2f} |")
        print()

    if "figures" in sections:
        for fig_id, spec in FIGURES.items():
            if fig_id not in fig_ids:
                continue
            result = session.run_figure(spec)
            print(f"## {fig_id} — {spec.title}")
            print()
            print("```")
            print(format_figure(result))
            print("```")
            if fig_id == "fig2":
                print()
                print(f"Paper anchors (read off the figure): "
                      f"{FIG2_ANCHORS}")
            print()

    if "claims" in sections:
        print("## Quantitative claims (paper ratio vs measured ratio)")
        print()
        print("`holds` = within the claim tolerance; `dir` = direction "
              "of the")
        print("effect matches but the magnitude differs; `NO` = shape "
              "broken.")
        print()
        try:
            claims = format_claims(session.check_claims(PAPER_CLAIMS))
        except CellExecutionError as exc:
            skip_section("claims", exc)
        else:
            print("```")
            print(claims)
            print("```")
        print()

    if "dist" in sections:
        print("## Sections 3.1/3.2 — instructions-per-fetch-cycle "
              "distribution")
        print()
        print("Share of fetch cycles delivering at least N instructions,")
        print("gshare+BTB on gzip-twolf (2_MIX):")
        print()
        try:
            dist = {policy: session.measure(DIST_WORKLOAD, DIST_ENGINE,
                                            policy).delivered_at_least
                    for policy in DISTRIBUTION_CLAIMS}
        except CellExecutionError as exc:
            skip_section("dist", exc)
        else:
            print("| policy | >=4 paper | >=4 meas | >=8 paper | "
                  ">=8 meas | >=16 paper | >=16 meas |")
            print("|---|---|---|---|---|---|---|")
            for policy, paper in DISTRIBUTION_CLAIMS.items():
                meas = dist[policy]
                print(f"| {policy} | {fmt(paper.get(4))} | "
                      f"{meas[4]:.2f} | "
                      f"{fmt(paper.get(8))} | {meas[8]:.2f} | "
                      f"{fmt(paper.get(16))} | {meas[16]:.2f} |")
        print()

    if "superscalar" in sections:
        print("## Section 3.3 — superscalar (single-thread) engine "
              "comparison")
        print()
        try:
            ipc = superscalar_ipc(session)
        except CellExecutionError as exc:
            skip_section("superscalar", exc)
        else:
            base = ipc["gshare+BTB"]
            print("| engine | paper speedup vs gshare+BTB | measured |")
            print("|---|---|---|")
            print(f"| gshare+BTB | — | IPC {base:.2f} |")
            for engine, paper in SUPERSCALAR_CLAIMS.items():
                print(f"| {engine} | {paper - 1:+.1%} | "
                      f"{ipc[engine] / base - 1:+.1%} |")
        print()

    print(f"_Total regeneration time: {time.time() - t0:.0f} s "
          f"({session.summary()})._")


def emit_json(session: ExperimentSession, sections: set, fig_ids: set,
              cycles: int, t0: float, campaign=None) -> None:
    doc: dict = {"cycles": cycles,
                 "provenance": campaign.as_dict()
                 if campaign is not None else None}
    if "table1" in sections:
        doc["table1"] = table1_rows()
    if "figures" in sections:
        doc["figures"] = {}
        for fig_id, spec in FIGURES.items():
            if fig_id not in fig_ids:
                continue
            result = session.run_figure(spec)
            doc["figures"][fig_id] = {
                "title": spec.title, "metric": spec.metric,
                "values": [{"workload": w, "engine": e, "policy": p,
                            "value": v}
                           for (w, e, p), v in result.values.items()]}
    skipped = []
    if "claims" in sections:
        try:
            doc["claims"] = [
                {"claim_id": o.claim.claim_id,
                 "paper_ratio": o.claim.paper_ratio,
                 "measured_ratio": o.measured_ratio,
                 "holds": o.holds, "direction_holds": o.direction_holds}
                for o in session.check_claims(PAPER_CLAIMS)]
        except CellExecutionError as exc:
            doc["claims"] = None
            skipped.append("claims")
            print(f"[run_experiments] section 'claims' skipped: {exc}",
                  file=sys.stderr)
    if "dist" in sections:
        try:
            doc["distributions"] = [
                {"policy": policy, "paper": {str(n): v for n, v
                                             in paper.items()},
                 "measured": {str(n): v for n, v in session.measure(
                     DIST_WORKLOAD, DIST_ENGINE,
                     policy).delivered_at_least.items()}}
                for policy, paper in DISTRIBUTION_CLAIMS.items()]
        except CellExecutionError as exc:
            doc["distributions"] = None
            skipped.append("dist")
            print(f"[run_experiments] section 'dist' skipped: {exc}",
                  file=sys.stderr)
    if "superscalar" in sections:
        try:
            ipc = superscalar_ipc(session)
        except CellExecutionError as exc:
            doc["superscalar"] = None
            skipped.append("superscalar")
            print(f"[run_experiments] section 'superscalar' skipped: "
                  f"{exc}", file=sys.stderr)
        else:
            doc["superscalar"] = {
                "ipc": ipc,
                "paper_speedup": dict(SUPERSCALAR_CLAIMS),
                "measured_speedup": {engine: ipc[engine]
                                     / ipc["gshare+BTB"]
                                     for engine in SUPERSCALAR_ENGINES}}
    doc["meta"] = {"seconds": round(time.time() - t0, 1),
                   "simulated": session.simulated,
                   "disk_hits": session.disk_hits,
                   "failed_cells": len(session.failures),
                   "skipped_sections": skipped}
    json.dump(doc, sys.stdout, indent=2)
    print()


def run(args) -> None:
    sections, fig_ids = select(args.only)
    session = open_session(args, PROG, warmup=args.warmup)

    t0 = time.time()
    # One up-front batch: every cell the selected sections will read,
    # deduplicated and fanned out across the worker pool.  The section
    # emitters below then run entirely against warm memoisation.
    cells = enumerate_cells(session, sections, fig_ids)
    campaign = None
    if cells:
        campaign = plan(session, cells, args, PROG)
        if campaign is None:
            return
        try:
            session.run_cells(cells)
        except CellExecutionError as exc:
            raise SystemExit(
                f"run_experiments: {exc}\n(use --no-strict to emit the "
                "surviving sections, --retries/--cell-timeout to "
                "recover flaky cells)") from None
        print(f"[run_experiments] {session.summary()} "
              f"({time.time() - t0:.0f} s, jobs={args.jobs})",
              file=sys.stderr)
    elif args.plan_only:
        raise SystemExit("run_experiments: --plan-only selected no "
                         "simulation cells (--only table1 has nothing "
                         "to plan)")

    if args.fmt == "json":
        emit_json(session, sections, fig_ids, args.cycles, t0, campaign)
    else:
        emit_markdown(session, sections, fig_ids, args.cycles, t0,
                      campaign)
    close_session(session, args, PROG)

    if session.failures:
        # Partial-results mode: the surviving sections were emitted,
        # but the run must not look healthy to scripts and CI.
        print(f"[run_experiments] WARNING: {len(session.failures)} "
              "cell(s) failed after retries; output is partial",
              file=sys.stderr)
        raise SystemExit(3)


def main(argv=None) -> None:
    args = parse_args(argv)
    setup_from_args(args)
    run_cli(run, args, PROG)


if __name__ == "__main__":
    main()
