#!/usr/bin/env python3
"""Regenerate the paper's figures/tables as Markdown or JSON.

Usage::

    python scripts/run_experiments.py [--jobs N] [--cycles C]
        [--cache-dir DIR | --no-cache] [--only fig2,fig5a,claims]
        [--format md|json] > EXPERIMENTS.md

All grid cells behind the selected sections are enumerated up front,
deduplicated, and executed in one batch through one
:class:`repro.experiments.ExperimentSession`: cache misses fan out
across ``--jobs`` worker processes, and every result lands in a
persistent content-addressed cache (``--cache-dir``, default
``.repro-cache``), so a re-run with warm cache completes in seconds
with zero simulations executed.  Results are cell-for-cell identical
to a serial run: each simulation is deterministic given (seed, config).

The document is built once, as JSON-safe data, from that batch's
results (:func:`build_document`): ``--format json`` prints it, and the
Markdown is rendered from it (:func:`render_markdown`).  Nothing after
the batch simulates.  Under ``--no-strict`` a cell that failed after
retries reads ``FAILED`` in its figures, a claims, dist or superscalar
section that needs it becomes a placeholder (``null`` in JSON, named
in ``meta.skipped_sections``), and the run exits 3.

Every run plans a **campaign** (see :mod:`repro.campaign`): the full
deduplicated grid is content-hashed into a campaign id (printed to
stderr and stamped into the output), and with a persistent cache the
campaign's manifest and durable cell queue live under
``--campaign-dir`` (default: ``<cache-dir>/campaigns``).
``--plan-only`` writes that state and prints the id without executing
(drain it with ``scripts/campaign_worker.py``); ``--resume <id>``
asserts this invocation continues that exact campaign;
``--verify-cache`` audits every cache entry up front, quarantining
corrupt ones and deleting stale ``*.tmp`` debris.
"""

import argparse
import json
import statistics
import sys
import time

from repro.core.config import DEFAULT_CONFIG
from repro.experiments import FIGURES, PAPER_CLAIMS, ExperimentSession
from repro.experiments.cli import add_runner_args, check_runner_args, \
    open_session, plan, prune_cache, run_cli
from repro.experiments.paper_data import DISTRIBUTION_CLAIMS, \
    FIG2_ANCHORS, SUPERSCALAR_CLAIMS
from repro.experiments.runner import ClaimOutcome, FigureResult, \
    claim_outcomes, figure_result, format_claims, format_figure, grid_of
from repro.obs.logging_setup import add_logging_args, setup_from_args
from repro.program import SPECINT2000, program_for
from repro.resilience import CellExecutionError
from repro.trace import dynamic_stats

PROG = "run_experiments"
SECTIONS = ("table1", "figures", "claims", "dist", "superscalar")

SUPERSCALAR_ENGINES = ("gshare+BTB", "gskew+FTB", "stream")
DIST_WORKLOAD, DIST_ENGINE = "2_MIX", "gshare+BTB"

SKIPPED = ("*(section skipped: cell(s) failed after retries — "
           "see stderr)*")
"""Markdown placeholder of a section a failed cell left unfilled."""


def fmt(x) -> str:
    """Render an optional paper anchor value for a Markdown cell."""
    return f"{x:.2f}" if x is not None else "-"


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="Regenerate every figure/table of the paper.")
    add_runner_args(parser, strict=True)
    parser.add_argument("--only", default=None,
                        help="comma-separated subset to regenerate: "
                             "figure ids (fig2,fig5a,...) and/or section "
                             f"names ({','.join(SECTIONS)})")
    parser.add_argument("--format", dest="fmt", choices=("md", "json"),
                        default="md", help="output format (default: md)")
    add_logging_args(parser)
    return check_runner_args(parser, parser.parse_args(argv))


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


def section_cells(session: ExperimentSession, sections: set,
                  fig_ids: set) -> dict[str, list]:
    """Every simulation cell each selected section reads."""
    cells = {}
    if "figures" in sections:
        cells["figures"] = [cell for fig_id in fig_ids
                            for cell in session.cells_for_figure(
                                FIGURES[fig_id])]
    if "claims" in sections:
        cells["claims"] = session.cells_for_claims(PAPER_CLAIMS)
    if "dist" in sections:
        cells["dist"] = [session.make_cell(DIST_WORKLOAD, DIST_ENGINE,
                                           policy)
                         for policy in DISTRIBUTION_CLAIMS]
    if "superscalar" in sections:
        cells["superscalar"] = [
            session.make_cell((name,), engine, "ICOUNT.1.8")
            for engine in SUPERSCALAR_ENGINES
            for name in sorted(SPECINT2000)]
    return cells


def table1_rows() -> list[dict]:
    rows = []
    for name in sorted(SPECINT2000):
        profile = SPECINT2000[name]
        stats = dynamic_stats(program_for(name, DEFAULT_CONFIG.seed),
                              50_000)
        rows.append({"benchmark": name,
                     "avg_bb_paper": profile.avg_bb_size,
                     "avg_bb_measured": stats.avg_block_size,
                     "avg_stream_length": stats.avg_stream_length})
    return rows


def claims_rows(grid) -> list[dict]:
    return [{"claim_id": o.claim.claim_id,
             "paper_ratio": o.claim.paper_ratio,
             "measured_ratio": o.measured_ratio,
             "holds": o.holds, "direction_holds": o.direction_holds}
            for o in claim_outcomes(PAPER_CLAIMS, grid)]


def distribution_rows(grid) -> list[dict]:
    return [{"policy": policy,
             "paper": {str(n): v for n, v in paper.items()},
             "measured": {str(n): v for n, v in grid[
                 (DIST_WORKLOAD, DIST_ENGINE, policy)]
                 .delivered_at_least.items()}}
            for policy, paper in DISTRIBUTION_CLAIMS.items()]


def superscalar_table(grid) -> dict:
    ipc = {engine: statistics.mean(
        grid[((name,), engine, "ICOUNT.1.8")].ipc
        for name in sorted(SPECINT2000))
        for engine in SUPERSCALAR_ENGINES}
    return {"ipc": ipc,
            "paper_speedup": dict(SUPERSCALAR_CLAIMS),
            "measured_speedup": {engine: ipc[engine] / ipc["gshare+BTB"]
                                 for engine in SUPERSCALAR_ENGINES}}


WHOLE_SECTIONS = {"claims": ("claims", claims_rows),
                  "dist": ("distributions", distribution_rows),
                  "superscalar": ("superscalar", superscalar_table)}
"""Sections that need every one of their cells: section name ->
(document key, builder over the measured grid)."""


def build_document(sections: set, fig_ids: set, cycles: int, campaign,
                   cells: dict[str, list], results: dict) \
        -> tuple[dict, list[str]]:
    """The paper document, as JSON-safe data, from one batch's results.

    ``cells`` is :func:`section_cells`' map, ``campaign`` the batch's
    plan (``None`` when no section simulates) and ``results`` the map
    its execution returned.  A cell absent from ``results``
    failed after retries: a figure keeps its other cells, and each
    section of :data:`WHOLE_SECTIONS` that reads it is ``None``.
    Returns the document and the names of those skipped sections.
    """
    grid = grid_of(results)
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
            result = figure_result(spec, cycles, grid)
            doc["figures"][fig_id] = {
                "title": spec.title, "metric": spec.metric,
                "values": [{"workload": w, "engine": e, "policy": p,
                            "value": v}
                           for (w, e, p), v in result.values.items()]}
    skipped = []
    for name, (key, build) in WHOLE_SECTIONS.items():
        if name not in sections:
            continue
        if all(cell in results for cell in cells[name]):
            doc[key] = build(grid)
        else:
            doc[key] = None
            skipped.append(name)
    return doc, skipped


PREAMBLE = """\
Absolute numbers are not expected to match the paper (the
substrate is a synthetic-workload simulator, not the authors'
Alpha SPECint2000 traces); the *shape* — who wins, by roughly
what factor, where the crossovers fall — is the reproduction
target. See DESIGN.md for the substitution list.
"""

CLAIMS_LEGEND = """\
## Quantitative claims (paper ratio vs measured ratio)

`holds` = within the claim tolerance; `dir` = direction of the
effect matches but the magnitude differs; `NO` = shape broken.
"""

DIST_LEGEND = """\
## Sections 3.1/3.2 — instructions-per-fetch-cycle distribution

Share of fetch cycles delivering at least N instructions,
gshare+BTB on gzip-twolf (2_MIX):
"""


def render_markdown(doc: dict) -> str:
    """The Markdown view of a :func:`build_document` document."""
    cycles = doc["cycles"]
    out = ["# EXPERIMENTS — paper vs. measured",
           "",
           f"Regenerated by `python scripts/run_experiments.py "
           f"--cycles {cycles}`.",
           f"Measured window: {cycles} cycles per grid cell "
           "(Table 3 configuration, warm-up excluded)."]
    if doc["provenance"] is not None:
        # Content-derived provenance: the id hashes the planned cell
        # set, so warm and cold regenerations stamp the same line.
        out.append(f"Campaign `{doc['provenance']['campaign']}` "
                   f"({doc['provenance']['cells']} distinct cells).")
    out += ["", PREAMBLE]

    if "table1" in doc:
        out += ["## Table 1 — benchmark characteristics", "",
                "| benchmark | avg BB (paper) | avg BB (measured) | "
                "avg stream length |",
                "|---|---|---|---|"]
        out += [f"| {row['benchmark']} | {row['avg_bb_paper']:.2f} | "
                f"{row['avg_bb_measured']:.2f} | "
                f"{row['avg_stream_length']:.2f} |"
                for row in doc["table1"]]
        out.append("")

    for fig_id, fig in doc.get("figures", {}).items():
        values = {(v["workload"], v["engine"], v["policy"]): v["value"]
                  for v in fig["values"]}
        table = format_figure(FigureResult(FIGURES[fig_id], cycles, values))
        out += [f"## {fig_id} — {fig['title']}", "", "```", table, "```"]
        if fig_id == "fig2":
            out += ["", f"Paper anchors (read off the figure): "
                        f"{FIG2_ANCHORS}"]
        out.append("")

    if "claims" in doc:
        out.append(CLAIMS_LEGEND)
        if doc["claims"] is None:
            out.append(SKIPPED)
        else:
            outcomes = [ClaimOutcome(claim, row["measured_ratio"])
                        for claim, row in zip(PAPER_CLAIMS, doc["claims"])]
            out += ["```", format_claims(outcomes), "```"]
        out.append("")

    if "distributions" in doc:
        out.append(DIST_LEGEND)
        if doc["distributions"] is None:
            out.append(SKIPPED)
        else:
            out += ["| policy | >=4 paper | >=4 meas | >=8 paper | "
                    ">=8 meas | >=16 paper | >=16 meas |",
                    "|---|---|---|---|---|---|---|"]
            for row in doc["distributions"]:
                paper, meas = row["paper"], row["measured"]
                out.append(f"| {row['policy']} | {fmt(paper.get('4'))} | "
                           f"{meas['4']:.2f} | "
                           f"{fmt(paper.get('8'))} | {meas['8']:.2f} | "
                           f"{fmt(paper.get('16'))} | {meas['16']:.2f} |")
        out.append("")

    if "superscalar" in doc:
        out += ["## Section 3.3 — superscalar (single-thread) engine "
                "comparison", ""]
        table = doc["superscalar"]
        if table is None:
            out.append(SKIPPED)
        else:
            out += ["| engine | paper speedup vs gshare+BTB | measured |",
                    "|---|---|---|",
                    f"| gshare+BTB | — | IPC "
                    f"{table['ipc']['gshare+BTB']:.2f} |"]
            out += [f"| {engine} | {paper - 1:+.1%} | "
                    f"{table['measured_speedup'][engine] - 1:+.1%} |"
                    for engine, paper in table["paper_speedup"].items()]
        out.append("")
    return "\n".join(out)


def run(args) -> None:
    sections, fig_ids = select(args.only)
    session = open_session(args, PROG, warmup=args.warmup)

    t0 = time.time()
    # One up-front batch: every cell the selected sections will read,
    # deduplicated and drained by the campaign's workers.  The
    # document is built from its result map alone.
    cells = section_cells(session, sections, fig_ids)
    batch = [cell for section in cells.values() for cell in section]
    campaign = None
    results: dict = {}
    if batch:
        campaign = plan(session, batch, args, PROG)
        if campaign is None:
            return
        try:
            results = session.execute(campaign)
        except CellExecutionError as exc:
            raise SystemExit(
                f"run_experiments: {exc}\n(use --no-strict to emit the "
                "surviving sections, --retries/--cell-timeout to "
                "recover flaky cells)") from None
        for failure in session.last_failures:
            print(f"[run_experiments] {failure}", file=sys.stderr)
        print(f"[run_experiments] {session.summary()} "
              f"({time.time() - t0:.0f} s, jobs={args.jobs})",
              file=sys.stderr)
    elif args.plan_only:
        raise SystemExit("run_experiments: --plan-only selected no "
                         "simulation cells (--only table1 has nothing "
                         "to plan)")

    doc, skipped = build_document(sections, fig_ids, args.cycles,
                                  campaign, cells, results)
    for name in skipped:
        print(f"[run_experiments] section {name!r} skipped: it reads "
              "a failed cell", file=sys.stderr)
    if args.fmt == "json":
        doc["meta"] = {"seconds": round(time.time() - t0, 1),
                       "simulated": session.simulated,
                       "disk_hits": session.disk_hits,
                       "failed_cells": len(session.failures),
                       "skipped_sections": skipped}
        json.dump(doc, sys.stdout, indent=2)
        print()
    else:
        print(render_markdown(doc))
        print(f"_Total regeneration time: {time.time() - t0:.0f} s "
              f"({session.summary()})._")
    prune_cache(session, args, PROG)

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
