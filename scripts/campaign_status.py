#!/usr/bin/env python3
"""Observe a campaign: live status or post-mortem report.

Two modes over one campaign directory, both read-only (safe to run
against a campaign that external workers are draining right now):

* **status** (default) — queue depth by state, per-worker throughput,
  completion rate and an ETA for the remaining cells.  The question it
  answers: *is this campaign moving, and when will it finish?*  Each
  worker shows how long ago its last journal event was, and a worker
  holding a lease past its deadline is flagged ``(STALE)``.
* **--report** — the post-mortem: slowest cells with their queue-wait /
  execute / cache-put breakdown, retry culprits with their last error,
  fault attribution (timeouts, expired leases, worker crashes,
  quarantined cache entries with the reason inline), per-worker
  totals and any drift between the queue's ``done`` rows and the
  journal's acks (printed only when there is some).

Both read the queue database (authoritative state) and the event
journal ``events.jsonl`` (authoritative narrative); a campaign
directory without a journal still reports queue counts.

An orphaned lease (a row still leased past its deadline) needs no
repair tool: status flags its owner ``(STALE)``, and the next worker
or ``--resume`` to lease from the queue settles it as
``lease_expired``.

Usage::

    python scripts/campaign_status.py --campaign .repro-cache/campaigns/<id>
    python scripts/campaign_status.py --campaign ... --report --json

Exit status: 0 on success, 2 when the campaign directory or its queue
does not exist or its journal is corrupt before its last line.
"""

import argparse
import json
import sys

from repro.obs.logging_setup import add_logging_args, setup_from_args
from repro.obs.status import campaign_report, live_status


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="Show live status or a post-mortem report for one "
                    "campaign directory.")
    parser.add_argument("--campaign", required=True, metavar="DIR",
                        help="campaign directory (holds queue.sqlite "
                             "and events.jsonl)")
    parser.add_argument("--report", action="store_true",
                        help="post-mortem report (slowest cells, retry "
                             "culprits, fault attribution) instead of "
                             "live status")
    parser.add_argument("--json", action="store_true",
                        help="emit the raw JSON document instead of the "
                             "human summary")
    add_logging_args(parser)
    return parser.parse_args(argv)


def _fmt_duration(seconds) -> str:
    if seconds is None:
        return "-"
    if seconds < 60:
        return f"{seconds:.1f}s"
    if seconds < 3600:
        return f"{seconds / 60:.1f}m"
    return f"{seconds / 3600:.1f}h"


def print_status(doc: dict) -> None:
    counts = " ".join(f"{state}={n}"
                      for state, n in sorted(doc["counts"].items()))
    progress = f"{doc['progress'] * 100:.0f}%" \
        if doc["progress"] is not None else "-"
    rate = f"{doc['cells_per_sec']:.2f} cells/s" \
        if doc["cells_per_sec"] else "-"
    print(f"campaign {doc['campaign'] or '?'}  [{doc['dir']}]")
    print(f"  queue:    {counts}")
    print(f"  progress: {doc['done']}/{doc['total']} ({progress}), "
          f"{doc['remaining']} remaining")
    print(f"  rate:     {rate}, eta "
          f"{_fmt_duration(doc['eta_seconds'])}")
    print(f"  workers:  {doc['active_workers']} active, "
          f"{len(doc['workers'])} seen, "
          f"{doc['journal_events']} journal event(s)")
    for wid, rec in sorted(doc["workers"].items()):
        state = "running" if rec["running"] else (
            f"exit {rec['exitcode']}" if rec["exitcode"] is not None
            else "done")
        wrate = f"{rec['cells_per_sec']:.2f}/s" \
            if rec["cells_per_sec"] else "-"
        seen = doc["last_seen"].get(wid)
        pulse = "" if seen is None else \
            f", last seen {_fmt_duration(seen)} ago"
        stale = " (STALE)" if wid in doc["stale_workers"] else ""
        print(f"    {wid}: {rec['executed']} executed, "
              f"{rec['failed_attempts']} failed attempt(s), "
              f"{wrate} [{state}]{pulse}{stale}")
    for wid in doc["stale_workers"]:
        if wid not in doc["workers"]:
            print(f"    {wid}: no journal events (STALE)")
    if doc["counts"].get("poisoned"):
        print(f"  POISONED: {doc['counts']['poisoned']} cell(s) "
              f"settled as worker-fatal; see --report")


def print_report(doc: dict) -> None:
    counts = " ".join(f"{state}={n}"
                      for state, n in sorted(doc["counts"].items()))
    print(f"campaign {doc['campaign'] or '?'}  [{doc['dir']}]")
    print(f"  queue:    {counts}")
    print(f"  activity: {doc['attempts']} attempt(s), "
          f"{doc['retries']} retried, {doc['timeouts']} timeout(s), "
          f"{doc['lease_expirations']} expired lease(s), "
          f"{doc['releases']} release(s)")
    if doc["poisoned_cells"]:
        print("  poisoned cells (worker-fatal, will not be retried):")
        for p in doc["poisoned_cells"]:
            print(f"    {p['label'] or p['key']}: "
                  f"{p['fatal_attempts']} fatal attempt(s), "
                  f"{p['error']}")
    if doc["worker_crashes"]:
        print("  crashes:")
        for crash in doc["worker_crashes"]:
            print(f"    {crash['worker']}: exit code "
                  f"{crash['exitcode']}")
    if doc["quarantines"]:
        print("  quarantines:")
        for q in doc["quarantines"]:
            print(f"    {q['key']}: {q['reason']}")
    if doc["slowest_cells"]:
        print("  slowest cells (execute / cache-put / queue-wait):")
        for rec in doc["slowest_cells"]:
            print(f"    {rec['label'] or rec['key']}: "
                  f"{_fmt_duration(rec['execute_seconds'])} / "
                  f"{_fmt_duration(rec['cache_put_seconds'])} / "
                  f"{_fmt_duration(rec['queue_wait_seconds'])}")
    if doc["retry_culprits"]:
        print("  retry culprits:")
        for rec in doc["retry_culprits"]:
            print(f"    {rec['label'] or rec['key']}: "
                  f"{rec['attempts']} attempt(s), "
                  f"last error: {rec['last_error']}")
    drift = doc["drift"]
    if drift["done_without_ack"] or drift["acked_not_done"]:
        print("  drift (queue vs journal; the queue is authoritative):")
        for key in drift["done_without_ack"]:
            print(f"    {key}: done in the queue, no ack in the journal")
        for key in drift["acked_not_done"]:
            print(f"    {key}: acked in the journal, not done in the "
                  "queue")


def main(argv=None) -> int:
    args = parse_args(argv)
    setup_from_args(args)
    try:
        if args.report:
            doc = campaign_report(args.campaign)
        else:
            doc = live_status(args.campaign)
    except (FileNotFoundError, ValueError) as exc:
        print(f"campaign_status: {exc}", file=sys.stderr)
        return 2
    if args.json:
        json.dump(doc, sys.stdout, indent=2, sort_keys=True)
        print()
    elif args.report:
        print_report(doc)
    else:
        print_status(doc)
    return 0


if __name__ == "__main__":
    sys.exit(main())
