#!/usr/bin/env python3
"""Audit (and optionally repair) one campaign directory.

The fleet-health counterpart to ``campaign_status.py``: where status
*describes* a campaign, the doctor *judges* it.  It walks the durable
artifacts — queue database, event journal, campaign directory, result
cache — looking for the debris that crashes and kill -9 leave behind,
and with ``--repair`` puts every fixable finding right:

* **orphan leases** — rows still ``leased`` past their deadline: their
  owner stopped acking, so the queue presumes it dead (the same rule
  ``CellQueue.lease`` applies).  Repair: ``CellQueue.reclaim``, which
  requeues or settles them under the normal retry budget.
* **stale temp files** — ``*.tmp`` debris from writers killed between
  ``mkstemp`` and ``rename``, anywhere under the campaign directory
  and the cache tree (each file reported once, even where one tree
  holds the other).  Repair: delete (atomic-rename protocol makes
  every ``.tmp`` file garbage by construction once it is old).
* **corrupt cache entries** — via ``ResultCache.verify`` (requires
  ``--cache-dir``).  Repair: quarantine, so the next resume
  re-simulates instead of crash-looping.
* **queue/journal drift** — cells ``done`` in the queue without an
  ``ack`` in the journal, or acked in the journal but not done in the
  queue.  Report-only: the queue is authoritative and drift is
  evidence (a torn journal, a foreign writer), not damage the doctor
  should paper over.

Usage::

    python scripts/campaign_doctor.py --campaign DIR [--cache-dir DIR]
    python scripts/campaign_doctor.py --campaign DIR --repair --json

Exit status: 0 when the campaign is clean (or every finding was
repaired), 1 when findings remain, 2 when the campaign directory or
its queue does not exist.
"""

import argparse
import json
import os
import sys
import time
from pathlib import Path

from repro.campaign.manifest import MANIFEST_NAME, QUEUE_NAME, \
    read_campaign_id
from repro.campaign.queue import CellQueue
from repro.experiments.cache import ResultCache
from repro.obs.journal import journal_path, open_journal, read_events
from repro.obs.logging_setup import add_logging_args, setup_from_args
from repro.obs.status import connect_read_only, expired_leases

DEFAULT_TMP_AGE_SECONDS = 900.0
"""A ``.tmp`` file older than this is debris, not a write in flight."""


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="Audit a campaign directory for crash debris; "
                    "--repair fixes what can be fixed.")
    parser.add_argument("--campaign", required=True, metavar="DIR",
                        help="campaign directory (holds "
                             f"{MANIFEST_NAME} and {QUEUE_NAME})")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="result cache to verify and sweep for "
                             "temp debris (default: skip cache checks)")
    parser.add_argument("--repair", action="store_true",
                        help="fix repairable findings instead of only "
                             "reporting them")
    parser.add_argument("--tmp-age", type=float,
                        default=DEFAULT_TMP_AGE_SECONDS,
                        metavar="SECONDS",
                        help="minimum age before a .tmp file counts as "
                             "debris (default: "
                             f"{DEFAULT_TMP_AGE_SECONDS:g})")
    parser.add_argument("--json", action="store_true",
                        help="emit the raw JSON document instead of "
                             "the human summary")
    add_logging_args(parser)
    args = parser.parse_args(argv)
    if args.tmp_age < 0:
        parser.error(f"--tmp-age must be >= 0, got {args.tmp_age}")
    return args


def finding(check: str, detail: str, *, repairable: bool = True,
            repaired: bool = False, **extra) -> dict:
    return {"check": check, "detail": detail,
            "repairable": repairable, "repaired": repaired, **extra}


def check_orphan_leases(queue_file: str, now: float) -> list[dict]:
    """Leased rows a live fleet would already have reclaimed."""
    return [finding("orphan_lease",
                    f"cell {row['key']} leased by {row['lease_owner']} "
                    "past its deadline (owner stopped acking)",
                    key=row["key"], owner=row["lease_owner"])
            for row in expired_leases(queue_file, now)]


def repair_orphan_leases(queue_file: str, campaign_dir: str,
                         cid: str | None, now: float) -> int:
    """One reclaim sweep, journaled under the ``doctor`` worker id."""
    journal = open_journal(campaign_dir, campaign_id=cid,
                           worker_id="doctor")
    try:
        queue = CellQueue(queue_file, journal=journal)
        try:
            return queue.reclaim(now)
        finally:
            queue.close()
    finally:
        journal.close()


def check_stale_tmp(roots: list[Path], min_age: float, now: float,
                    repair: bool) -> list[dict]:
    """``.tmp`` debris older than ``min_age`` under any root, each
    file once even where one root contains another."""
    findings = []
    paths = {tmp.resolve() for root in roots if root.is_dir()
             for tmp in root.rglob("*.tmp")}
    for tmp in sorted(paths):
        try:
            age = now - tmp.stat().st_mtime
        except OSError:
            continue
        if age < min_age:
            continue
        f = finding("stale_tmp",
                    f"temp file {tmp} is {age:.0f} s old "
                    "(writer died mid-rename)", path=str(tmp))
        if repair:
            try:
                tmp.unlink()
                f["repaired"] = True
            except OSError:
                pass
        findings.append(f)
    return findings


def check_cache(cache_dir: str, repair: bool) -> list[dict]:
    """Corrupt cache entries via :meth:`ResultCache.verify`."""
    report = ResultCache(cache_dir).verify(repair=repair)
    return [finding("corrupt_cache_entry",
                    f"cache entry {c['key']}: {c['reason']}",
                    key=c["key"], repaired=repair)
            for c in report["corrupt"]]


def check_journal_drift(queue_file: str,
                        campaign_dir: str) -> list[dict]:
    """Queue state vs journal narrative (report-only)."""
    path = journal_path(campaign_dir)
    if not path.exists():
        return []
    try:
        events = read_events(path)
    except ValueError as exc:
        return [finding("journal_drift", f"unreadable journal: {exc}",
                        repairable=False)]
    acked = {ev.get("key") for ev in events if ev.get("ev") == "ack"}
    if not acked:
        # A journal with zero acks means results flowed through a
        # journal-less writer; absence proves nothing.
        return []
    conn = connect_read_only(queue_file)
    try:
        done = {row["key"] for row in conn.execute(
            "SELECT key FROM cells WHERE state = 'done'")}
    finally:
        conn.close()
    findings = []
    for key in sorted(done - acked):
        findings.append(finding(
            "journal_drift",
            f"cell {key} is done in the queue but has no ack in the "
            "journal", repairable=False, key=key))
    for key in sorted(acked - done):
        findings.append(finding(
            "journal_drift",
            f"cell {key} was acked in the journal but is not done in "
            "the queue", repairable=False, key=key))
    return findings


def diagnose(campaign_dir: str, *, cache_dir: str | None = None,
             repair: bool = False,
             tmp_age: float = DEFAULT_TMP_AGE_SECONDS,
             now: float | None = None) -> dict:
    """Run every check; returns the JSON-safe findings document."""
    now = time.time() if now is None else now
    queue_file = os.path.join(campaign_dir, QUEUE_NAME)
    if not os.path.exists(queue_file):
        raise FileNotFoundError(f"no queue at {queue_file}")
    cid = read_campaign_id(campaign_dir)

    findings = check_orphan_leases(queue_file, now)
    if repair and findings:
        reclaimed = repair_orphan_leases(queue_file, campaign_dir, cid,
                                         now)
        for f in findings:
            f["repaired"] = True
        if reclaimed < len(findings):
            findings.append(finding(
                "orphan_lease",
                f"reclaim settled {reclaimed} of {len(findings)} "
                "orphan lease(s); re-run the doctor",
                repaired=False))
    tmp_roots = [Path(campaign_dir)]
    if cache_dir is not None:
        tmp_roots.append(Path(cache_dir))
    findings += check_stale_tmp(tmp_roots, tmp_age, now, repair)
    if cache_dir is not None and Path(cache_dir).is_dir():
        findings += check_cache(cache_dir, repair)
    findings += check_journal_drift(queue_file, campaign_dir)

    repaired = sum(1 for f in findings if f["repaired"])
    return {
        "campaign": cid,
        "dir": str(campaign_dir),
        "repair": repair,
        "findings": findings,
        "repaired": repaired,
        "remaining": len(findings) - repaired,
        "ok": all(f["repaired"] for f in findings),
        "as_of": now,
    }


def print_doc(doc: dict) -> None:
    verdict = "clean" if not doc["findings"] else (
        "repaired" if doc["ok"] else "findings remain")
    print(f"campaign {doc['campaign'] or '?'}  [{doc['dir']}]: "
          f"{verdict}")
    for f in doc["findings"]:
        mark = "fixed" if f["repaired"] else (
            "REPORT-ONLY" if not f["repairable"] else "FOUND")
        print(f"  [{mark}] {f['check']}: {f['detail']}")
    print(f"  {len(doc['findings'])} finding(s), "
          f"{doc['repaired']} repaired, "
          f"{doc['remaining']} remaining")


def main(argv=None) -> int:
    args = parse_args(argv)
    setup_from_args(args)
    try:
        doc = diagnose(args.campaign, cache_dir=args.cache_dir,
                       repair=args.repair, tmp_age=args.tmp_age)
    except FileNotFoundError as exc:
        print(f"campaign_doctor: {exc}", file=sys.stderr)
        return 2
    if args.json:
        json.dump(doc, sys.stdout, indent=2, sort_keys=True)
        print()
    else:
        print_doc(doc)
    return 0 if doc["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
