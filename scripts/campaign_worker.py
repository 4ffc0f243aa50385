#!/usr/bin/env python3
"""Drain one campaign's cell queue as a standalone worker.

Usage::

    python scripts/run_sweep.py --axis ftq_depth=1,2,4,8 \
        --plan-only                                # prints <id>
    python scripts/campaign_worker.py \
        --campaign .repro-cache/campaigns/<id> &   # as many as you like
    python scripts/campaign_worker.py \
        --campaign .repro-cache/campaigns/<id> --no-wait

Any number of workers — sibling processes or separate invocations on a
shared filesystem — may point at the same campaign directory: the
SQLite queue's lease/ack protocol hands each of them one cell at a
time, and every completed result lands in the shared content-addressed
cache *before* its queue row is acked.  When the queue is drained, re-running
the planning CLI with ``--resume <id>`` assembles the report from the
cache with zero simulations.

Workers are crash-safe by construction: a worker that dies mid-cell
forfeits only its in-flight cell, which returns to the queue when its
lease deadline expires (or immediately, if a supervisor releases
it).  Restarting a worker — or starting a different one — resumes
exactly where the campaign left off.

A worker refuses to start when the filesystem holding the campaign or
the cache has less free space than ``$REPRO_DISK_FLOOR_MB`` (default:
64 MB; ``0`` disables the check).
"""

import argparse
import os
import sys
import time

from repro.campaign.health import ResourceGuardError, check_free_disk
from repro.campaign.manifest import MANIFEST_NAME, QUEUE_NAME, \
    read_campaign_id
from repro.campaign.queue import DEFAULT_LEASE_SECONDS
from repro.campaign.worker import worker_process_entry
from repro.experiments.cache import DEFAULT_CACHE_DIR
from repro.obs.journal import journal_path
from repro.obs.logging_setup import (
    add_logging_args,
    get_logger,
    setup_from_args,
)

log = get_logger("campaign_worker")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="Drain a planned campaign's cell queue.")
    parser.add_argument("--campaign", required=True, metavar="DIR",
                        help="campaign directory (holds "
                             f"{MANIFEST_NAME} and {QUEUE_NAME}), as "
                             "planned by run_sweep.py/run_experiments.py "
                             "--plan-only")
    parser.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR,
                        help="shared result cache to write completed "
                             f"cells into (default: {DEFAULT_CACHE_DIR})")
    parser.add_argument("--no-cache", action="store_true",
                        help="do not write a result cache (results "
                             "still land in the queue rows)")
    parser.add_argument("--worker-id", default=None,
                        help="lease owner name (default: "
                             "worker-<hostname>-<pid>)")
    parser.add_argument("--lease-seconds", type=float,
                        default=DEFAULT_LEASE_SECONDS,
                        help="lease deadline; a worker that has not "
                             "settled its cell this long after leasing "
                             "it forfeits the cell (default: "
                             f"{DEFAULT_LEASE_SECONDS:g})")
    parser.add_argument("--cell-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="per-cell wall-clock budget; runs each "
                             "attempt in an isolated child process "
                             "(default: unlimited, in-process)")
    parser.add_argument("--no-wait", action="store_true",
                        help="exit at the first empty lease "
                             "instead of waiting for other workers' "
                             "leases to resolve")
    add_logging_args(parser)
    args = parser.parse_args(argv)
    if args.lease_seconds <= 0:
        parser.error(f"--lease-seconds must be > 0, got "
                     f"{args.lease_seconds}")
    if args.cell_timeout is not None and args.cell_timeout <= 0:
        parser.error(f"--cell-timeout must be > 0, got "
                     f"{args.cell_timeout}")
    return args


def main(argv=None) -> None:
    args = parse_args(argv)
    setup_from_args(args)
    queue_file = os.path.join(args.campaign, QUEUE_NAME)
    if not os.path.exists(queue_file):
        raise SystemExit(
            f"campaign_worker: no queue at {queue_file} — plan the "
            "campaign first (run_sweep.py/run_experiments.py "
            "--plan-only with a --campaign-dir)")
    cid = read_campaign_id(args.campaign) or \
        os.path.basename(os.path.normpath(args.campaign))
    worker_id = args.worker_id or \
        f"worker-{os.uname().nodename}-{os.getpid()}"
    try:
        check_free_disk(args.campaign)
        if not args.no_cache:
            check_free_disk(args.cache_dir)
    except ResourceGuardError as exc:
        raise SystemExit(f"campaign_worker: {exc}") from None

    log.info("%s draining campaign %s", worker_id, cid)
    t0 = time.time()
    stats, counts = worker_process_entry(
        queue_file, worker_id, None if args.no_cache else args.cache_dir,
        args.cell_timeout, args.lease_seconds,
        journal_path=str(journal_path(args.campaign)), campaign_id=cid,
        wait=not args.no_wait)
    # User-facing CLI footer (the tested output contract), not a
    # diagnostic — always printed, whatever the log level.
    drained = " (drained on signal)" if stats.drained else ""
    print(f"{worker_id}: {stats.executed} cell(s) executed, "
          f"{stats.failed} failed attempt(s) in "
          f"{time.time() - t0:.1f} s{drained}; queue now "
          + " ".join(f"{state}={n}"
                     for state, n in sorted(counts.items())),
          file=sys.stderr)
    if counts.get("failed") or counts.get("poisoned"):
        raise SystemExit(3)


if __name__ == "__main__":
    main()
