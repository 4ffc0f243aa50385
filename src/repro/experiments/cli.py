"""Execution flags shared by the runner CLIs.

``scripts/run_experiments.py`` and ``scripts/run_sweep.py`` both plan
and drain one campaign through an
:class:`~repro.experiments.session.ExperimentSession`, so they take the
same fourteen execution flags.  This module declares them
(:func:`add_runner_args`), validates them and fills in their defaults
(:func:`check_runner_args`), builds the session they describe
(:func:`open_session`), plans the campaign (:func:`plan`), runs the
end-of-run cache maintenance (:func:`close_session`) and wraps each
CLI's ``main`` (:func:`run_cli`: ``--profile`` and the interrupt exit).

The one per-CLI parameter is the ``--strict`` default: on for the
paper document, off for sweeps, whose reports can mark a failed cell.
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys
from pathlib import Path

from repro.experiments.cache import DEFAULT_CACHE_DIR
from repro.experiments.session import DEFAULT_CYCLES, CampaignInfo, \
    ExperimentSession

PROFILE_TOP = 25
"""Entries ``--profile`` prints from the cumulative-time ranking."""


def add_runner_args(parser: argparse.ArgumentParser, *,
                    strict: bool) -> None:
    """Declare the shared flags; ``strict`` is ``--strict``'s default."""
    parser.add_argument("--jobs", "-j", type=int, default=1,
                        help="worker processes for uncached cells "
                             "(default: 1, serial)")
    parser.add_argument("--cycles", type=int, default=None,
                        help=f"measured cycles per cell (default: "
                             f"{DEFAULT_CYCLES})")
    parser.add_argument("--warmup", type=int, default=None,
                        help="warm-up cycles per cell (default: the "
                             "config's warmup_cycles)")
    parser.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR,
                        help="persistent result cache directory "
                             f"(default: {DEFAULT_CACHE_DIR})")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the persistent cache (in-process "
                             "memoisation only)")
    parser.add_argument("--campaign-dir", default=None, metavar="DIR",
                        help="root for durable campaign state "
                             "(manifest + cell queue; default: "
                             "<cache-dir>/campaigns, or ephemeral "
                             "with --no-cache)")
    parser.add_argument("--resume", default=None, metavar="CAMPAIGN_ID",
                        help="require this invocation to continue the "
                             "given campaign (error if the planned "
                             "grid hashes to a different id)")
    parser.add_argument("--plan-only", action="store_true",
                        help="plan the campaign (manifest + queue "
                             "under --campaign-dir), print its id to "
                             "stdout and exit without simulating")
    parser.add_argument("--verify-cache", action="store_true",
                        help="before running, validate every cache "
                             "entry and quarantine corrupt ones")
    parser.add_argument("--prune-cache", type=int, default=None,
                        metavar="MAX_ENTRIES",
                        help="after the run, evict the oldest cache "
                             "entries beyond this budget")
    parser.add_argument("--retries", type=int, default=0,
                        help="re-execute a failing cell up to N extra "
                             "times before recording it failed "
                             "(default: 0)")
    parser.add_argument("--cell-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="wall-clock budget per cell execution; a "
                             "hung cell is killed and retried "
                             "(default: unlimited)")
    default = "--strict" if strict else "--no-strict"
    parser.add_argument("--strict", action=argparse.BooleanOptionalAction,
                        default=strict,
                        help="abort on the first cell that exhausts its "
                             "retries; --no-strict emits partial output "
                             "with the failures marked and exits 3 "
                             f"(default: {default})")
    parser.add_argument("--profile", action="store_true",
                        help="run under cProfile and print the top-25 "
                             "cumulative entries to stderr")


def check_runner_args(parser: argparse.ArgumentParser,
                      args: argparse.Namespace) -> argparse.Namespace:
    """Validate the shared flags (``parser.error`` exits 2) and resolve
    the ``--campaign-dir`` and ``--cycles`` defaults."""
    if args.jobs < 1:
        parser.error(f"--jobs must be >= 1, got {args.jobs}")
    if args.retries < 0:
        parser.error(f"--retries must be >= 0, got {args.retries}")
    if args.cell_timeout is not None and args.cell_timeout <= 0:
        parser.error(f"--cell-timeout must be > 0, got "
                     f"{args.cell_timeout}")
    if args.prune_cache is not None and args.prune_cache < 0:
        parser.error(f"--prune-cache must be >= 0, got {args.prune_cache}")
    if args.prune_cache is not None and args.no_cache:
        parser.error("--prune-cache is meaningless with --no-cache")
    if args.verify_cache and args.no_cache:
        parser.error("--verify-cache is meaningless with --no-cache")
    if args.campaign_dir is None and not args.no_cache:
        args.campaign_dir = str(Path(args.cache_dir) / "campaigns")
    if args.plan_only and args.campaign_dir is None:
        parser.error("--plan-only needs a --campaign-dir (an ephemeral "
                     "plan has nobody to execute it)")
    if args.resume is not None and args.campaign_dir is None:
        parser.error("--resume needs a --campaign-dir (ephemeral "
                     "campaigns leave nothing to resume)")
    if args.cycles is None:
        args.cycles = DEFAULT_CYCLES
    return args


def open_session(args: argparse.Namespace, prog: str, *,
                 warmup: int | None) -> ExperimentSession:
    """The session the flags describe, after any ``--verify-cache``.

    ``warmup`` is the CLI's resolved warm-up (a sweep preset may carry
    its own).
    """
    session = ExperimentSession(
        jobs=args.jobs, cache_dir=None if args.no_cache else args.cache_dir,
        cycles=args.cycles, warmup=warmup, retries=args.retries,
        cell_timeout=args.cell_timeout, strict=args.strict,
        campaign_dir=args.campaign_dir)
    if args.verify_cache:
        audit = session.disk.verify()
        print(f"[{prog}] cache verify: {audit['checked']} checked, "
              f"{audit['healthy']} healthy, {audit['quarantined']} "
              f"quarantined", file=sys.stderr)
    return session


def plan(session: ExperimentSession, cells: list,
         args: argparse.Namespace, prog: str) -> CampaignInfo | None:
    """Name the campaign before anything executes.

    A mismatched ``--resume`` exits without simulating a single cell.
    Returns ``None`` when ``--plan-only`` has persisted the campaign,
    printed its id and closed the session: the CLI is done.
    """
    info = session.plan(cells).info
    if args.resume is not None and info.campaign_id != args.resume:
        raise SystemExit(
            f"{prog}: --resume {args.resume} does not match this "
            f"invocation's grid (plans to campaign {info.campaign_id}); "
            "re-run with the original flags or drop --resume")
    print(f"[{prog}] campaign {info.campaign_id} ({info.cells} distinct "
          f"cells, {info.pending} to simulate)", file=sys.stderr)
    if not args.plan_only:
        return info
    info = session.plan_campaign(cells)
    print(f"[{prog}] campaign planned under {args.campaign_dir}/"
          f"{info.campaign_id} — drain it with scripts/campaign_worker.py",
          file=sys.stderr)
    print(info.campaign_id)
    session.close()
    return None


def close_session(session: ExperimentSession, args: argparse.Namespace,
                  prog: str) -> None:
    """Run ``--prune-cache`` (reporting its evictions on stderr), then
    close the session."""
    if args.prune_cache is not None and session.disk is not None:
        removed = session.disk.prune(max_entries=args.prune_cache)
        stats = session.disk.stats()
        print(f"[{prog}] cache pruned: {removed} entry(ies) evicted, "
              f"{stats['entries']} kept ({stats['bytes']} bytes)",
              file=sys.stderr)
    session.close()


def run_cli(run, args: argparse.Namespace, prog: str) -> None:
    """Call ``run(args)`` as a runner CLI's ``main`` does.

    With ``--profile`` the call runs under :mod:`cProfile` and the top
    :data:`PROFILE_TOP` cumulative entries go to stderr, even when
    ``run`` raises, so a slow run that dies late still yields its data.
    A :class:`KeyboardInterrupt` prints ``<prog>: interrupted`` (plus
    the interrupt's detail, such as a drained campaign's resume hint)
    and exits 130.
    """
    profiler = cProfile.Profile() if args.profile else None
    try:
        if profiler is None:
            run(args)
        else:
            profiler.runcall(run, args)
    except KeyboardInterrupt as exc:
        detail = f": {exc}" if exc.args else ""
        print(f"{prog}: interrupted{detail}", file=sys.stderr)
        raise SystemExit(130) from None
    finally:
        if profiler is not None:
            pstats.Stats(profiler, stream=sys.stderr) \
                .sort_stats("cumulative").print_stats(PROFILE_TOP)
