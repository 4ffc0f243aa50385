#!/usr/bin/env python3
"""Measure the throughput cost of the event journal.

Runs the same small campaign grid repeatedly through the full
plan/queue/drain stack — cold cache, durable campaign directory — in
two configurations interleaved back to back: observability **off**
(``REPRO_OBS=0``: no journal, every ``emit`` a no-op) and **on** (the
``events.jsonl`` journal).  Reports the median wall-clock per
configuration and their ratio.

The simulator cycle loop is never instrumented, so the only cost the
"on" runs can pay is journal appends — at per-cell (not per-cycle)
frequency.  This script is the proof: with ``--max-overhead R`` it
exits non-zero when on/off exceeds ``1 + R`` (the CI perf-smoke
gate).

Usage::

    PYTHONPATH=src python scripts/bench_obs_overhead.py
    PYTHONPATH=src python scripts/bench_obs_overhead.py \
        --repeats 5 --max-overhead 0.10
"""

import argparse
import json
import os
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

from repro.core.config import DEFAULT_CONFIG
from repro.experiments import ExperimentSession
from repro.obs.journal import ENV_VAR

POLICIES = ("ICOUNT.1.8", "RR.1.8")
SEEDS = (0, 1)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="Observability overhead microbenchmark "
                    "(campaign drain with REPRO_OBS on vs off).")
    parser.add_argument("--cycles", type=int, default=3_000,
                        help="measured cycles per cell (default: 3000)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="cold campaign runs per configuration, "
                             "median reported (default: 3)")
    parser.add_argument("--max-overhead", type=float, default=None,
                        metavar="R",
                        help="exit non-zero when on/off exceeds 1+R "
                             "(e.g. 0.10 for 10%%)")
    args = parser.parse_args(argv)
    if args.cycles < 1 or args.repeats < 1:
        parser.error("--cycles and --repeats must be >= 1")
    return args


def run_once(workdir: Path, cycles: int, obs: bool) -> float:
    """One cold campaign drain; returns its wall-clock seconds."""
    os.environ[ENV_VAR] = "1" if obs else "0"
    session = ExperimentSession(
        jobs=1, cache_dir=str(workdir / "cache"), cycles=cycles,
        campaign_dir=str(workdir / "campaigns"))
    cells = [session.make_cell("2_MIX", "stream", policy, cycles, None,
                               DEFAULT_CONFIG.with_(seed=seed))
             for policy in POLICIES for seed in SEEDS]
    t0 = time.perf_counter()
    session.run_cells(cells)
    elapsed = time.perf_counter() - t0
    shutil.rmtree(workdir, ignore_errors=True)
    return elapsed


def main(argv=None) -> None:
    args = parse_args(argv)
    saved_env = os.environ.get(ENV_VAR)
    base = Path(tempfile.mkdtemp(prefix="obs-overhead-"))
    on: list[float] = []
    off: list[float] = []
    try:
        # Interleave on/off runs so drift (thermal, cache, scheduler)
        # hits both configurations equally.
        for i in range(args.repeats):
            off.append(run_once(base / f"off-{i}", args.cycles,
                                obs=False))
            on.append(run_once(base / f"on-{i}", args.cycles,
                               obs=True))
            print(f"[bench_obs_overhead] repeat {i + 1}/"
                  f"{args.repeats}: off={off[-1]:.3f}s "
                  f"on={on[-1]:.3f}s", file=sys.stderr)
    finally:
        if saved_env is None:
            os.environ.pop(ENV_VAR, None)
        else:
            os.environ[ENV_VAR] = saved_env
        shutil.rmtree(base, ignore_errors=True)

    med_off = statistics.median(off)
    med_on = statistics.median(on)
    ratio = med_on / med_off
    report = {
        "cycles": args.cycles,
        "repeats": args.repeats,
        "median_off_seconds": round(med_off, 4),
        "median_on_seconds": round(med_on, 4),
        "overhead_ratio": round(ratio, 4),
    }
    json.dump(report, sys.stdout, indent=2, sort_keys=True)
    print()
    print(f"[bench_obs_overhead] obs-on/obs-off = {ratio:.3f}x "
          f"({(ratio - 1) * 100:+.1f}%)", file=sys.stderr)

    if args.max_overhead is not None and ratio > 1.0 + args.max_overhead:
        raise SystemExit(
            f"bench_obs_overhead: observability costs {ratio:.3f}x "
            f"(> {1.0 + args.max_overhead:.2f}x budget)")


if __name__ == "__main__":
    main()
