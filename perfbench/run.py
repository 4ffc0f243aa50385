#!/usr/bin/env python3
"""The repository benchmark: three workloads, end to end and per layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload mem-steady --seed 1 \\
        --seconds 55 --trace 0

Workloads (the gated ones, with their reasons, are recorded in
``BENCHMARK.json``):

* ``mem-steady`` — ``2_MEM``/``4_MEM`` x three engines x
  ICOUNT.1.8/2.8, one cell at a time on fresh machines, programs
  generated once up front (the Fig 7/8 memory-bound cells);
* ``ilp-steady`` — the same grid on ``2_ILP``/``4_ILP``;
* ``claims-regen`` — the 84-cell ``PAPER_CLAIMS`` grid through
  ``ExperimentSession`` at ``jobs=2`` over an empty cache and a fresh
  durable campaign directory (the ``run_experiments.py --only claims``
  path), then a warm pass over the filled cache.  It runs and checks
  its outputs like the others but is not gated: ten runs of its scaled
  ``wall_s`` spread 0.11-0.14 of their median on the 2-core reference
  host, where the steady workloads spread 0.04-0.09, and the kernel
  that steadies those (see ``reference``) barely tracks a pass whose
  two workers fill both cores.  The steady workloads' traced runs
  drain their cells through the same campaign path, so the
  ``experiments``, ``campaign`` and ``obs`` layers are measured there.

``--seed`` orders the cells within each Table 2 workload; the
simulated programs are those of ``SimConfig``'s default seed (see
``bench.CONFIG``).  ``--trace 0`` prints the end-to-end metrics, whose
times are medians of host seconds scaled by a reference kernel timed
next to each unit of work (see ``reference``);
``--trace 1`` is a separate run that records spans, samples the cycle
loop with SIGPROF, steps the measured window with ``SmtCore.tick()``
and prints the per-layer metrics.  Every run checks its outputs
against the digests pinned in ``perfbench/digests.json``, writes a
report with provenance under ``perfbench/out/`` and prints one JSON
line last.  A traced run also writes a Chrome trace-event file that
Perfetto or ``chrome://tracing`` opens directly.

Self-tests: ``python -m pytest perfbench``.  Re-pin the digests after a
change that alters simulated results with ``--write-digests`` (one
untraced run per workload).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOADS = ("mem-steady", "ilp-steady", "claims-regen")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0,
                        help="orders the cells within each workload")
    parser.add_argument("--seconds", type=float, default=55.0,
                        help="measurement budget of an untraced run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="tiny windows and single repetitions "
                             "(self-tests)")
    parser.add_argument("--digests", type=Path,
                        default=HERE / "digests.json",
                        help="pinned per-cell digests (default: "
                             "%(default)s)")
    parser.add_argument("--write-digests", action="store_true",
                        help="pin this run's digests in --digests")
    parser.add_argument("--out", type=Path, default=HERE / "out",
                        help="report and trace directory")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"perfbench: {SRC / 'repro'} not found; run from a full "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bench
    return bench.run(args)


if __name__ == "__main__":
    sys.exit(main())
