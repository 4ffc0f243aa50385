#!/usr/bin/env python3
"""Interleaved A/B of the repository benchmark: this tree vs a base revision.

Usage (from the repository root)::

    python3 scripts/bench_ab.py --base HEAD~1 > ab.json
    python3 scripts/bench_ab.py --base origin/main --pairs 3 --seconds 10

The base revision is exported with ``git archive`` into a temporary
directory, and this tree's ``perfbench/`` (without ``out/`` and
``__pycache__/``) replaces the export's copy, so both sides run the
same benchmark code over their own ``src/``.  Each of ``--pairs``
pairs runs every workload ``BENCHMARK.json`` gates on both trees, one
run at a time, with ``--seed <pair index> --trace 0``.  The base runs
first in even pairs and the head first in odd ones, so the host's
speed drift hits both sides alike.

Stdout gets one JSON document.  For each workload and end-to-end
metric it gives the unit, direction and bound from ``BENCHMARK.json``,
each side's median and quartiles over the pairs (with the per-pair
values), and how many pairs the head won.  Exit status:

* 0 — every head run is correct and no head median is worse than its
  base median by more than the metric's bound times the base median;
* 1 — a head run reports ``"correct": false`` or a metric breaks its
  bound (each problem is named on stderr and under ``problems``);
* 2 — a run exits non-zero or prints no result line (the tail of its
  stderr is shown), or the base revision cannot be exported.
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SIDES = ("base", "head")


class RunFailed(Exception):
    """A run that yields no result: the A/B cannot be judged."""


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="Interleaved A/B of the repository benchmark "
                    "(BENCHMARK.json) between a base revision and this "
                    "tree.")
    parser.add_argument("--base", required=True, metavar="REV",
                        help="git revision to compare against")
    parser.add_argument("--pairs", type=int, default=10,
                        help="interleaved base/head pairs (default: "
                             "%(default)s)")
    parser.add_argument("--seconds", type=float,
                        default=SPEC["run_seconds"],
                        help="measurement budget of each run (default: "
                             "BENCHMARK.json's run_seconds, %(default)s)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error(f"--pairs must be >= 1, got {args.pairs}")
    if args.seconds <= 0:
        parser.error(f"--seconds must be > 0, got {args.seconds}")
    return args


def git(*args: str) -> bytes:
    try:
        done = subprocess.run(["git", *args], cwd=ROOT,
                              capture_output=True)
    except OSError as exc:
        raise RunFailed(f"git {args[0]}: {exc}") from None
    if done.returncode != 0:
        raise RunFailed(f"git {' '.join(args)}: "
                        f"{done.stderr.decode(errors='replace').strip()}")
    return done.stdout


def export(base: str, dest: Path) -> str:
    """Extract revision ``base`` into ``dest`` and overlay this tree's
    ``perfbench/``; returns the commit ``base`` names."""
    commit = git("rev-parse", "--verify", f"{base}^{{commit}}") \
        .decode().strip()
    with tarfile.open(fileobj=io.BytesIO(git("archive", commit))) as tar:
        tar.extractall(dest, filter="data")
    shutil.rmtree(dest / "perfbench", ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", dest / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    return commit


def run_once(tree: Path, workload: str, seed: int, seconds: float,
             out: Path) -> dict:
    """One untraced run of ``BENCHMARK.json``'s command in ``tree``,
    under this interpreter; returns its result line."""
    command = [sys.executable, *SPEC["command"][1:],
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0",
               "--out", str(out)]
    done = subprocess.run(command, cwd=tree, capture_output=True,
                          text=True)
    try:
        result = json.loads(done.stdout.splitlines()[-1])
        complete = "correct" in result and all(
            "value" in result["metrics"][metric["name"]]
            for metric in SPEC["end_to_end"])
    except (IndexError, ValueError, TypeError, KeyError):
        complete = False
    if done.returncode != 0 or not complete:
        why = "" if complete else " without a result line"
        raise RunFailed(f"{workload} (seed {seed}) in {tree} exited "
                        f"{done.returncode}{why}; stderr ends:\n"
                        f"{done.stderr[-2000:]}")
    return result


def measure(trees: dict, pairs: int, seconds: float, out: Path) -> dict:
    """Every run of the A/B: workload -> side -> result line per pair."""
    runs = {w["name"]: {side: [] for side in SIDES}
            for w in SPEC["workloads"]}
    for pair in range(pairs):
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        for workload, sides in runs.items():
            for side in order:
                result = run_once(trees[side], workload, pair, seconds,
                                  out / side)
                sides[side].append(result)
                metrics = result["metrics"]
                print(f"[bench_ab] pair {pair} {workload} {side}: "
                      f"wall_s {metrics['wall_s']['value']:.3f}, "
                      f"sim_kcycles_per_s "
                      f"{metrics['sim_kcycles_per_s']['value']:.2f}, "
                      f"correct {result['correct']}", file=sys.stderr)
    return runs


def summary(values: list[float]) -> dict:
    """Median and (inclusive) quartiles of one side's per-pair values."""
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "runs": values}


def compare(runs: dict) -> tuple[dict, list[str]]:
    """Per-workload metric comparisons, and the problems that fail it."""
    report, problems = {}, []
    for workload, sides in runs.items():
        for pair, result in enumerate(sides["head"]):
            if not result["correct"]:
                problems.append(
                    f"{workload}: head run of pair {pair} is not correct "
                    f"({result['failed']} of {result['attempted']} "
                    f"outputs failed)")
        report[workload] = {}
        for metric in SPEC["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sign = 1 if metric["better"] == "higher" else -1
            base, head = ([r["metrics"][name]["value"] for r in sides[side]]
                          for side in SIDES)
            base_median = statistics.median(base)
            head_median = statistics.median(head)
            regressed = sign * (base_median - head_median) \
                > bound * abs(base_median)
            report[workload][name] = {
                "unit": metric["unit"], "better": metric["better"],
                "bound": bound, "base": summary(base),
                "head": summary(head),
                "head_wins": sum(sign * (h - b) > 0
                                 for b, h in zip(base, head)),
                "regressed": regressed}
            if regressed:
                problems.append(
                    f"{workload}: {name} head median {head_median:.6g} "
                    f"is worse than base median {base_median:.6g} by "
                    f"more than {bound:.0%}")
    return report, problems


def main(argv=None) -> int:
    args = parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="bench-ab-") as tmp:
        tmp = Path(tmp)
        try:
            commit = export(args.base, tmp / "base")
            runs = measure({"base": tmp / "base", "head": ROOT},
                           args.pairs, args.seconds, tmp / "out")
        except RunFailed as exc:
            print(f"bench_ab: {exc}", file=sys.stderr)
            return 2
    workloads, problems = compare(runs)
    json.dump({"base": args.base, "base_commit": commit,
               "pairs": args.pairs, "seconds": args.seconds,
               "workloads": workloads, "problems": problems},
              sys.stdout, indent=1)
    print()
    for problem in problems:
        print(f"bench_ab: FAILED {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
