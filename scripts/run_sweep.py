#!/usr/bin/env python3
"""Run a declarative design-space sweep and emit a report.

Usage::

    python scripts/run_sweep.py --preset policy_width --seeds 3 --jobs 4
    python scripts/run_sweep.py --axis ftq_depth=1,2,4,8 \
        --axis workload=2_MIX --baseline ftq_depth=1 --format csv
    python scripts/run_sweep.py --list-presets

A sweep is either a shipped preset (``--preset``; see
``--list-presets``) or built from ``--axis key=v1,v2,...`` flags — any
of ``workload``, ``engine``, ``policy``, ``seed`` or a ``SimConfig``
field (``ftq_depth``, ``cache_banks``, ``l2_kb``, ...).  ``--axis`` on
top of a preset overrides that axis.  Reserved axes a sweep does not
declare run at workload=2_MIX, engine=stream, policy=ICOUNT.1.8 and
are echoed in every report's ``fixed`` section.  ``--seeds N`` replicates every
design point over seeds ``0..N-1`` and the report aggregates them into
mean / stdev / 95% CI, plus speedup against the ``--baseline`` design
point (default: the first value of every axis).

All cells execute through one content-addressed
:class:`~repro.experiments.ExperimentSession` — parallel across
``--jobs`` processes on cold cache, zero simulations on warm cache.
Reports (``--format md|csv|json``) are deterministic, so a warm re-run
reproduces them byte-for-byte; execution accounting goes to stderr.

Every run plans a **campaign** (see :mod:`repro.campaign`): the grid
is content-hashed into a campaign id (printed to stderr and stamped
into every report), and with a persistent cache the campaign state —
manifest + durable cell queue — lives under ``--campaign-dir``
(default: ``<cache-dir>/campaigns``).  ``--plan-only`` writes that
state and prints the id without executing, so external
``scripts/campaign_worker.py`` processes can drain the queue;
``--resume <id>`` asserts this invocation continues that exact
campaign.  ``--verify-cache`` audits every cache entry up front,
quarantining corrupt ones and deleting stale ``*.tmp`` debris.
"""

import argparse
import sys
import time

from repro.core.config import DEFAULT_CONFIG
from repro.experiments.cli import add_runner_args, check_runner_args, \
    open_session, plan, prune_cache, run_cli
from repro.obs.logging_setup import add_logging_args, setup_from_args
from repro.resilience import CellExecutionError
from repro.sweeps import (
    FORMATTERS,
    PRESETS,
    SweepSpec,
    coerce_axis_value,
    validate_axis,
)
from repro.sweeps.run import aggregate, expand_cells

PROG = "run_sweep"


def parse_axis_flag(flag: str) -> tuple[str, tuple]:
    """Split one ``--axis key=v1,v2,...`` flag into (axis, values)."""
    if "=" not in flag:
        raise ValueError(
            f"--axis expects key=v1,v2,..., got {flag!r}")
    axis, _, rest = flag.partition("=")
    axis = validate_axis(axis.strip())
    values = tuple(coerce_axis_value(axis, token.strip())
                   for token in rest.split(",") if token.strip())
    if not values:
        raise ValueError(f"--axis {axis} lists no values")
    return axis, values


def parse_baseline_flag(flags: list[str]) -> dict:
    """Merge ``--baseline key=value`` flags into a design point."""
    baseline = {}
    for flag in flags:
        if "=" not in flag:
            raise ValueError(
                f"--baseline expects key=value, got {flag!r}")
        axis, _, value = flag.partition("=")
        axis = validate_axis(axis.strip())
        baseline[axis] = coerce_axis_value(axis, value.strip())
    return baseline


def build_spec(args: argparse.Namespace) -> SweepSpec:
    """Resolve preset / --axis / --seeds / --baseline into one spec."""
    if args.preset is not None:
        spec = PRESETS[args.preset]
    elif args.axis:
        spec = None
    else:
        raise ValueError("nothing to sweep: pass --preset or --axis "
                         "(see --list-presets)")

    axes = dict(spec.axes) if spec is not None else {}
    for flag in args.axis:
        axis, values = parse_axis_flag(flag)
        axes[axis] = values

    if args.baseline:
        # Explicit pins validate strictly: a typo'd value must error,
        # not silently fall back to a different denominator.
        baseline = parse_baseline_flag(args.baseline)
    else:
        # Inherited preset pins, by contrast, may have been invalidated
        # by an --axis override; drop the stale ones.
        baseline = {axis: value
                    for axis, value in (dict(spec.baseline) if spec
                                        is not None else {}).items()
                    if axis in axes and value in axes[axis]}

    merged = SweepSpec.of(
        args.preset or "custom", axes,
        cycles=args.cycles,
        warmup=args.warmup if args.warmup is not None
        else (spec.warmup if spec is not None else None),
        base_config=spec.base_config if spec is not None
        else DEFAULT_CONFIG,
        baseline=baseline,
        metric=args.metric or (spec.metric if spec is not None
                               else "ipc"),
        description=spec.description if spec is not None else "")
    if args.seeds is not None:
        merged = merged.with_seeds(args.seeds)
    return merged


def list_presets() -> None:
    for name, spec in PRESETS.items():
        axes = " x ".join(f"{axis}[{len(values)}]"
                          for axis, values in spec.axes)
        print(f"{name:16s} {axes}  ({spec.n_cells()} cells)")
        print(f"{'':16s} {spec.description}")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="Declarative design-space sweeps over the simulator.")
    parser.add_argument("--preset", choices=sorted(PRESETS),
                        default=None, help="shipped sweep to run")
    parser.add_argument("--list-presets", action="store_true",
                        help="describe the shipped presets and exit")
    parser.add_argument("--axis", action="append", default=[],
                        metavar="KEY=V1,V2,...",
                        help="add/override one sweep axis (repeatable)")
    parser.add_argument("--seeds", type=int, default=None,
                        help="replicate every design point over seeds "
                             "0..N-1")
    parser.add_argument("--baseline", action="append", default=[],
                        metavar="KEY=VALUE",
                        help="pin the speedup-baseline design point "
                             "(repeatable; default: first value of "
                             "every axis)")
    parser.add_argument("--metric", choices=("ipc", "ipfc"), default=None,
                        help="primary aggregated metric (default: the "
                             "preset's, else ipc)")
    add_runner_args(parser, strict=False)
    parser.add_argument("--format", dest="fmt",
                        choices=sorted(FORMATTERS), default="md",
                        help="report format (default: md)")
    parser.add_argument("--output", "-o", default=None,
                        help="write the report here instead of stdout")
    add_logging_args(parser)
    return check_runner_args(parser, parser.parse_args(argv))


def run(args) -> None:

    try:
        spec = build_spec(args)
    except (KeyError, ValueError) as exc:
        # Spec errors (unknown workload/axis/policy, bad baseline) are
        # user errors: report the message, not a traceback.
        message = exc.args[0] if exc.args else str(exc)
        raise SystemExit(f"run_sweep: {message}") from None

    session = open_session(args, PROG, warmup=spec.warmup)
    pairs = expand_cells(spec, session)
    batch = plan(session, [cell for _, cell in pairs], args, PROG)
    if batch is None:
        return

    t0 = time.time()
    print(f"[run_sweep] {spec.name}: {spec.n_cells()} cell(s), "
          f"jobs={args.jobs}", file=sys.stderr)
    try:
        results = session.execute(batch)
    except CellExecutionError as exc:
        raise SystemExit(f"run_sweep: {exc}\n(use --no-strict for a "
                         "partial report, --retries/--cell-timeout to "
                         "recover flaky cells)") from None
    print(f"[run_sweep] {session.summary()} "
          f"({time.time() - t0:.0f} s)", file=sys.stderr)
    result = aggregate(spec, pairs, results,
                       failures=session.last_failures,
                       provenance=batch.as_dict())

    report = FORMATTERS[args.fmt](result)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(report)
        print(f"[run_sweep] report written to {args.output}",
              file=sys.stderr)
    else:
        sys.stdout.write(report)

    prune_cache(session, args, PROG)

    if result.failures:
        # Partial-results mode: the report is written (with failures
        # marked) but the run as a whole must not look healthy to
        # scripts and CI — exit 3 distinguishes "degraded" from both
        # success (0) and usage errors (2).
        print(f"[run_sweep] WARNING: {len(result.failures)} cell(s) "
              "failed after retries; report is partial",
              file=sys.stderr)
        raise SystemExit(3)


def main(argv=None) -> None:
    args = parse_args(argv)
    setup_from_args(args)
    if args.list_presets:
        list_presets()
        return
    run_cli(run, args, PROG)


if __name__ == "__main__":
    main()
