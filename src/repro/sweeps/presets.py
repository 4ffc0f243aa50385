"""Shipped sweep presets: the repo's standing design-space studies.

Each preset is a frozen :class:`~repro.sweeps.spec.SweepSpec`; derive
variants with ``with_seeds`` / ``with_axis`` rather than mutating.  The
presets are the ablation studies (``ftq_depth`` and ``bank_conflicts``
included) and give ``scripts/run_sweep.py --preset`` its vocabulary.
"""

from __future__ import annotations

from repro.sweeps.spec import SweepSpec

POLICY_WIDTH = SweepSpec.of(
    "policy_width",
    {
        "workload": ("2_ILP", "2_MEM", "2_MIX"),
        "policy": ("ICOUNT.1.8", "ICOUNT.2.8", "ICOUNT.1.16",
                   "ICOUNT.2.16"),
        "engine": ("stream",),
    },
    baseline={"policy": "ICOUNT.1.8"},
    metric="ipc",
    description="The paper's central comparison: fetch policy x width "
                "(1.8 / 2.8 / 1.16 / 2.16) across ILP, MEM and MIX "
                "behaviour, stream fetch unit.")

FTQ_DEPTH = SweepSpec.of(
    "ftq_depth",
    {
        "ftq_depth": (1, 2, 4, 8),
        "workload": ("2_MIX",),
        "engine": ("stream",),
        "policy": ("ICOUNT.1.16",),
    },
    baseline={"ftq_depth": 1},
    metric="ipc",
    description="Front-end decoupling: does a deeper fetch target queue "
                "let prediction run ahead of I-cache misses?")

BANK_CONFLICTS = SweepSpec.of(
    "bank_conflicts",
    {
        "cache_banks": (1, 2, 8),
        "policy": ("ICOUNT.1.8", "ICOUNT.2.8"),
        "workload": ("4_ILP",),
        "engine": ("gshare+BTB",),
    },
    baseline={"cache_banks": 8, "policy": "ICOUNT.1.8"},
    metric="ipfc",
    description="I-cache banking pressure under simultaneous two-thread "
                "fetch: 2.X loses slots to conflicts as banks shrink; "
                "1.X never conflicts.")

ENGINE_SHOOTOUT = SweepSpec.of(
    "engine_shootout",
    {
        "engine": ("gshare+BTB", "gskew+FTB", "stream"),
        "workload": ("2_ILP", "2_MEM", "2_MIX"),
        "policy": ("ICOUNT.1.8",),
    },
    baseline={"engine": "gshare+BTB"},
    metric="ipc",
    description="Fetch engine comparison at the paper's baseline policy "
                "across workload behaviours.")

SEED_STABILITY = SweepSpec.of(
    "seed_stability",
    {
        "seed": (0, 1, 2, 3, 4),
        "workload": ("2_MIX",),
        "engine": ("stream",),
        "policy": ("ICOUNT.1.8",),
    },
    metric="ipc",
    description="Run-to-run spread of the synthetic workloads: one "
                "design point, five program-generation seeds; the CI "
                "quantifies how much any single-seed result can be "
                "trusted.")

PRESETS: dict[str, SweepSpec] = {
    spec.name: spec
    for spec in (POLICY_WIDTH, FTQ_DEPTH, BANK_CONFLICTS,
                 ENGINE_SHOOTOUT, SEED_STABILITY)
}
"""Every shipped preset, keyed by name."""
