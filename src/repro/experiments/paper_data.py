"""The paper's quantitative claims, transcribed for shape checking.

Each :class:`Claim` is a *relative* statement (a ratio between two grid
cells, averaged over the listed workloads) or an *absolute anchor* read
from a figure.  The reproduction does not chase absolute equality — the
substrate is a synthetic-workload simulator, not the authors' Alpha
traces — but the sign and rough magnitude of every claim should hold.

Claim ids label the rows of the claims section of the paper
document (``scripts/run_experiments.py --only claims``).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Claim:
    """One checkable statement from the paper.

    Attributes:
        claim_id: Stable identifier, the row label in the paper
            document's claims section.
        text: The claim as stated (or read off a figure).
        metric: ``"ipfc"`` or ``"ipc"``.
        workloads: Workloads the claim averages over.
        numer / denom: ``(engine, policy)`` grid cells forming the ratio
            numerator and denominator.
        paper_ratio: The paper's value for numer/denom.
        tolerance: Acceptable |measured - paper| on the ratio for the
            "holds" verdict (generous: shape, not identity).
    """

    claim_id: str
    text: str
    metric: str
    workloads: tuple[str, ...]
    numer: tuple[str, str]
    denom: tuple[str, str]
    paper_ratio: float
    tolerance: float = 0.12


ILP = ("2_ILP", "4_ILP", "6_ILP", "8_ILP")
MEM = ("2_MIX", "2_MEM", "4_MIX", "4_MEM", "6_MIX", "8_MIX")

PAPER_CLAIMS: tuple[Claim, ...] = (
    # --- Section 3.1 / 3.2, Figures 2 and 4 (gzip-twolf, gshare+BTB) ---
    Claim("fig4-2.8-vs-1.8",
          "Fetching two threads improves fetch throughput ~28% at width 8",
          "ipfc", ("2_MIX",),
          ("gshare+BTB", "ICOUNT.2.8"), ("gshare+BTB", "ICOUNT.1.8"),
          1.28, tolerance=0.15),
    Claim("fig4-2.16-vs-1.16",
          "Fetching two threads improves fetch throughput ~33% at width 16",
          "ipfc", ("2_MIX",),
          ("gshare+BTB", "ICOUNT.2.16"), ("gshare+BTB", "ICOUNT.1.16"),
          1.33, tolerance=0.18),
    # --- Figure 5(b): ILP workloads, 1.8 and 2.8 ---
    Claim("fig5b-gskew-1.8",
          "gskew+FTB commits ~9% more than gshare+BTB at ICOUNT.1.8 (ILP)",
          "ipc", ILP,
          ("gskew+FTB", "ICOUNT.1.8"), ("gshare+BTB", "ICOUNT.1.8"),
          1.09),
    Claim("fig5b-stream-1.8",
          "stream commits ~20% more than gshare+BTB at ICOUNT.1.8 (ILP)",
          "ipc", ILP,
          ("stream", "ICOUNT.1.8"), ("gshare+BTB", "ICOUNT.1.8"),
          1.20, tolerance=0.15),
    Claim("fig5b-gskew-2.8",
          "gskew+FTB commits ~5% more than gshare+BTB at ICOUNT.2.8 (ILP)",
          "ipc", ILP,
          ("gskew+FTB", "ICOUNT.2.8"), ("gshare+BTB", "ICOUNT.2.8"),
          1.05),
    Claim("fig5b-stream-2.8",
          "stream commits ~9% more than gshare+BTB at ICOUNT.2.8 (ILP)",
          "ipc", ILP,
          ("stream", "ICOUNT.2.8"), ("gshare+BTB", "ICOUNT.2.8"),
          1.09),
    Claim("fig5b-2.8-vs-1.8",
          "For ILP workloads fetching two threads beats one (gshare+BTB)",
          "ipc", ILP,
          ("gshare+BTB", "ICOUNT.2.8"), ("gshare+BTB", "ICOUNT.1.8"),
          1.20, tolerance=0.20),
    # --- Figure 6(b): ILP workloads, wide fetch ---
    Claim("fig6b-stream-1.16-vs-2.8",
          "stream at ICOUNT.1.16 commits ~9% more than stream at 2.8",
          "ipc", ILP,
          ("stream", "ICOUNT.1.16"), ("stream", "ICOUNT.2.8"),
          1.09, tolerance=0.15),
    Claim("fig6b-gshare-1.16-vs-2.8",
          "gshare+BTB loses ~9.7% going from 2.8 to 1.16 (one basic "
          "block per prediction cannot fill 16 slots)",
          "ipc", ILP,
          ("gshare+BTB", "ICOUNT.1.16"), ("gshare+BTB", "ICOUNT.2.8"),
          0.903, tolerance=0.12),
    Claim("fig6b-gskew-1.16-vs-2.8",
          "gskew+FTB loses ~4% going from 2.8 to 1.16",
          "ipc", ILP,
          ("gskew+FTB", "ICOUNT.1.16"), ("gskew+FTB", "ICOUNT.2.8"),
          0.96, tolerance=0.12),
    Claim("fig6b-stream-1.16-vs-gshare-2.8",
          "stream at ICOUNT.1.16 commits ~19% more than gshare+BTB at 2.8",
          "ipc", ILP,
          ("stream", "ICOUNT.1.16"), ("gshare+BTB", "ICOUNT.2.8"),
          1.19, tolerance=0.18),
    Claim("fig6b-stream-1.16-vs-gskew-2.8",
          "stream at ICOUNT.1.16 commits ~13% more than gskew+FTB at 2.8",
          "ipc", ILP,
          ("stream", "ICOUNT.1.16"), ("gskew+FTB", "ICOUNT.2.8"),
          1.13, tolerance=0.18),
    # --- Figure 7(b): MIX & MEM, the inversion ---
    Claim("fig7b-inversion-gshare",
          "Fetching two threads DECREASES commit throughput for "
          "memory-bound workloads (gshare+BTB)",
          "ipc", MEM,
          ("gshare+BTB", "ICOUNT.2.8"), ("gshare+BTB", "ICOUNT.1.8"),
          0.93, tolerance=0.15),
    Claim("fig7b-inversion-stream",
          "The stream fetch at one thread beats it at two threads on "
          "every memory-bound workload",
          "ipc", MEM,
          ("stream", "ICOUNT.2.8"), ("stream", "ICOUNT.1.8"),
          0.93, tolerance=0.15),
    # --- Figure 8(b): MIX & MEM, wide fetch ---
    Claim("fig8b-gskew-1.16-vs-gshare-1.8",
          "gskew+FTB at ICOUNT.1.16 gains 3-4% over gshare+BTB at 1.8",
          "ipc", MEM,
          ("gskew+FTB", "ICOUNT.1.16"), ("gshare+BTB", "ICOUNT.1.8"),
          1.035, tolerance=0.12),
    Claim("fig8b-stream-1.16-vs-gshare-1.8",
          "stream at ICOUNT.1.16 gains 3-4% over gshare+BTB at 1.8",
          "ipc", MEM,
          ("stream", "ICOUNT.1.16"), ("gshare+BTB", "ICOUNT.1.8"),
          1.035, tolerance=0.12),
    Claim("fig8b-2.16-worse-than-1.16",
          "Even ICOUNT.2.16 commits less than ICOUNT.1.16 for "
          "memory-bound workloads (gshare+BTB)",
          "ipc", MEM,
          ("gshare+BTB", "ICOUNT.2.16"), ("gshare+BTB", "ICOUNT.1.16"),
          0.95, tolerance=0.15),
)

FIG2_ANCHORS = {"ICOUNT.1.8": 4.7, "ICOUNT.1.16": 6.3}
"""Absolute IPFC anchors read off Figure 2 (gshare+BTB, gzip-twolf)."""

DISTRIBUTION_CLAIMS = {
    # (policy) -> {at_least_n: paper_fraction}; gshare+BTB on gzip-twolf.
    "ICOUNT.1.8": {4: 0.60, 8: 0.31},
    "ICOUNT.1.16": {8: 0.32, 16: 0.06},
    "ICOUNT.2.8": {4: 0.80, 8: 0.54},
    "ICOUNT.2.16": {8: 0.46, 16: 0.16},
}
"""Section 3.1/3.2: share of fetch cycles delivering >= n instructions."""

SUPERSCALAR_CLAIMS = {
    "gskew+FTB": 1.05,    # +5% IPC over gshare+BTB, single thread
    "stream": 1.11,       # +11% IPC over gshare+BTB, single thread
}
"""Section 3.3: single-thread (superscalar) engine speedups."""
