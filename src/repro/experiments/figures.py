"""Grid specifications for every figure in the paper's evaluation.

Tables 1-3 are configuration artifacts (Table 1 is regenerated by
the ``table1`` section of ``scripts/run_experiments.py``, and all
three are asserted in ``tests/core/test_config_workloads.py``); the
figures below are measurement grids.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.workloads import ILP_WORKLOADS, MEM_WORKLOADS

ALL_ENGINES = ("gshare+BTB", "gskew+FTB", "stream")


@dataclass(frozen=True)
class FigureSpec:
    """One paper figure: a (workload x engine x policy) measurement grid.

    Attributes:
        fig_id: Identifier, e.g. ``"fig5a"``.
        title: The paper's caption, abbreviated.
        metric: ``"ipfc"`` (fetch throughput) or ``"ipc"`` (commit).
        workloads / engines / policies: Grid axes, in plotting order.
    """

    fig_id: str
    title: str
    metric: str
    workloads: tuple[str, ...]
    engines: tuple[str, ...]
    policies: tuple[str, ...]


FIGURES: dict[str, FigureSpec] = {
    "fig2": FigureSpec(
        "fig2",
        "Fetch throughput of gshare+BTB fetching one thread (gzip-twolf)",
        "ipfc", ("2_MIX",), ("gshare+BTB",),
        ("ICOUNT.1.8", "ICOUNT.1.16")),
    "fig4": FigureSpec(
        "fig4",
        "Fetch throughput of gshare+BTB fetching two threads (gzip-twolf)",
        "ipfc", ("2_MIX",), ("gshare+BTB",),
        ("ICOUNT.1.8", "ICOUNT.2.8", "ICOUNT.1.16", "ICOUNT.2.16")),
    "fig5a": FigureSpec(
        "fig5a", "Fetch throughput, ICOUNT.1.8 vs 2.8, ILP workloads",
        "ipfc", ILP_WORKLOADS, ALL_ENGINES,
        ("ICOUNT.1.8", "ICOUNT.2.8")),
    "fig5b": FigureSpec(
        "fig5b", "Commit throughput, ICOUNT.1.8 vs 2.8, ILP workloads",
        "ipc", ILP_WORKLOADS, ALL_ENGINES,
        ("ICOUNT.1.8", "ICOUNT.2.8")),
    "fig6a": FigureSpec(
        "fig6a", "Fetch throughput, ICOUNT.2.8 vs 1.16 vs 2.16, ILP",
        "ipfc", ILP_WORKLOADS, ALL_ENGINES,
        ("ICOUNT.2.8", "ICOUNT.1.16", "ICOUNT.2.16")),
    "fig6b": FigureSpec(
        "fig6b", "Commit throughput, ICOUNT.2.8 vs 1.16 vs 2.16, ILP",
        "ipc", ILP_WORKLOADS, ALL_ENGINES,
        ("ICOUNT.2.8", "ICOUNT.1.16", "ICOUNT.2.16")),
    "fig7a": FigureSpec(
        "fig7a", "Fetch throughput, ICOUNT.1.8 vs 2.8, MIX & MEM",
        "ipfc", MEM_WORKLOADS, ALL_ENGINES,
        ("ICOUNT.1.8", "ICOUNT.2.8")),
    "fig7b": FigureSpec(
        "fig7b", "Commit throughput, ICOUNT.1.8 vs 2.8, MIX & MEM",
        "ipc", MEM_WORKLOADS, ALL_ENGINES,
        ("ICOUNT.1.8", "ICOUNT.2.8")),
    "fig8a": FigureSpec(
        "fig8a", "Fetch throughput, ICOUNT.1.8 vs 1.16 vs 2.16, MIX & MEM",
        "ipfc", MEM_WORKLOADS, ALL_ENGINES,
        ("ICOUNT.1.8", "ICOUNT.1.16", "ICOUNT.2.16")),
    "fig8b": FigureSpec(
        "fig8b", "Commit throughput, ICOUNT.1.8 vs 1.16 vs 2.16, MIX & MEM",
        "ipc", MEM_WORKLOADS, ALL_ENGINES,
        ("ICOUNT.1.8", "ICOUNT.1.16", "ICOUNT.2.16")),
}
"""Every measured figure of the paper, keyed by id."""
