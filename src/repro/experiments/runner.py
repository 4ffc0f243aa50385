"""Figure values and claim ratios from measured cells, and their tables.

:func:`figure_result` and :func:`claim_outcomes` turn a batch of
measured cells into a figure's bar heights and the paper claims'
ratios.  :class:`~repro.experiments.session.ExperimentSession`'s
``run_figure``/``check_claims`` and the paper document
(``scripts/run_experiments.py``) both compute through them, so a table
reads the same whichever way it was produced.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field

from repro.campaign.cells import Cell
from repro.core.metrics import SimResult
from repro.experiments.figures import FigureSpec
from repro.experiments.paper_data import Claim

Grid = Mapping[tuple, SimResult]
"""Measured cells keyed by ``(workload, engine, policy)``."""


def grid_of(results: Mapping[Cell, SimResult]) -> dict[tuple, SimResult]:
    """Re-key a ``run_cells`` result map by (workload, engine, policy).

    Meaningful for a batch whose cells share run windows and machine
    configuration, as every figure, claim and document batch does.
    """
    return {(cell.workload, cell.engine, cell.policy): result
            for cell, result in results.items()}


def metric_value(result: SimResult, metric: str) -> float:
    """The figure/claim metric of one cell: ``ipfc`` or ``ipc``."""
    return result.ipfc if metric == "ipfc" else result.ipc


@dataclass
class FigureResult:
    """A regenerated figure: values in the paper's plotting order."""

    spec: FigureSpec
    cycles: int
    values: dict[tuple[str, str, str], float] = field(default_factory=dict)

    def value(self, workload: str, engine: str, policy: str) -> float:
        """The bar height for one (workload, engine, policy) cell."""
        return self.values[(workload, engine, policy)]


def figure_result(spec: FigureSpec, cycles: int,
                  grid: Grid) -> FigureResult:
    """A figure's bar heights, in plotting order, read from ``grid``.

    A cell absent from ``grid`` (it failed after retries) is absent
    from ``values`` too, and :func:`format_figure` marks it.
    """
    out = FigureResult(spec, cycles)
    for workload in spec.workloads:
        for engine in spec.engines:
            for policy in spec.policies:
                result = grid.get((workload, engine, policy))
                if result is not None:
                    out.values[(workload, engine, policy)] = \
                        metric_value(result, spec.metric)
    return out


def format_figure(result: FigureResult) -> str:
    """ASCII rendering of a figure, bars grouped as in the paper.

    Cells missing from ``result.values`` (partial-results mode: the
    cell failed after retries) render ``FAILED`` instead of a value —
    a degraded figure is visibly degraded, never silently sparse.
    """
    spec = result.spec
    lines = [f"{spec.fig_id}: {spec.title}",
             f"(metric: {spec.metric.upper()}, {result.cycles} measured "
             f"cycles per cell)"]
    header = f"{'workload':10s} {'policy':14s}" + "".join(
        f"{engine:>13s}" for engine in spec.engines)
    lines.append(header)
    lines.append("-" * len(header))
    for workload in spec.workloads:
        for policy in spec.policies:
            cells = ""
            for engine in spec.engines:
                value = result.values.get((workload, engine, policy))
                cells += f"{value:13.2f}" if value is not None \
                    else f"{'FAILED':>13s}"
            lines.append(f"{workload:10s} {policy:14s}{cells}")
    return "\n".join(lines)


@dataclass(frozen=True)
class ClaimOutcome:
    """Measured counterpart of one paper claim."""

    claim: Claim
    measured_ratio: float

    @property
    def holds(self) -> bool:
        """True when the measured ratio is within the claim tolerance."""
        return abs(self.measured_ratio - self.claim.paper_ratio) \
            <= self.claim.tolerance

    @property
    def direction_holds(self) -> bool:
        """True when at least the sign of the effect matches."""
        paper_up = self.claim.paper_ratio >= 1.0
        return (self.measured_ratio >= 1.0) == paper_up \
            or abs(self.measured_ratio - 1.0) < 0.02


def claim_outcomes(claims: Iterable[Claim],
                   grid: Grid) -> list[ClaimOutcome]:
    """Each claim's ratio: mean numerator over mean denominator.

    Every cell behind ``claims`` must be in ``grid``; a missing one
    raises :class:`KeyError`.
    """
    outcomes = []
    for claim in claims:
        def mean(side: tuple[str, str]) -> float:
            values = [metric_value(grid[(workload, *side)], claim.metric)
                      for workload in claim.workloads]
            return sum(values) / len(values)

        outcomes.append(ClaimOutcome(claim, mean(claim.numer)
                                     / mean(claim.denom)))
    return outcomes


def format_claims(outcomes: list[ClaimOutcome]) -> str:
    """Tabular paper-vs-measured report."""
    lines = [f"{'claim':34s} {'paper':>7s} {'measured':>9s} {'holds':>6s}"]
    lines.append("-" * len(lines[0]))
    for outcome in outcomes:
        verdict = "yes" if outcome.holds else \
            ("dir" if outcome.direction_holds else "NO")
        lines.append(
            f"{outcome.claim.claim_id:34s} "
            f"{outcome.claim.paper_ratio:7.3f} "
            f"{outcome.measured_ratio:9.3f} {verdict:>6s}")
    return "\n".join(lines)
