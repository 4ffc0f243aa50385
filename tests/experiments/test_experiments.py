"""Tests for the experiment harness (figures, claims, runner).

The ablation shape checks run at 6000 measured + 6000 warm-up cycles,
the window their inequalities were established at; shorter windows
are too noisy for them.
"""

import pytest

from repro.core.config import DEFAULT_CONFIG
from repro.core.workloads import WORKLOADS
from repro.experiments import (
    FIGURES,
    PAPER_CLAIMS,
    ExperimentSession,
    format_claims,
    format_figure,
)
from repro.experiments.figures import ALL_ENGINES
from repro.experiments.runner import ClaimOutcome, claim_outcomes
from repro.resilience import CellExecutionError, FaultSpec, inject_faults
from repro.sweeps import PRESETS, run_sweep

SHAPE_WINDOW = dict(cycles=6000, warmup=6000)

FIG4_CLAIM = tuple(c for c in PAPER_CLAIMS
                   if c.claim_id == "fig4-2.8-vs-1.8")


@pytest.fixture(scope="module")
def session():
    return ExperimentSession(cycles=800, warmup=400)


@pytest.fixture(scope="module")
def shape_session():
    return ExperimentSession(**SHAPE_WINDOW)


class TestFigureSpecs:
    def test_all_ten_figures_defined(self):
        assert set(FIGURES) == {"fig2", "fig4", "fig5a", "fig5b", "fig6a",
                                "fig6b", "fig7a", "fig7b", "fig8a",
                                "fig8b"}

    def test_metrics_valid(self):
        for spec in FIGURES.values():
            assert spec.metric in ("ipfc", "ipc")

    def test_workloads_exist(self):
        for spec in FIGURES.values():
            for workload in spec.workloads:
                assert workload in WORKLOADS

    def test_fetch_commit_figure_pairs_share_grids(self):
        for a, b in (("fig5a", "fig5b"), ("fig6a", "fig6b"),
                     ("fig7a", "fig7b"), ("fig8a", "fig8b")):
            sa, sb = FIGURES[a], FIGURES[b]
            assert sa.workloads == sb.workloads
            assert sa.policies == sb.policies
            assert (sa.metric, sb.metric) == ("ipfc", "ipc")


class TestRunner:
    def test_measure_caches(self, session):
        a = session.measure("2_MIX", "gshare+BTB", "ICOUNT.1.8")
        b = session.measure("2_MIX", "gshare+BTB", "ICOUNT.1.8")
        assert a is b

    def test_run_figure_fills_grid(self, session):
        result = session.run_figure(FIGURES["fig2"])
        assert len(result.values) == 2
        assert result.value("2_MIX", "gshare+BTB", "ICOUNT.1.8") > 0

    def test_format_figure_contains_cells(self, session):
        result = session.run_figure(FIGURES["fig2"])
        text = format_figure(result)
        assert "fig2" in text
        assert "ICOUNT.1.16" in text

    def test_partial_figure_marks_its_failed_cell(self):
        partial = ExperimentSession(cycles=300, warmup=100, strict=False)
        with inject_faults(FaultSpec("raise", "ICOUNT.1.16", times=100)):
            result = partial.run_figure(FIGURES["fig2"])
        assert list(result.values) == [("2_MIX", "gshare+BTB",
                                        "ICOUNT.1.8")]
        (wide,) = [line for line in format_figure(result).splitlines()
                   if "ICOUNT.1.16" in line]
        assert wide.endswith("FAILED")
        assert partial.simulated == 2
        assert len(partial.failures) == 1


class TestClaims:
    def test_claim_grid_cells_are_valid(self):
        for claim in PAPER_CLAIMS:
            for engine, policy in (claim.numer, claim.denom):
                assert engine in ALL_ENGINES
                assert policy.startswith(("ICOUNT.", "RR."))
            for workload in claim.workloads:
                assert workload in WORKLOADS

    def test_check_claims_computes_ratios(self, session):
        outcomes = session.check_claims(FIG4_CLAIM)
        assert len(outcomes) == 1
        assert outcomes[0].measured_ratio > 0

    def test_format_claims(self, session):
        text = format_claims(session.check_claims(FIG4_CLAIM))
        assert "fig4-2.8-vs-1.8" in text

    def test_outcome_verdicts(self):
        claim = PAPER_CLAIMS[0]
        assert ClaimOutcome(claim, claim.paper_ratio).holds
        missed = ClaimOutcome(claim, claim.paper_ratio
                              + claim.tolerance + 0.01)
        assert not missed.holds
        inverted = ClaimOutcome(claim, 1 / claim.paper_ratio)
        assert not inverted.direction_holds or claim.paper_ratio == 1

    def test_ratio_is_mean_numerator_over_mean_denominator(self, session):
        (claim,) = FIG4_CLAIM
        numer = session.measure("2_MIX", *claim.numer).ipfc
        denom = session.measure("2_MIX", *claim.denom).ipfc
        (outcome,) = session.check_claims(FIG4_CLAIM)
        assert outcome.measured_ratio == numer / denom

    def test_claim_outcomes_need_every_cell(self, session):
        (claim,) = FIG4_CLAIM
        grid = {("2_MIX", *claim.numer):
                session.measure("2_MIX", *claim.numer)}
        with pytest.raises(KeyError):
            claim_outcomes(FIG4_CLAIM, grid)

    def test_partial_check_claims_raises_without_reexecuting(self):
        partial = ExperimentSession(cycles=300, warmup=100, strict=False)
        with inject_faults(FaultSpec("raise", "ICOUNT.2.8", times=100)):
            with pytest.raises(CellExecutionError):
                partial.check_claims(FIG4_CLAIM)
        assert partial.simulated == 2
        assert len(partial.failures) == 1


class TestAblationShapes:
    """Inequalities the paper's ablations imply, at the shape window."""

    def test_deeper_ftq_does_not_hurt(self, shape_session):
        # Decoupling must not hurt: the deepest swept queue commits at
        # least 95% of what the shallowest does.
        result = run_sweep(PRESETS["ftq_depth"], shape_session)
        ipc = {p.point["ftq_depth"]: p.stats["ipc"].mean
               for p in result.points}
        assert len(ipc) == 4
        assert ipc[max(ipc)] >= 0.95 * ipc[min(ipc)]

    def test_clog_persists_across_queue_sizes(self, shape_session):
        # The 2.8 commit loss on 2_MIX (Figure 7's clog) is present at
        # Table 3's 32-entry queues and does not turn into a clear 2.8
        # win when all three queues shrink or grow: the stalled thread
        # then clogs registers and ROB instead.
        sizes = (16, 32, 96)
        cells = {(iq, policy): shape_session.make_cell(
                     "2_MIX", "gshare+BTB", policy,
                     config=DEFAULT_CONFIG.with_(iq_int=iq, iq_ldst=iq,
                                                 iq_fp=iq))
                 for iq in sizes for policy in ("ICOUNT.1.8", "ICOUNT.2.8")}
        results = shape_session.run_cells(cells.values())
        gaps = {}
        for iq in sizes:
            one = results[cells[(iq, "ICOUNT.1.8")]].ipc
            two = results[cells[(iq, "ICOUNT.2.8")]].ipc
            gaps[iq] = (one - two) / one
        assert gaps[32] > -0.05
        assert all(gap > -0.10 for gap in gaps.values()), gaps
