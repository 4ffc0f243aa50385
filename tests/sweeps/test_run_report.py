"""End-to-end sweep execution, aggregation and report rendering.

Simulations run at tiny windows over a single-benchmark workload so the
whole module stays fast; the interesting assertions are structural
(grouping, keys, determinism), not about absolute IPC.
"""

import csv
import io
import json

import pytest

from repro.campaign.cells import key_for
from repro.experiments import ExperimentSession
from repro.sweeps import (
    SweepSpec,
    format_csv,
    format_json,
    format_markdown,
    run_sweep,
)
from repro.sweeps.run import expand_cells

FAST = dict(cycles=300, warmup=150)


def fast_session(**kwargs) -> ExperimentSession:
    return ExperimentSession(**FAST, **kwargs)


def tiny_spec(**kwargs) -> SweepSpec:
    defaults = dict(
        axes={"ftq_depth": (1, 4), "workload": (("gzip",),),
              "engine": ("stream",), "policy": ("ICOUNT.1.8",)},
        metric="ipc")
    defaults.update(kwargs)
    return SweepSpec.of("tiny", defaults.pop("axes"), **defaults)


class TestMultiSeedKeys:
    def test_seed_replicates_get_distinct_cache_keys(self):
        # The replication axis must reach the content hash: otherwise
        # every "replicate" would silently recall the seed-0 result and
        # the confidence intervals would be fiction.
        session = fast_session()
        spec = tiny_spec().with_seeds(3)
        keys = {key_for(cell)
                for _, cell in expand_cells(spec, session)}
        assert len(keys) == spec.n_cells() == 6

    def test_seed_actually_changes_the_program(self):
        session = fast_session()
        result = run_sweep(tiny_spec().with_seeds(3), session)
        assert session.simulated == 6
        # Different synthetic programs; identical replicates would make
        # every CI zero, which defeats the seed axis.
        assert any(p.stats["ipc"].stdev > 0 for p in result.points)


class TestRunSweep:
    def test_replicates_grouped_into_design_points(self):
        result = run_sweep(tiny_spec().with_seeds(3), fast_session())
        assert len(result.points) == 2
        assert all(p.stats["ipc"].n == 3 for p in result.points)
        assert all("seed" not in p.point for p in result.points)

    def test_baseline_and_speedups(self):
        result = run_sweep(tiny_spec(), fast_session())
        baseline = result.baseline_point()
        assert baseline.point["ftq_depth"] == 1
        assert baseline.speedup == pytest.approx(1.0)
        for point in result.points:
            assert point.speedup == pytest.approx(
                point.stats["ipc"].mean / baseline.stats["ipc"].mean)

    def test_both_metrics_aggregated(self):
        result = run_sweep(tiny_spec(), fast_session())
        for point in result.points:
            assert set(point.stats) == {"ipc", "ipfc"}

    def test_sensitivity_ranks_varying_axes_only(self):
        spec = tiny_spec(
            axes={"ftq_depth": (1, 8), "cache_banks": (8,),
                  "workload": (("gzip",),), "engine": ("stream",)})
        result = run_sweep(spec, fast_session())
        axes = [axis for axis, _ in result.sensitivity]
        assert axes == ["ftq_depth"]
        assert all(rel >= 0 for _, rel in result.sensitivity)

    def test_cells_deduplicated_across_points(self):
        # Two axes values mapping to the same cell content collapse to
        # one simulation (ExperimentSession dedup, not sweep logic —
        # but the sweep must not defeat it).
        session = fast_session()
        spec = tiny_spec(axes={"ftq_depth": (4, 4, 1),
                               "workload": (("gzip",),),
                               "engine": ("stream",)})
        run_sweep(spec, session)
        assert session.simulated == 2

    def test_run_windows_reported(self):
        result = run_sweep(tiny_spec(), fast_session())
        assert result.cycles == 300
        assert result.warmup == 150


class TestReports:
    def run_tiny(self, seeds=2):
        session = fast_session()
        return run_sweep(tiny_spec().with_seeds(seeds), session)

    def test_markdown_has_stat_and_speedup_columns(self):
        md = format_markdown(self.run_tiny())
        assert "mean ipc" in md
        assert "95% CI" in md
        assert "speedup" in md
        assert "baseline" in md
        assert "Axis sensitivity" in md

    def test_csv_is_well_formed(self):
        rows = list(csv.DictReader(io.StringIO(
            format_csv(self.run_tiny()))))
        assert len(rows) == 2
        for row in rows:
            assert float(row["mean_ipc"]) >= 0
            assert float(row["ci95_ipc"]) >= 0
            assert row["speedup"]
        assert sorted(r["is_baseline"] for r in rows) == ["0", "1"]

    def test_json_round_trips(self):
        doc = json.loads(format_json(self.run_tiny()))
        assert doc["sweep"] == "tiny"
        assert doc["metric"] == "ipc"
        assert len(doc["points"]) == 2
        point = doc["points"][0]
        assert {"mean", "stdev", "ci95"} <= set(point["metrics"]["ipc"])
        assert doc["baseline"]["ftq_depth"] == "1"
        assert doc["sensitivity"]

    def test_unswept_reserved_axes_are_echoed(self):
        # A config-field-only sweep runs at documented defaults; every
        # report format must say so or the numbers are unreproducible.
        spec = SweepSpec.of("fixed", {"ftq_depth": (1, 4)})
        result = run_sweep(spec, fast_session())
        assert result.fixed == {"workload": "2_MIX", "engine": "stream",
                                "policy": "ICOUNT.1.8"}
        md = format_markdown(result)
        assert "Fixed (unswept)" in md and "workload=2_MIX" in md
        rows = list(csv.DictReader(io.StringIO(format_csv(result))))
        assert rows[0]["workload"] == "2_MIX"
        assert rows[0]["engine"] == "stream"
        doc = json.loads(format_json(result))
        assert doc["fixed"]["policy"] == "ICOUNT.1.8"

    def test_swept_axes_are_not_in_fixed(self):
        result = run_sweep(tiny_spec(), fast_session())
        assert result.fixed == {}

    def test_workload_tuples_render_joined(self):
        spec = tiny_spec(axes={"workload": (("gzip", "twolf"),),
                               "engine": ("stream",),
                               "ftq_depth": (1, 4)})
        md = format_markdown(run_sweep(spec, fast_session()))
        assert "gzip+twolf" in md


class TestWarmCacheDeterminism:
    def test_reports_identical_and_zero_simulations(self, tmp_path):
        spec = tiny_spec().with_seeds(2)
        cold = fast_session(cache_dir=tmp_path)
        report_cold = format_markdown(run_sweep(spec, cold))
        assert cold.simulated == 4

        warm = fast_session(cache_dir=tmp_path)
        report_warm = format_markdown(run_sweep(spec, warm))
        assert warm.simulated == 0
        assert warm.disk_hits == 4
        assert report_warm == report_cold
        assert format_csv(run_sweep(spec, warm)) \
            == format_csv(run_sweep(spec, cold))
