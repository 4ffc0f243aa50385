"""The run_sweep CLI: flag parsing, error surfacing, cache pruning.

The CLI module is imported from ``scripts/`` and driven in-process via
``main(argv)`` so failures produce assertable ``SystemExit`` messages
instead of subprocess plumbing; only the exit-status checks run it as
a process.
"""

import csv
import importlib.util
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[2] / "scripts"


def load_cli():
    spec = importlib.util.spec_from_file_location(
        "run_sweep_cli", SCRIPTS / "run_sweep.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


cli = load_cli()

FAST = ["--cycles", "300", "--warmup", "150"]


def run_cli(tmp_path, *extra, fmt="csv"):
    out = tmp_path / f"report.{fmt}"
    cli.main(["--cache-dir", str(tmp_path / "cache"), "--format", fmt,
              "--output", str(out), *FAST, *extra])
    return out.read_text(encoding="utf-8")


class TestFlagParsing:
    def test_axis_flag_parses_and_coerces(self):
        assert cli.parse_axis_flag("ftq_depth=1,2, 4") \
            == ("ftq_depth", (1, 2, 4))
        assert cli.parse_axis_flag("policy=ICOUNT.1.8,RR.1.8") \
            == ("policy", ("ICOUNT.1.8", "RR.1.8"))

    def test_axis_flag_requires_values(self):
        with pytest.raises(ValueError, match="no values"):
            cli.parse_axis_flag("ftq_depth=")
        with pytest.raises(ValueError, match="key=v1"):
            cli.parse_axis_flag("ftq_depth")

    def test_baseline_flag_parses(self):
        assert cli.parse_baseline_flag(["ftq_depth=4", "policy=RR.1.8"]) \
            == {"ftq_depth": 4, "policy": "RR.1.8"}

    def test_nothing_to_sweep_is_a_clean_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit, match="nothing to sweep"):
            cli.main(["--cache-dir", str(tmp_path)])


class TestErrorSurfacing:
    def test_unknown_workload_is_clean_not_a_traceback(self, tmp_path):
        # workload_benchmarks' KeyError (with its known-names hint) must
        # surface as a SystemExit message through the CLI.
        with pytest.raises(SystemExit) as err:
            cli.main(["--axis", "workload=9_NOPE", "--cache-dir",
                      str(tmp_path), *FAST])
        message = str(err.value)
        assert "9_NOPE" in message
        assert "2_ILP" in message          # the suggestion list
        assert "Traceback" not in message

    def test_unknown_axis_suggests_close_match(self, tmp_path):
        with pytest.raises(SystemExit, match="ftq_depth"):
            cli.main(["--axis", "ftq_dpeth=1,2", "--cache-dir",
                      str(tmp_path), *FAST])

    def test_bad_policy_is_clean(self, tmp_path):
        with pytest.raises(SystemExit, match="policy"):
            cli.main(["--axis", "policy=ICOUNT.8", "--cache-dir",
                      str(tmp_path), *FAST])

    @pytest.mark.parametrize("axis,message", [
        ("engine=foo", "unknown engine 'foo'; engines are gshare+BTB, "
                       "gskew+FTB, stream"),
        ("policy=ICOUNT.x.8", "bad policy parameters in 'ICOUNT.x.8'"),
    ])
    def test_bad_axis_value_exits_1_before_planning(self, tmp_path, axis,
                                                   message):
        # A usage error: exit 1 with the message, not a traceback, and
        # not exit 3 with the cell listed under a partial report's
        # failures.  No session is opened, so nothing is planned.
        proc = subprocess.run(
            [sys.executable, str(SCRIPTS / "run_sweep.py"), "--axis", axis,
             "--cache-dir", str(tmp_path / "cache"), *FAST],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(SCRIPTS.parent / "src")})
        assert (proc.returncode, proc.stdout, proc.stderr) \
            == (1, "", f"run_sweep: {message}\n")
        assert not (tmp_path / "cache").exists()

    def test_explicit_baseline_typo_errors_not_silently_dropped(
            self, tmp_path):
        # --baseline ftq_depth=3 when the axis is (1,2,4,8): computing
        # speedups against a silently-substituted denominator would be
        # worse than failing.
        with pytest.raises(SystemExit, match="not among"):
            cli.main(["--preset", "ftq_depth", "--baseline",
                      "ftq_depth=3", "--cache-dir", str(tmp_path),
                      *FAST])

    def test_stale_preset_baseline_dropped_on_axis_override(
            self, tmp_path):
        # The inherited ftq_depth=1 pin no longer names a declared
        # value; it must be dropped (baseline falls back to the first
        # value), not crash.
        text = run_cli(tmp_path, "--preset", "ftq_depth",
                       "--axis", "ftq_depth=2,8", fmt="json")
        assert json.loads(text)["baseline"]["ftq_depth"] == "2"


class TestEndToEnd:
    AXES = ["--axis", "ftq_depth=1,4", "--axis", "workload=2_MIX",
            "--axis", "engine=stream", "--axis", "policy=ICOUNT.1.8"]

    def test_custom_sweep_emits_well_formed_csv(self, tmp_path):
        text = run_cli(tmp_path, *self.AXES, "--seeds", "2")
        rows = list(csv.DictReader(io.StringIO(text)))
        assert len(rows) == 2
        assert {"mean_ipc", "ci95_ipc", "speedup"} <= set(rows[0])
        assert all(row["n"] == "2" for row in rows)

    def test_preset_with_axis_override_and_json(self, tmp_path):
        text = run_cli(tmp_path, "--preset", "ftq_depth",
                       "--axis", "ftq_depth=1,8", fmt="json")
        doc = json.loads(text)
        assert doc["sweep"] == "ftq_depth"
        assert [a for a in doc["axes"]
                if a["axis"] == "ftq_depth"][0]["values"] == ["1", "8"]

    def test_warm_rerun_is_byte_identical(self, tmp_path):
        first = run_cli(tmp_path, *self.AXES)
        second = run_cli(tmp_path, *self.AXES)
        assert first == second

    def test_list_presets(self, capsys):
        cli.main(["--list-presets"])
        out = capsys.readouterr().out
        for name in ("policy_width", "ftq_depth", "bank_conflicts",
                     "engine_shootout", "seed_stability"):
            assert name in out

    def test_list_presets_reports_cell_counts(self, capsys):
        import re
        from repro.sweeps import PRESETS
        cli.main(["--list-presets"])
        out = capsys.readouterr().out
        counts = [int(m) for m in re.findall(r"\((\d+) cells\)", out)]
        assert counts == [spec.n_cells() for spec in PRESETS.values()]

    def test_unknown_backend_axis_value_suggests(self, tmp_path):
        with pytest.raises(SystemExit, match="reference"):
            cli.main(["--axis", "backend=refrence", "--cache-dir",
                      str(tmp_path), *FAST])

    def test_prune_cache_bounds_the_store(self, tmp_path, capsys):
        run_cli(tmp_path, *self.AXES, "--seeds", "3",
                "--prune-cache", "2")
        err = capsys.readouterr().err
        assert "cache pruned: 4 entry(ies) evicted" in err
        cache_files = list((tmp_path / "cache").glob("??/*.json"))
        assert len(cache_files) == 2

    def test_prune_with_no_cache_rejected(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            cli.main(["--preset", "ftq_depth", "--no-cache",
                      "--prune-cache", "5"])
