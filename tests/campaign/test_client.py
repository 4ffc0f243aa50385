"""Cache auditing and the CLI campaign flags.

``ResultCache.verify()`` quarantines corruption proactively and sweeps
stale temp-file debris, and the CLIs expose plan/resume/verify as thin
clients of the campaign engine; the external worker CLI drains a
planned campaign through the same bootstrap as a spawned worker.
"""

import importlib.util
import json
import os
import time
from pathlib import Path

import pytest

from repro.campaign.worker import DrainStats
from repro.experiments import ExperimentSession
from repro.experiments.cache import DEBRIS_AGE_SECONDS, ResultCache
from repro.obs.journal import read_events
from repro.obs.status import read_queue_counts
from repro.resilience import FaultSpec, inject_faults

SCRIPTS = Path(__file__).resolve().parents[2] / "scripts"

FAST = dict(cycles=300, warmup=150)
FAST_FLAGS = ["--cycles", "300", "--warmup", "150"]


def load_cli(name):
    spec = importlib.util.spec_from_file_location(
        f"{name}_cli", SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


sweep_cli = load_cli("run_sweep")


def one_cell(session):
    return [session.make_cell("2_MIX", "stream", "ICOUNT.1.8")]


class TestCacheVerify:
    def fill(self, tmp_path, n_seeds=3):
        session = ExperimentSession(cache_dir=tmp_path / "cache", **FAST)
        session.run_cells(
            [session.make_cell("2_MIX", "stream", "ICOUNT.1.8", None,
                               None, session.config.with_(seed=seed))
             for seed in range(n_seeds)])
        return ResultCache(tmp_path / "cache")

    def test_healthy_cache_verifies_clean(self, tmp_path):
        cache = self.fill(tmp_path)
        assert cache.verify() == {"checked": 3, "healthy": 3,
                                  "quarantined": 0, "corrupt": [],
                                  "debris": 0}

    def test_corrupt_entries_are_quarantined_proactively(self, tmp_path):
        cache = self.fill(tmp_path)
        entries = sorted(cache.root.glob("??/*.json"))
        entries[0].write_text('{"key": "torn', encoding="utf-8")
        payload = json.loads(entries[1].read_text(encoding="utf-8"))
        payload["schema"] = -1
        entries[1].write_text(json.dumps(payload), encoding="utf-8")

        audit = cache.verify()
        assert (audit["checked"], audit["healthy"],
                audit["quarantined"]) == (3, 1, 2)
        assert sorted(c["key"] for c in audit["corrupt"]) == \
            sorted(e.stem for e in entries[:2])
        # The bad files moved out of the addressable tree, with reasons.
        assert sorted(p.name for p in entries
                      if p.exists()) == [entries[2].name]
        reasons = sorted(cache.quarantine_root.glob("*.reason.txt"))
        assert len(reasons) == 2
        # And a re-verify has nothing left to complain about.
        assert cache.verify() == {"checked": 1, "healthy": 1,
                                  "quarantined": 0, "corrupt": [],
                                  "debris": 0}

    def test_stale_temp_debris_is_removed_and_counted_once(self,
                                                          tmp_path):
        # What a writer killed between mkstemp and os.replace leaves
        # behind: one file in a fan-out directory, one in an older
        # campaign's heartbeats/ directory under the default campaign
        # root.  A fresh temp file may be a write in flight.
        cache = ResultCache(tmp_path / "cache")
        stale = [cache.root / "ab" / "tmpq1w2.tmp",
                 cache.root / "campaigns" / "feedface" / "heartbeats"
                 / "tmpk3j2.tmp"]
        fresh = cache.root / "cd" / "tmpz9y8.tmp"
        old = time.time() - DEBRIS_AGE_SECONDS - 60.0
        for path in (*stale, fresh):
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text("{", encoding="utf-8")
        for path in stale:
            os.utime(path, (old, old))
        assert cache.verify()["debris"] == 2
        assert not any(path.exists() for path in stale)
        assert fresh.exists()
        assert cache.verify()["debris"] == 0

    def test_old_state_files_are_not_debris(self, tmp_path):
        # Age alone condemns nothing: entries, a campaign's queue,
        # manifest and journal under the default campaign root and the
        # quarantine's reason files are state, however old.
        cache = self.fill(tmp_path)
        cdir = cache.root / "campaigns" / "feedface"
        cdir.mkdir(parents=True)
        for name in ("queue.sqlite", "manifest.json", "events.jsonl"):
            (cdir / name).write_text("{}", encoding="utf-8")
        cache.quarantine_root.mkdir(parents=True, exist_ok=True)
        (cache.quarantine_root / "k9.reason.txt").write_text(
            "bad magic", encoding="utf-8")
        kept = [p for p in cache.root.rglob("*") if p.is_file()]
        old = time.time() - DEBRIS_AGE_SECONDS - 60.0
        for path in kept:
            os.utime(path, (old, old))
        report = cache.verify()
        assert (report["healthy"], report["debris"]) == (3, 0)
        assert all(path.exists() for path in kept)

    def test_quarantined_cells_resimulate_once(self, tmp_path):
        cache = self.fill(tmp_path, n_seeds=1)
        (entry,) = cache.root.glob("??/*.json")
        entry.write_text("garbage", encoding="utf-8")
        cache.verify()
        session = ExperimentSession(cache_dir=tmp_path / "cache", **FAST)
        session.run_cells(one_cell(session))
        assert session.simulated == 1          # healed, not looped


class TestSweepCliCampaignFlags:
    def plan(self, tmp_path, capsys, *extra):
        sweep_cli.main(["--axis", "ftq_depth=1,2", *FAST_FLAGS,
                        "--cache-dir", str(tmp_path / "cache"),
                        "--plan-only", *extra])
        out = capsys.readouterr()
        return out.out.strip(), out.err

    def test_plan_only_writes_campaign_state(self, tmp_path, capsys):
        cid, err = self.plan(tmp_path, capsys)
        assert "campaign planned under" in err
        campaign = tmp_path / "cache" / "campaigns" / cid
        assert (campaign / "manifest.json").is_file()
        assert (campaign / "queue.sqlite").is_file()

    def test_resume_accepts_the_planned_id(self, tmp_path, capsys):
        cid, _ = self.plan(tmp_path, capsys)
        out = tmp_path / "report.csv"
        sweep_cli.main(["--axis", "ftq_depth=1,2", *FAST_FLAGS,
                        "--cache-dir", str(tmp_path / "cache"),
                        "--resume", cid, "--format", "csv",
                        "--output", str(out)])
        err = capsys.readouterr().err
        assert f"campaign {cid}" in err
        # Provenance rides in the report as a constant trailing column.
        header, first, *_ = out.read_text(encoding="utf-8").splitlines()
        assert header.endswith(",campaign")
        assert first.endswith(f",{cid}")

    def test_resume_rejects_a_different_grid(self, tmp_path, capsys):
        cid, _ = self.plan(tmp_path, capsys)
        with pytest.raises(SystemExit,
                           match="does not match this invocation"):
            sweep_cli.main(["--axis", "ftq_depth=1,2,4", *FAST_FLAGS,
                            "--cache-dir", str(tmp_path / "cache"),
                            "--resume", cid])

    def test_verify_cache_runs_before_the_sweep(self, tmp_path, capsys):
        out = tmp_path / "report.md"
        argv = ["--axis", "ftq_depth=1", *FAST_FLAGS,
                "--cache-dir", str(tmp_path / "cache"),
                "--output", str(out)]
        sweep_cli.main(argv)
        (entry,) = (tmp_path / "cache").glob("??/*.json")
        entry.write_text("garbage", encoding="utf-8")
        sweep_cli.main(argv + ["--verify-cache"])
        err = capsys.readouterr().err
        assert "cache verify: 1 checked, 0 healthy, 1 quarantined, " \
            "0 stale temp file(s) removed" in err

    def test_verify_cache_requires_a_cache(self, tmp_path):
        with pytest.raises(SystemExit):
            sweep_cli.main(["--axis", "ftq_depth=1", "--no-cache",
                            "--verify-cache"])

    def test_plan_only_requires_a_campaign_dir(self, tmp_path):
        with pytest.raises(SystemExit):
            sweep_cli.main(["--axis", "ftq_depth=1", "--no-cache",
                            "--plan-only"])


class TestWorkerCliRoundTrip:
    def test_external_worker_drains_a_planned_campaign(self, tmp_path,
                                                       capsys):
        worker_cli = load_cli("campaign_worker")
        sweep_cli.main(["--axis", "ftq_depth=1,2", *FAST_FLAGS,
                        "--cache-dir", str(tmp_path / "cache"),
                        "--plan-only"])
        cid = capsys.readouterr().out.strip()

        cdir = tmp_path / "cache" / "campaigns" / cid
        worker_cli.main(["--campaign", str(cdir),
                         "--cache-dir", str(tmp_path / "cache"),
                         "--worker-id", "cli-w", "--no-wait"])
        err = capsys.readouterr().err
        assert "cli-w: 2 cell(s) executed" in err
        assert "done=2" in err
        # The CLI drains through the spawned workers' bootstrap: it
        # journals its own lifecycle, and its liveness lives only in
        # the queue rows it leases.
        events = [e for e in read_events(cdir / "events.jsonl")
                  if e["worker"] == "cli-w"]
        assert any(e["ev"] == "worker_start" for e in events)
        (exit_event,) = [e for e in events if e["ev"] == "worker_exit"]
        assert exit_event["executed"] == 2
        assert not (cdir / "heartbeats").exists()

        # The warm resume assembles the report with zero simulations.
        out = tmp_path / "report.md"
        sweep_cli.main(["--axis", "ftq_depth=1,2", *FAST_FLAGS,
                        "--cache-dir", str(tmp_path / "cache"),
                        "--resume", cid, "--output", str(out)])
        err = capsys.readouterr().err
        assert "0 cell(s) simulated" in err
        assert f"Campaign `{cid}`" in out.read_text(encoding="utf-8")

    def test_worker_refuses_an_unplanned_campaign(self, tmp_path):
        worker_cli = load_cli("campaign_worker")
        with pytest.raises(SystemExit, match="no queue at"):
            worker_cli.main(["--campaign", str(tmp_path / "nowhere")])

    def plan(self, tmp_path, capsys, where=None):
        """Plan the two-cell grid; optionally move the campaign to
        ``where`` (a directory not named after its id)."""
        sweep_cli.main(["--axis", "ftq_depth=1,2", *FAST_FLAGS,
                        "--cache-dir", str(tmp_path / "cache"),
                        "--plan-only"])
        cid = capsys.readouterr().out.strip()
        cdir = tmp_path / "cache" / "campaigns" / cid
        if where is not None:
            cdir = cdir.rename(where)
        return cid, cdir

    def drain_cli(self, tmp_path, cdir, *extra):
        load_cli("campaign_worker").main(
            ["--campaign", str(cdir), "--cache-dir",
             str(tmp_path / "cache"), "--worker-id", "cli-w",
             "--no-wait", *extra])

    def worker_starts(self, cdir):
        return [e for e in read_events(cdir / "events.jsonl")
                if e["ev"] == "worker_start"]

    def test_journal_names_the_manifest_campaign(self, tmp_path,
                                                 capsys):
        cid, cdir = self.plan(tmp_path, capsys, tmp_path / "moved")
        self.drain_cli(tmp_path, cdir)
        assert [e["campaign"] for e in self.worker_starts(cdir)] == [cid]

    def test_campaign_id_falls_back_to_the_directory_name(self, tmp_path,
                                                          capsys):
        _, cdir = self.plan(tmp_path, capsys, tmp_path / "moved")
        (cdir / "manifest.json").unlink()
        self.drain_cli(tmp_path, cdir)
        assert "done=2" in capsys.readouterr().err
        assert [e["campaign"] for e in self.worker_starts(cdir)] \
            == ["moved"]

    def test_failed_cells_exit_3(self, tmp_path, capsys):
        _, cdir = self.plan(tmp_path, capsys)
        with inject_faults(FaultSpec(kind="raise", match="ftq_depth=2",
                                     times=1),
                           spool=tmp_path / "spool"):
            with pytest.raises(SystemExit) as exc:
                self.drain_cli(tmp_path, cdir)
        assert exc.value.code == 3
        err = capsys.readouterr().err
        assert "cli-w: 1 cell(s) executed, 1 failed attempt(s)" in err
        assert "queue now done=1 failed=1" in err

    def test_no_cache_leaves_results_in_the_queue_only(self, tmp_path,
                                                       capsys):
        _, cdir = self.plan(tmp_path, capsys)
        self.drain_cli(tmp_path, cdir, "--no-cache")
        assert "done=2" in capsys.readouterr().err
        assert len(ResultCache(tmp_path / "cache")) == 0

    def test_disk_floor_refuses_to_start(self, tmp_path, capsys,
                                         monkeypatch):
        _, cdir = self.plan(tmp_path, capsys)
        monkeypatch.setenv("REPRO_DISK_FLOOR_MB", "1e12")
        with pytest.raises(SystemExit,
                           match="campaign_worker: only .* MB free"):
            self.drain_cli(tmp_path, cdir)
        assert read_queue_counts(cdir) == {"pending": 2}
        assert self.worker_starts(cdir) == []

    def test_flags_reach_the_bootstrap(self, tmp_path, capsys,
                                       monkeypatch):
        worker_cli = load_cli("campaign_worker")
        cdir = tmp_path / "somewhere"
        cdir.mkdir()
        (cdir / "queue.sqlite").touch()
        (cdir / "manifest.json").write_text(
            json.dumps({"campaign": "feedface"}), encoding="utf-8")
        calls = []

        def bootstrap(*args, **kwargs):
            calls.append((args, kwargs))
            return DrainStats(executed=1), {"done": 3}

        monkeypatch.setattr(worker_cli, "worker_process_entry",
                            bootstrap)
        monkeypatch.setenv("REPRO_DISK_FLOOR_MB", "0")
        worker_cli.main(["--campaign", str(cdir), "--no-cache",
                         "--worker-id", "w7", "--cell-timeout", "9",
                         "--lease-seconds", "45", "--no-wait"])
        ((args, kwargs),) = calls
        assert args == (str(cdir / "queue.sqlite"), "w7", None, 9.0,
                        45.0)
        assert kwargs == {
            "journal_path": str(cdir / "events.jsonl"),
            "campaign_id": "feedface", "wait": False}
        err = capsys.readouterr().err
        assert "w7: 1 cell(s) executed, 0 failed attempt(s) in " in err
        assert err.rstrip().endswith("queue now done=3")

    def test_lease_batch_is_not_a_flag(self, tmp_path, capsys):
        # A lease is always one cell; a script that still passes the
        # retired flag is told so instead of silently ignored.
        worker_cli = load_cli("campaign_worker")
        with pytest.raises(SystemExit) as exc:
            worker_cli.parse_args(["--campaign", str(tmp_path),
                                   "--lease-batch", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --lease-batch 2" \
            in capsys.readouterr().err

    @pytest.mark.parametrize("flag", [
        "--lease-seconds", "--cell-timeout",
    ])
    def test_rejects_out_of_range_flags(self, tmp_path, capsys, flag):
        worker_cli = load_cli("campaign_worker")
        with pytest.raises(SystemExit) as exc:
            worker_cli.parse_args(["--campaign", str(tmp_path), flag,
                                   "0"])
        assert exc.value.code == 2
        assert f"{flag} must be" in capsys.readouterr().err
