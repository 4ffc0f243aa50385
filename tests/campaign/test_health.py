"""The fleet health layer: heartbeats, graceful drain, poison cells,
resource guards and the campaign doctor.

Unit coverage for :mod:`repro.campaign.health` plus the queue/worker
behaviours it unlocks (lease renewal by heartbeat, early release of
heartbeat-stale owners, poisoned settlement, interrupt unleasing, the
ENOSPC-degraded cache) and two integration paths: SIGTERM draining a
real external worker with a byte-identical resume, and
``campaign_doctor --repair`` restoring a wrecked campaign directory.
"""

import errno
import importlib.util
import os
import signal
import sqlite3
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import pytest

from repro.campaign import worker as worker_mod
from repro.campaign.health import (
    DrainControl,
    HeartbeatStore,
    ResourceGuardError,
    check_free_disk,
    disk_floor_bytes,
    is_enospc,
    set_memory_limit,
)
from repro.campaign.queue import CellQueue
from repro.campaign.worker import drain
from repro.experiments.cache import ResultCache
from repro.obs.status import load_journal, read_queue_counts

SCRIPTS = Path(__file__).resolve().parents[2] / "scripts"

FAST_FLAGS = ["--cycles", "300", "--warmup", "150"]


def load_cli(name):
    spec = importlib.util.spec_from_file_location(
        f"{name}_cli", SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def entry(n):
    return (f"key{n}", {"cell": n}, f"label{n}")


def fill(queue, n=3, **kwargs):
    return queue.add([entry(i) for i in range(n)], **kwargs)


class RecordingJournal:
    enabled = True
    path = None

    def __init__(self):
        self.events = []

    def emit(self, ev, **fields):
        self.events.append((ev, fields))

    def close(self):
        pass

    def of(self, ev):
        return [fields for name, fields in self.events if name == ev]


class TestHeartbeatStore:
    def test_beat_read_age_roundtrip(self, tmp_path):
        beats = HeartbeatStore(tmp_path)
        assert beats.age("w") is None          # never beat
        beats.beat("w", executed=3)
        record = beats.read("w")
        assert record["worker"] == "w" and record["executed"] == 3
        assert record["pid"] == os.getpid()
        age = beats.age("w")
        assert age is not None and 0 <= age < 5.0
        assert list(beats.ages()) == ["w"]

    def test_clear_removes_the_file(self, tmp_path):
        beats = HeartbeatStore(tmp_path)
        beats.beat("w")
        beats.clear("w")
        assert beats.age("w") is None
        assert beats.ages() == {}
        beats.clear("w")                       # idempotent

    def test_age_is_mtime_based(self, tmp_path):
        # Tests (and the doctor) manipulate liveness via utime, so age
        # must come from the file clock, not the record contents.
        beats = HeartbeatStore(tmp_path)
        beats.beat("w")
        past = time.time() - 300.0
        os.utime(beats.path_for("w"), (past, past))
        assert beats.age("w") >= 300.0
        assert beats.ages()["w"] >= 300.0


class TestDrainControl:
    def test_request_sets_flag_and_keeps_first_signal(self):
        control = DrainControl()
        assert not control.requested
        control.request(signal.SIGTERM)
        control.request(signal.SIGINT)
        assert control.requested
        assert control.signum == signal.SIGTERM

    def test_first_signal_drains_second_interrupts(self):
        control = DrainControl().install(signums=(signal.SIGUSR1,))
        try:
            os.kill(os.getpid(), signal.SIGUSR1)
            assert control.requested
            assert control.signum == signal.SIGUSR1
            with pytest.raises(KeyboardInterrupt):
                os.kill(os.getpid(), signal.SIGUSR1)
        finally:
            control.restore()

    def test_restore_puts_the_old_handler_back(self):
        previous = signal.getsignal(signal.SIGUSR1)
        control = DrainControl().install(signums=(signal.SIGUSR1,))
        control.restore()
        assert signal.getsignal(signal.SIGUSR1) is previous


class TestHeartbeatLeaseRenewal:
    def test_fresh_heartbeat_defers_an_expired_lease(self, tmp_path):
        beats = HeartbeatStore(tmp_path)
        with CellQueue(heartbeats=beats) as queue:
            fill(queue, 1, max_attempts=3)
            queue.lease("w", lease_seconds=0.2)
            time.sleep(0.3)                    # deadline long past
            beats.beat("w")                    # ...but the worker lives
            assert queue.lease("other") == []
            assert queue.counts() == {"leased": 1}
            time.sleep(0.3)                    # beats stopped: now dead
            (reclaimed,) = queue.lease("other")
            assert reclaimed.attempts == 2

    def test_stale_heartbeat_releases_before_the_deadline(self, tmp_path):
        beats = HeartbeatStore(tmp_path)
        journal = RecordingJournal()
        with CellQueue(heartbeats=beats, journal=journal,
                       heartbeat_stale_seconds=0.1) as queue:
            fill(queue, 1, max_attempts=3)
            queue.lease("w", lease_seconds=300.0)
            beats.beat("w")
            past = time.time() - 1.0
            os.utime(beats.path_for("w"), (past, past))
            assert queue.reclaim() == 1
            assert queue.counts() == {"pending": 1}
            (stale,) = journal.of("heartbeat_stale")
            assert "heartbeat stale" in stale["error"]
            assert stale["worker"] == "w"
            # The crash-attributed attempt marks the cell suspect.
            (again,) = queue.lease("other")
            assert again.suspect

    def test_no_heartbeat_file_means_deadline_semantics(self, tmp_path):
        # Absence of evidence is not evidence of death: a worker that
        # never beat (or exited cleanly) keeps its lease to term.
        beats = HeartbeatStore(tmp_path)
        with CellQueue(heartbeats=beats,
                       heartbeat_stale_seconds=0.01) as queue:
            fill(queue, 1)
            queue.lease("silent", lease_seconds=300.0)
            time.sleep(0.05)
            assert queue.reclaim() == 0
            assert queue.counts() == {"leased": 1}


class TestPoisonedSettlement:
    def test_all_fatal_attempts_settle_as_poisoned(self):
        journal = RecordingJournal()
        with CellQueue(journal=journal) as queue:
            fill(queue, 1, max_attempts=2)
            (first,) = queue.lease("w")
            assert not first.suspect
            queue.nack(first.key, "w", "worker crashed", fatal=True)
            (second,) = queue.lease("w")
            assert second.suspect
            queue.nack(second.key, "w", "crashed again", fatal=True)
            assert queue.counts() == {"poisoned": 1}
            assert queue.unresolved() == 0
            failure = queue.failures()["key0"]
            assert failure.error.startswith(
                "poisoned after 2 worker-fatal attempt(s)")
            assert list(queue.poisoned()) == ["key0"]
            (event,) = journal.of("poisoned")
            assert event["fatal_attempts"] == 2

    def test_mixed_attempts_settle_as_plain_failed(self):
        with CellQueue() as queue:
            fill(queue, 1, max_attempts=2)
            (first,) = queue.lease("w")
            queue.nack(first.key, "w", "ordinary error")
            (second,) = queue.lease("w")
            queue.nack(second.key, "w", "worker crashed", fatal=True)
            assert queue.counts() == {"failed": 1}
            assert queue.poisoned() == {}

    def test_poisoned_rows_are_not_revived_by_add(self):
        with CellQueue() as queue:
            fill(queue, 1, max_attempts=1)
            (leased,) = queue.lease("w")
            queue.nack(leased.key, "w", "crash", fatal=True)
            assert queue.counts() == {"poisoned": 1}
            assert fill(queue, 1, max_attempts=5) == 0
            assert queue.counts() == {"poisoned": 1}


class TestTransactionRetry:
    def test_write_waits_out_a_brief_lock(self, tmp_path):
        path = tmp_path / "queue.sqlite"
        with CellQueue(path, busy_timeout=0.01) as queue:
            fill(queue, 1)
            locked = threading.Event()

            def hold_lock():
                blocker = sqlite3.connect(path)
                blocker.execute("BEGIN IMMEDIATE")
                locked.set()
                time.sleep(0.2)
                blocker.commit()
                blocker.close()

            holder = threading.Thread(target=hold_lock)
            holder.start()
            locked.wait(5.0)
            # The bounded retry loop must outlast the lock holder.
            (leased,) = queue.lease("w")
            holder.join()
            assert leased.key == "key0"


class TestWorkerDrainAndInterrupt:
    def test_requested_control_stops_before_leasing(self, tmp_path):
        journal = RecordingJournal()
        beats = HeartbeatStore(tmp_path)
        control = DrainControl()
        control.request(signal.SIGTERM)
        with CellQueue() as queue:
            fill(queue, 2)
            stats = drain(queue, worker_id="w", wait=False,
                          journal=journal, control=control,
                          heartbeats=beats)
            assert stats.drained and stats.executed == 0
            assert queue.counts() == {"pending": 2}
        (event,) = journal.of("worker_drain")
        assert event["signal"] == signal.SIGTERM
        (exit_event,) = journal.of("worker_exit")
        assert exit_event["drained"]
        assert beats.age("w") is None          # clean exit said goodbye

    def test_keyboard_interrupt_unleases_batch_mates(self, monkeypatch):
        journal = RecordingJournal()
        monkeypatch.setattr(worker_mod, "cell_from_descriptor",
                            lambda descriptor: descriptor)

        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt("mid-batch ^C")

        monkeypatch.setattr(worker_mod, "_run_lease", interrupted)
        with CellQueue() as queue:
            fill(queue, 3, max_attempts=2)
            with pytest.raises(KeyboardInterrupt):
                drain(queue, worker_id="w", wait=False,
                      journal=journal)
            # Immediately back to pending with the attempt refunded —
            # nobody waits out a lease deadline for a Ctrl-C.
            assert queue.counts() == {"pending": 3}
            assert queue.total_attempts() == 0
        (event,) = journal.of("worker_interrupt")
        assert event["unleased"] == 3
        assert "KeyboardInterrupt" in event["error"]


class TestResourceGuards:
    def test_free_disk_floor(self, tmp_path):
        free = check_free_disk(tmp_path, floor=1)
        assert isinstance(free, int) and free > 0
        assert check_free_disk(tmp_path, floor=0) is None   # disabled
        with pytest.raises(ResourceGuardError, match="free space"):
            check_free_disk(tmp_path, floor=2 ** 62)

    def test_preflight_probes_nonexistent_paths(self, tmp_path):
        # The preflight runs before campaign dirs exist: it must walk
        # up to the nearest existing ancestor instead of failing.
        assert check_free_disk(tmp_path / "not" / "yet" / "made",
                               floor=1) > 0

    def test_disk_floor_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_DISK_FLOOR_MB", "2")
        assert disk_floor_bytes() == 2 * 1024 * 1024
        monkeypatch.setenv("REPRO_DISK_FLOOR_MB", "0")
        assert disk_floor_bytes() == 0
        monkeypatch.setenv("REPRO_DISK_FLOOR_MB", "garbage")
        assert disk_floor_bytes(default=7) == 7

    def test_is_enospc(self):
        assert is_enospc(OSError(errno.ENOSPC, "full"))
        assert is_enospc(OSError(errno.EDQUOT, "quota"))
        assert not is_enospc(OSError(errno.EACCES, "denied"))
        assert not is_enospc(ValueError("full"))

    def test_set_memory_limit_applies_and_reports(self):
        pytest.importorskip("resource")
        # Lowering RLIMIT_AS is irreversible for an unprivileged
        # process, so the limit is exercised in a throwaway child.
        code = (
            "import resource\n"
            "from repro.campaign.health import set_memory_limit\n"
            "assert set_memory_limit(1 << 42)\n"
            "assert resource.getrlimit(resource.RLIMIT_AS)[0]"
            " == 1 << 42\n")
        env = dict(os.environ)
        src = str(SCRIPTS.parent / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                                   if env.get("PYTHONPATH") else "")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr


class FakeResult:
    def to_dict(self):
        return {"ipc": 1.0}


class TestCacheDegradesOnFullDisk:
    def test_enospc_degrades_then_heals(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path / "cache")
        journal = RecordingJournal()
        cache.journal = journal

        def full_disk(*args, **kwargs):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(tempfile, "mkstemp", full_disk)
        cache.put("aa" + "0" * 62, FakeResult())   # swallowed, not raised
        cache.put("aa" + "1" * 62, FakeResult())
        assert cache.degraded
        assert len(journal.of("cache_degraded")) == 1   # one transition
        assert len(cache) == 0

        monkeypatch.undo()
        cache.put("aa" + "2" * 62, FakeResult())
        assert not cache.degraded
        assert len(journal.of("cache_recovered")) == 1
        assert len(cache) == 1

    def test_non_disk_errors_still_raise(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path / "cache")

        def broken(*args, **kwargs):
            raise OSError(errno.EACCES, "Permission denied")

        monkeypatch.setattr(tempfile, "mkstemp", broken)
        with pytest.raises(OSError):
            cache.put("aa" + "0" * 62, FakeResult())


class TestSigtermDrainResume:
    def test_sigterm_drains_gracefully_and_resume_is_byte_identical(
            self, tmp_path, capsys):
        sweep_cli = load_cli("run_sweep")
        flags = ["--axis", "ftq_depth=1,2", *FAST_FLAGS]

        # Fault-free reference report for the same grid (same id).
        sweep_cli.main([*flags, "--cache-dir",
                        str(tmp_path / "ref-cache"), "--plan-only"])
        cid = capsys.readouterr().out.strip()
        sweep_cli.main([*flags, "--cache-dir",
                        str(tmp_path / "ref-cache"), "--resume", cid,
                        "--format", "csv",
                        "--output", str(tmp_path / "ref.csv")])
        capsys.readouterr()

        sweep_cli.main([*flags, "--cache-dir",
                        str(tmp_path / "drain-cache"), "--plan-only"])
        capsys.readouterr()
        cdir = tmp_path / "drain-cache" / "campaigns" / cid

        # A slow first cell keeps the worker mid-drain while SIGTERM
        # lands; the faults ride the inherited environment.
        from repro.resilience import FaultSpec, inject_faults
        with inject_faults(FaultSpec(kind="hang", match="*", times=1,
                                     seconds=4.0),
                           spool=str(tmp_path / "spool")):
            proc = subprocess.Popen(
                [sys.executable, str(SCRIPTS / "campaign_worker.py"),
                 "--campaign", str(cdir),
                 "--cache-dir", str(tmp_path / "drain-cache"),
                 "--no-wait"],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                text=True)
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                if any(ev["ev"] == "lease"
                       for ev in load_journal(cdir)):
                    break
                time.sleep(0.05)
            else:
                proc.kill()
                pytest.fail("worker never leased a cell")
            proc.send_signal(signal.SIGTERM)
            _, stderr = proc.communicate(timeout=60)

        assert proc.returncode == 0, stderr
        assert "(drained on signal)" in stderr
        counts = read_queue_counts(cdir)
        assert counts.get("leased", 0) == 0
        assert counts.get("pending", 0) >= 1
        events = load_journal(cdir)
        (drain_ev,) = [ev for ev in events
                       if ev["ev"] == "worker_drain"]
        assert drain_ev["signal"] == signal.SIGTERM
        assert drain_ev["unleased"] >= 1
        # Clean exit: the heartbeat file said goodbye.
        assert HeartbeatStore(cdir).ages() == {}

        sweep_cli.main([*flags, "--cache-dir",
                        str(tmp_path / "drain-cache"), "--resume", cid,
                        "--format", "csv",
                        "--output", str(tmp_path / "drained.csv")])
        assert (tmp_path / "drained.csv").read_bytes() \
            == (tmp_path / "ref.csv").read_bytes()


class TestCampaignDoctor:
    def wreck(self, tmp_path, capsys):
        sweep_cli = load_cli("run_sweep")
        cache = tmp_path / "cache"
        sweep_cli.main(["--axis", "ftq_depth=1,2", *FAST_FLAGS,
                        "--cache-dir", str(cache), "--plan-only"])
        cid = capsys.readouterr().out.strip()
        cdir = cache / "campaigns" / cid

        conn = sqlite3.connect(cdir / "queue.sqlite")
        conn.execute(
            "UPDATE cells SET state='leased', lease_owner='ghost',"
            " lease_deadline=?, lease_seconds=30.0"
            " WHERE key = (SELECT MIN(key) FROM cells)",
            (time.time() - 300.0,))
        conn.commit()
        conn.close()
        beats = HeartbeatStore(cdir)
        beats.beat("phantom")
        past = time.time() - 600.0
        os.utime(beats.path_for("phantom"), (past, past))
        (cache / "ab").mkdir(parents=True, exist_ok=True)
        debris = cache / "ab" / "orphan.tmp"
        debris.write_text("junk", encoding="utf-8")
        old = time.time() - 5000.0             # past the debris age
        os.utime(debris, (old, old))
        return cache, cdir, debris

    def test_audit_reports_without_touching(self, tmp_path, capsys):
        doctor_cli = load_cli("campaign_doctor")
        cache, cdir, debris = self.wreck(tmp_path, capsys)
        doc = doctor_cli.diagnose(str(cdir), cache_dir=str(cache))
        assert not doc["ok"] and doc["repaired"] == 0
        checks = {f["check"] for f in doc["findings"]}
        assert checks == {"orphan_lease", "leftover_heartbeat",
                          "stale_tmp"}
        # Report-only: nothing moved.
        assert debris.exists()
        assert HeartbeatStore(cdir).age("phantom") is not None
        assert read_queue_counts(cdir).get("leased") == 1

    def test_repair_restores_a_clean_audit(self, tmp_path, capsys):
        doctor_cli = load_cli("campaign_doctor")
        cache, cdir, debris = self.wreck(tmp_path, capsys)
        assert doctor_cli.main(["--campaign", str(cdir),
                                "--cache-dir", str(cache),
                                "--repair"]) == 0
        capsys.readouterr()
        assert not debris.exists()
        assert HeartbeatStore(cdir).ages() == {}
        counts = read_queue_counts(cdir)
        assert counts == {"pending": 2}        # orphan lease requeued
        doc = doctor_cli.diagnose(str(cdir), cache_dir=str(cache))
        assert doc["ok"] and doc["findings"] == []

    def test_repair_quarantines_corrupt_cache_entries(self, tmp_path,
                                                      capsys):
        sweep_cli = load_cli("run_sweep")
        doctor_cli = load_cli("campaign_doctor")
        cache = tmp_path / "cache"
        sweep_cli.main(["--axis", "ftq_depth=1", *FAST_FLAGS,
                        "--cache-dir", str(cache), "--plan-only"])
        cid = capsys.readouterr().out.strip()
        cdir = cache / "campaigns" / cid
        sweep_cli.main(["--axis", "ftq_depth=1", *FAST_FLAGS,
                        "--cache-dir", str(cache), "--resume", cid])
        capsys.readouterr()
        (entry_path,) = cache.glob("??/*.json")
        entry_path.write_text("garbage", encoding="utf-8")

        doc = doctor_cli.diagnose(str(cdir), cache_dir=str(cache))
        assert [f["check"] for f in doc["findings"]] \
            == ["corrupt_cache_entry"]
        assert entry_path.exists()             # audit-only
        assert doctor_cli.main(["--campaign", str(cdir),
                                "--cache-dir", str(cache),
                                "--repair"]) == 0
        capsys.readouterr()
        assert not entry_path.exists()
        reasons = list(
            ResultCache(cache).quarantine_root.glob("*.reason.txt"))
        assert len(reasons) == 1

    def test_missing_campaign_exits_2(self, tmp_path, capsys):
        doctor_cli = load_cli("campaign_doctor")
        assert doctor_cli.main(["--campaign",
                                str(tmp_path / "nowhere")]) == 2
        assert "no queue at" in capsys.readouterr().err


INTERRUPTIBLE_CLIS = pytest.mark.parametrize("name, argv", [
    ("run_experiments", ["--no-cache"]),
    ("run_sweep", ["--axis", "ftq_depth=1", "--no-cache"]),
])


class TestInterruptedCliExit:
    def interrupt(self, name, monkeypatch):
        cli = load_cli(name)
        monkeypatch.setattr(
            cli, "run",
            lambda args: (_ for _ in ()).throw(
                KeyboardInterrupt("resume with --resume deadbeef")))
        return cli

    @INTERRUPTIBLE_CLIS
    def test_interrupt_exits_130_with_hint(self, name, argv, monkeypatch,
                                           capsys):
        cli = self.interrupt(name, monkeypatch)
        with pytest.raises(SystemExit) as excinfo:
            cli.main(argv)
        assert excinfo.value.code == 130
        err = capsys.readouterr().err
        assert f"{name}: interrupted: resume with --resume deadbeef" in err

    @INTERRUPTIBLE_CLIS
    def test_profile_is_printed_even_when_interrupted(self, name, argv,
                                                      monkeypatch, capsys):
        cli = self.interrupt(name, monkeypatch)
        with pytest.raises(SystemExit):
            cli.main([*argv, "--profile"])
        err = capsys.readouterr().err
        assert f"{name}: interrupted" in err
        assert "Ordered by: cumulative time" in err
