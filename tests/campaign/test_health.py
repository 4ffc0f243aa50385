"""The fleet health layer: graceful drain, poison cells and resource
guards.

Unit coverage for :mod:`repro.campaign.health` plus the queue/worker
behaviours it unlocks (poisoned settlement, interrupt unleasing, the
ENOSPC-degraded cache) and two integration paths: SIGTERM draining a
real external worker with a byte-identical resume, and a campaign
wrecked the way ``kill -9`` leaves one, which status diagnoses and a
``--resume --verify-cache`` repairs.  The lease deadline, the queue's
one liveness rule, is covered in ``test_queue.py``.
"""

import errno
import importlib.util
import json
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
    ResourceGuardError,
    check_free_disk,
    disk_floor_bytes,
    is_enospc,
)
from repro.campaign.queue import CellQueue
from repro.campaign.worker import drain
from repro.experiments.cache import ResultCache
from repro.obs.status import (
    campaign_report,
    live_status,
    load_journal,
    read_queue_counts,
)

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


class TestPoisonedSettlement:
    def test_all_fatal_attempts_settle_as_poisoned(self, journal):
        with CellQueue(journal=journal) as queue:
            fill(queue, 1, max_attempts=2)
            first = queue.lease("w")
            assert not first.suspect
            queue.nack(first.key, "w", "worker crashed", fatal=True)
            second = queue.lease("w")
            assert second.suspect
            queue.nack(second.key, "w", "crashed again", fatal=True)
            assert queue.counts() == {"poisoned": 1}
            assert queue.unresolved() == 0
            failure = queue.failures()["key0"]
            assert failure.error.startswith(
                "poisoned after 2 worker-fatal attempt(s)")
            (event,) = journal.of("poisoned")
            assert event["fatal_attempts"] == 2

    def test_mixed_attempts_settle_as_plain_failed(self):
        with CellQueue() as queue:
            fill(queue, 1, max_attempts=2)
            first = queue.lease("w")
            queue.nack(first.key, "w", "ordinary error")
            second = queue.lease("w")
            queue.nack(second.key, "w", "worker crashed", fatal=True)
            assert queue.counts() == {"failed": 1}
            assert queue.failures()["key0"].error == "worker crashed"

    def test_poisoned_rows_are_not_revived_by_add(self):
        with CellQueue() as queue:
            fill(queue, 1, max_attempts=1)
            leased = queue.lease("w")
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
            leased = queue.lease("w")
            holder.join()
            assert leased.key == "key0"


class TestWorkerDrainAndInterrupt:
    def test_requested_control_stops_before_leasing(self, journal):
        control = DrainControl()
        control.request(signal.SIGTERM)
        with CellQueue() as queue:
            fill(queue, 2)
            stats = drain(queue, worker_id="w", wait=False,
                          journal=journal, control=control)
            assert stats.drained and stats.executed == 0
            assert queue.counts() == {"pending": 2}
        (event,) = journal.of("worker_drain")
        assert event["signal"] == signal.SIGTERM
        (exit_event,) = journal.of("worker_exit")
        assert exit_event["drained"]

    def test_keyboard_interrupt_refunds_the_in_flight_cell(
            self, monkeypatch, journal):
        monkeypatch.setattr(worker_mod, "cell_from_descriptor",
                            lambda descriptor: descriptor)
        running = []

        def interrupted(cell):
            running.append(cell)
            raise KeyboardInterrupt("mid-cell ^C")

        monkeypatch.setattr(worker_mod, "execute_cell", interrupted)
        with CellQueue() as queue:
            fill(queue, 3, max_attempts=2)
            with pytest.raises(KeyboardInterrupt):
                drain(queue, worker_id="w", wait=False,
                      journal=journal)
            # Only the first cell was leased, and it is back to pending
            # at once with its attempt refunded — nobody waits out a
            # lease deadline for a Ctrl-C.
            assert running == [{"cell": 0}]
            assert queue.counts() == {"pending": 3}
            assert queue.total_attempts() == 0
        assert [e["key"] for e in journal.of("lease")] == ["key0"]
        assert [e["key"] for e in journal.of("unlease")] == ["key0"]
        (event,) = journal.of("worker_interrupt")
        assert event["unleased"] == 1
        assert "KeyboardInterrupt" in event["error"]

    def test_an_interrupt_after_the_ack_refunds_nothing(self, monkeypatch,
                                                        journal):
        monkeypatch.setattr(worker_mod, "cell_from_descriptor",
                            lambda descriptor: descriptor)
        monkeypatch.setattr(worker_mod, "execute_cell",
                            lambda cell: FakeResult())
        with CellQueue() as queue:
            fill(queue, 2)
            ack = queue.ack

            def ack_then_interrupt(*args):
                ack(*args)
                raise KeyboardInterrupt("^C after the ack")

            monkeypatch.setattr(queue, "ack", ack_then_interrupt)
            with pytest.raises(KeyboardInterrupt):
                drain(queue, worker_id="w", wait=False,
                      journal=journal)
            # The settled cell keeps its result; the other was never
            # leased.
            assert queue.counts() == {"done": 1, "pending": 1}
            assert queue.total_attempts() == 1
        assert journal.of("unlease") == []
        (event,) = journal.of("worker_interrupt")
        assert event["unleased"] == 0

    def drain_requested_mid_cell(self, monkeypatch, journal, cells=3):
        """Drain ``cells`` stand-in cells; the first one's execution
        requests a graceful drain."""
        control = DrainControl()
        monkeypatch.setattr(worker_mod, "cell_from_descriptor",
                            lambda descriptor: descriptor)

        def execute(cell):
            control.request(signal.SIGTERM)
            return FakeResult()

        monkeypatch.setattr(worker_mod, "execute_cell", execute)
        with CellQueue() as queue:
            fill(queue, cells)
            stats = drain(queue, worker_id="w", wait=False,
                          journal=journal, control=control)
            return stats, queue.counts(), queue.total_attempts()

    def test_a_drain_request_mid_cell_leases_nothing_more(
            self, monkeypatch, journal):
        stats, counts, attempts = self.drain_requested_mid_cell(
            monkeypatch, journal)
        assert (stats.executed, stats.drained) == (1, True)
        assert counts == {"done": 1, "pending": 2}
        assert attempts == 1
        assert [e["key"] for e in journal.of("lease")] == ["key0"]
        assert journal.of("unlease") == []
        (event,) = journal.of("worker_drain")
        assert event["executed"] == 1

    RECORD_FIELDS = {
        "worker_start": {"worker", "pid", "cell_timeout"},
        "worker_drain": {"worker", "pid", "signal", "executed"},
        "worker_exit": {"worker", "pid", "executed", "failed", "drained"},
    }

    @pytest.mark.parametrize("ev", sorted(RECORD_FIELDS))
    def test_worker_record_fields(self, monkeypatch, journal, ev):
        # No version number marks a journal record's shape, so the
        # shapes the journal's vocabulary documents are pinned here.
        self.drain_requested_mid_cell(monkeypatch, journal)
        (record,) = journal.of(ev)
        assert set(record) == self.RECORD_FIELDS[ev]


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
        # A value with no finite byte count is ignored just the same.
        for raw in ("inf", "-inf", "nan", "1e308"):
            monkeypatch.setenv("REPRO_DISK_FLOOR_MB", raw)
            assert disk_floor_bytes(default=7) == 7

    def test_is_enospc(self):
        assert is_enospc(OSError(errno.ENOSPC, "full"))
        assert is_enospc(OSError(errno.EDQUOT, "quota"))
        assert not is_enospc(OSError(errno.EACCES, "denied"))
        assert not is_enospc(ValueError("full"))


class FakeResult:
    def to_dict(self):
        return {"ipc": 1.0}


class TestCacheDegradesOnFullDisk:
    def test_enospc_degrades_then_heals(self, tmp_path, monkeypatch,
                                        journal):
        cache = ResultCache(tmp_path / "cache")
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

        # A slow first cell keeps the worker mid-cell while SIGTERM
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
        # The drained worker finished its in-flight cell and leased
        # nothing more: one row done, the other never leased.
        assert read_queue_counts(cdir) == {"done": 1, "pending": 1}
        events = load_journal(cdir)
        (drain_ev,) = [ev for ev in events
                       if ev["ev"] == "worker_drain"]
        assert drain_ev["signal"] == signal.SIGTERM
        assert drain_ev["executed"] == 1
        # Liveness lives in the queue rows, not in files beside them.
        assert not (cdir / "heartbeats").exists()

        sweep_cli.main([*flags, "--cache-dir",
                        str(tmp_path / "drain-cache"), "--resume", cid,
                        "--format", "csv",
                        "--output", str(tmp_path / "drained.csv")])
        assert (tmp_path / "drained.csv").read_bytes() \
            == (tmp_path / "ref.csv").read_bytes()


class TestOrphanedLease:
    """A wrecked campaign needs no repair tool of its own.

    The wreck is what ``kill -9`` leaves behind: a row leased by a
    worker that is gone, long past its deadline, and a cache temp file
    its writer never renamed.  Status names the dead owner without
    touching anything; the next ``--resume --verify-cache`` settles
    the lease through ``CellQueue.lease`` and sweeps the debris.
    """

    FLAGS = ["--axis", "ftq_depth=1,2", *FAST_FLAGS]

    def wreck(self, tmp_path, capsys):
        sweep_cli = load_cli("run_sweep")
        cache = tmp_path / "cache"
        sweep_cli.main([*self.FLAGS, "--cache-dir", str(cache),
                        "--plan-only"])
        cid = capsys.readouterr().out.strip()
        cdir = cache / "campaigns" / cid
        conn = sqlite3.connect(cdir / "queue.sqlite")
        conn.execute(
            "UPDATE cells SET state='leased', lease_owner='ghost',"
            " lease_deadline=?"
            " WHERE key = (SELECT MIN(key) FROM cells)",
            (time.time() - 300.0,))
        conn.commit()
        conn.close()
        debris = cache / "ab" / "orphan.tmp"
        debris.parent.mkdir(parents=True)
        debris.write_text("junk", encoding="utf-8")
        old = time.time() - 5000.0             # past the debris age
        os.utime(debris, (old, old))
        return sweep_cli, cid, cdir, debris

    def test_status_names_the_dead_owner_and_only_reads(self, tmp_path,
                                                        capsys):
        _, _, cdir, debris = self.wreck(tmp_path, capsys)
        before = (cdir / "queue.sqlite").read_bytes()
        status_cli = load_cli("campaign_status")
        assert status_cli.main(["--campaign", str(cdir), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["stale_workers"] \
            == ["ghost"]
        assert status_cli.main(["--campaign", str(cdir), "--report",
                                "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["counts"] \
            == {"leased": 1, "pending": 1}
        assert (cdir / "queue.sqlite").read_bytes() == before
        assert debris.exists()

    def test_resume_settles_the_lease_and_sweeps_the_debris(
            self, tmp_path, capsys):
        sweep_cli, cid, cdir, debris = self.wreck(tmp_path, capsys)
        sweep_cli.main([*self.FLAGS, "--cache-dir",
                        str(tmp_path / "cache"), "--resume", cid,
                        "--verify-cache"])
        err = capsys.readouterr().err
        assert "0 quarantined, 1 stale temp file(s) removed" in err
        assert not debris.exists()
        assert read_queue_counts(cdir) == {"done": 2}
        expired = [ev for ev in load_journal(cdir)
                   if ev["ev"] == "lease_expired"]
        assert [ev["worker"] for ev in expired] == ["ghost"]
        # Repaired: nothing stale, one expiry attributed, no drift.
        assert live_status(cdir)["stale_workers"] == []
        report = campaign_report(cdir)
        assert report["lease_expirations"] == 1
        assert report["drift"] == {"done_without_ack": [],
                                   "acked_not_done": []}


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
