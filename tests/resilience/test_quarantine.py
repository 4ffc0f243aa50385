"""Corrupt-cache quarantine and interrupt-safe writes.

The invariant under test: a present-but-unusable cache entry is moved
aside (with a human-readable reason) and its cell re-simulates exactly
once — never silently on every run, and never by overwriting the
evidence in place.
"""

import json

import pytest

from repro.campaign.cells import key_for
from repro.core.config import DEFAULT_CONFIG
from repro.experiments import ExperimentSession
from repro.experiments.cache import ResultCache
import repro.experiments.cache as cache_module
from repro.resilience import FaultSpec, inject_faults

FAST = dict(cycles=300, warmup=150)


def session_for(tmp_path) -> ExperimentSession:
    return ExperimentSession(cache_dir=tmp_path / "cache", **FAST)


def one_cell(session):
    return session.make_cell("2_MIX", "stream", "ICOUNT.1.8", None,
                             None, DEFAULT_CONFIG)


def entry_path(session):
    return session.disk.path_for(key_for(one_cell(session)))


class TestQuarantine:
    def corrupt_and_reread(self, tmp_path, corruptor):
        session = session_for(tmp_path)
        cell = one_cell(session)
        original = session.run_cells([cell])[cell]
        path = entry_path(session)
        corruptor(path)

        fresh = session_for(tmp_path)
        again = fresh.run_cells([cell])[cell]
        assert again.to_dict() == original.to_dict()
        # Exactly one re-simulation: the corrupt entry must read as a
        # miss precisely once, after which the rewritten entry serves.
        assert fresh.simulated == 1

        warm = session_for(tmp_path)
        assert warm.run_cells([cell])[cell].to_dict() \
            == original.to_dict()
        assert warm.simulated == 0
        return fresh.disk

    def test_truncated_entry_quarantines_with_reason(self, tmp_path):
        disk = self.corrupt_and_reread(
            tmp_path,
            lambda path: path.write_text(
                path.read_text(encoding="utf-8")[:40], encoding="utf-8"))
        quarantined = list(disk.quarantine_root.glob("*.json"))
        assert len(quarantined) == 1
        reason = (disk.quarantine_root
                  / f"{quarantined[0].stem}.reason.txt")
        assert "JSONDecodeError" in reason.read_text(encoding="utf-8")
        assert disk.stats()["quarantined"] == 1

    def test_stale_schema_quarantines_with_reason(self, tmp_path):
        def stale(path):
            payload = json.loads(path.read_text(encoding="utf-8"))
            payload["schema"] = -1
            path.write_text(json.dumps(payload), encoding="utf-8")

        disk = self.corrupt_and_reread(tmp_path, stale)
        (reason,) = disk.quarantine_root.glob("*.reason.txt")
        assert "schema mismatch" in reason.read_text(encoding="utf-8")

    def test_foreign_key_quarantines(self, tmp_path):
        def foreign(path):
            payload = json.loads(path.read_text(encoding="utf-8"))
            payload["key"] = "0" * 64
            path.write_text(json.dumps(payload), encoding="utf-8")

        disk = self.corrupt_and_reread(tmp_path, foreign)
        (reason,) = disk.quarantine_root.glob("*.reason.txt")
        assert "key mismatch" in reason.read_text(encoding="utf-8")

    def test_missing_entry_is_a_plain_miss(self, tmp_path):
        disk = ResultCache(tmp_path / "cache")
        assert disk.get("ab" + "0" * 62) is None
        assert disk.misses == 1
        assert disk.quarantined == 0
        assert not disk.quarantine_root.exists()

    def test_quarantine_never_hides_in_entry_scans(self, tmp_path):
        # The quarantine directory name is longer than the two-char
        # fan-out dirs, so __len__/stats/prune must not count or evict
        # quarantined files as live entries.
        session = session_for(tmp_path)
        cell = one_cell(session)
        session.run_cells([cell])
        entry_path(session).write_text("{", encoding="utf-8")
        fresh = session_for(tmp_path)
        fresh.run_cells([cell])
        assert len(fresh.disk) == 1
        assert fresh.disk.stats()["entries"] == 1
        assert fresh.disk.prune(max_entries=0) == 1
        assert fresh.disk.stats()["quarantined"] == 1


class TestCorruptFault:
    def test_corrupt_fault_tears_the_write(self, tmp_path):
        with inject_faults(FaultSpec(kind="corrupt", match="*"),
                           spool=tmp_path / "spool"):
            session = session_for(tmp_path)
            cell = one_cell(session)
            session.run_cells([cell])
        raw = entry_path(session).read_text(encoding="utf-8")
        with pytest.raises(json.JSONDecodeError):
            json.loads(raw)

    def test_torn_write_then_quarantine_then_warm(self, tmp_path):
        # End-to-end: fault tears the entry, next session quarantines
        # and re-simulates once, third session is fully warm.
        with inject_faults(FaultSpec(kind="corrupt", match="*",
                                     times=1),
                           spool=tmp_path / "spool"):
            session = session_for(tmp_path)
            cell = one_cell(session)
            first = session.run_cells([cell])[cell]

        second = session_for(tmp_path)
        assert second.run_cells([cell])[cell].to_dict() \
            == first.to_dict()
        assert second.simulated == 1
        assert second.disk.stats()["quarantined"] == 1

        third = session_for(tmp_path)
        third.run_cells([cell])
        assert third.simulated == 0


class TestInterruptedPut:
    def test_keyboard_interrupt_cleans_tmp_and_reraises(
            self, tmp_path, monkeypatch):
        # Ctrl-C mid-write must not leave a torn temp file behind, and
        # must re-raise the interrupt itself — not an OSError from the
        # cleanup masking what actually happened.
        disk = ResultCache(tmp_path / "cache")
        session = ExperimentSession(**FAST)
        cell = one_cell(session)
        result = session.run_cells([cell])[cell]

        def boom(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(cache_module.json, "dump", boom)
        with pytest.raises(KeyboardInterrupt) as info:
            disk.put("ab" + "0" * 62, result)
        assert info.value.__context__ is None
        assert not list((tmp_path / "cache").rglob("*.tmp"))
        assert not list((tmp_path / "cache").rglob("*.json"))
