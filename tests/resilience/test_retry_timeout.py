"""Retry, timeout and crash recovery through the real execution stack.

Every scenario runs genuine simulations (tiny windows) with faults
injected via the environment channel, so the recovery paths are
exercised exactly as a production campaign would hit them — including
inside worker subprocesses when ``jobs > 1``.
"""

import sqlite3
import time
from contextlib import closing

import pytest

from repro.campaign.manifest import campaign_dir, queue_path
from repro.core.config import DEFAULT_CONFIG
from repro.experiments import ExperimentSession
from repro.obs.journal import journal_path, read_events
from repro.resilience import CellExecutionError, FaultSpec, inject_faults

FAST = dict(cycles=300, warmup=150)


def grid(session, seeds=(0, 1), policies=("ICOUNT.1.8", "RR.1.8")):
    return [session.make_cell("2_MIX", "stream", policy, None, None,
                              DEFAULT_CONFIG.with_(seed=seed))
            for policy in policies for seed in seeds]


def run_grid(tmp_path, name, seeds=(0, 1),
             policies=("ICOUNT.1.8", "RR.1.8"), **kwargs):
    session = ExperimentSession(cache_dir=tmp_path / name, **FAST,
                                **kwargs)
    results = session.run_cells(grid(session, seeds, policies))
    return results, session


def as_dicts(results):
    return [results[cell].to_dict() for cell in sorted(
        results, key=lambda c: (c.policy, c.config.seed))]


class TestRetryPolicy:
    def test_attempts_is_retries_plus_one(self, tmp_path):
        # The session folds its budget into the queue rows it plans,
        # and the journal's plan event records it.
        for retries in (0, 3):
            root = tmp_path / f"retries{retries}"
            session = ExperimentSession(campaign_dir=root,
                                        retries=retries, **FAST)
            planned = session.plan(grid(session))
            session.plan_campaign(planned)
            cid = planned.campaign_id
            events = read_events(journal_path(campaign_dir(root, cid)))
            (plan,) = [ev for ev in events if ev["ev"] == "plan"]
            assert plan["retry_attempts"] == retries + 1
            with closing(sqlite3.connect(queue_path(root, cid))) as conn:
                budgets = {row[0] for row in conn.execute(
                    "SELECT max_attempts FROM cells")}
            assert budgets == {retries + 1}

    def test_rejects_negative_budgets(self):
        with pytest.raises(ValueError, match="retries must be >= 0"):
            ExperimentSession(retries=-1)
        with pytest.raises(ValueError, match="cell_timeout must be > 0"):
            ExperimentSession(cell_timeout=0)


class TestCrashRecovery:
    def test_crash_once_is_byte_identical_to_clean_run(self, tmp_path):
        # THE acceptance invariant: a worker crash plus retry must not
        # change a single bit of any result, because each simulation
        # is a pure function of (seed, config).
        clean, _ = run_grid(tmp_path, "clean")
        with inject_faults(FaultSpec(kind="crash", match="seed0",
                                     times=1),
                           spool=tmp_path / "spool"):
            faulty, session = run_grid(tmp_path, "faulty", jobs=2,
                                       retries=1)
        assert not session.failures
        assert as_dicts(faulty) == as_dicts(clean)

    def test_simulated_counts_the_recovery_attempts(self, tmp_path):
        with inject_faults(FaultSpec(kind="crash", match="seed0",
                                     times=1),
                           spool=tmp_path / "spool"):
            results, session = run_grid(tmp_path, "faulty", jobs=2,
                                        retries=1)
        # 4 stripe slots + at least one re-execution after the crash:
        # the accounting must show recovery work happened.
        assert len(results) == 4
        assert session.simulated > 4

    def test_exhausted_budget_raises_in_strict_mode(self, tmp_path):
        # A fault that outlives the retry budget must surface, not
        # silently truncate the result set.
        with inject_faults(FaultSpec(kind="raise", match="seed0",
                                     times=100),
                           spool=tmp_path / "spool"):
            with pytest.raises(CellExecutionError) as info:
                run_grid(tmp_path, "cache", jobs=2, retries=1)
        failures = info.value.failures
        assert len(failures) == 2              # both policies at seed0
        assert all(f.attempts == 2 for f in failures)
        assert all("seed0" in f.label for f in failures)


class TestPartialResults:
    def test_partial_mode_returns_survivors(self, tmp_path):
        with inject_faults(FaultSpec(kind="raise", match="seed1",
                                     times=100),
                           spool=tmp_path / "spool"):
            results, session = run_grid(tmp_path, "cache", jobs=2,
                                        retries=2, strict=False)
        assert len(results) == 2               # seed-0 cells survive
        assert all(cell.config.seed == 0 for cell in results)
        assert len(session.last_failures) == 2
        assert all(f.attempts == 3 for f in session.last_failures)
        assert "InjectedFault" in session.last_failures[0].error

    def test_failures_accumulate_and_show_in_summary(self, tmp_path):
        with inject_faults(FaultSpec(kind="raise", match="*",
                                     times=100),
                           spool=tmp_path / "spool"):
            _, session = run_grid(tmp_path, "cache", strict=False)
        assert len(session.failures) == 4
        assert "FAILED" in session.summary()

    def test_per_call_strict_overrides_session_default(self, tmp_path):
        with inject_faults(FaultSpec(kind="raise", match="*",
                                     times=100),
                           spool=tmp_path / "spool"):
            session = ExperimentSession(cache_dir=tmp_path / "cache",
                                        strict=False, **FAST)
            with pytest.raises(CellExecutionError):
                session.run_cells(grid(session), strict=True)


class TestTimeouts:
    def test_hung_cell_is_killed_and_retried(self, tmp_path):
        clean, _ = run_grid(tmp_path, "clean", seeds=(0,))
        t0 = time.monotonic()
        with inject_faults(FaultSpec(kind="hang", match="seed0",
                                     times=1, seconds=60.0),
                           spool=tmp_path / "spool"):
            session = ExperimentSession(cache_dir=tmp_path / "faulty",
                                        retries=1, cell_timeout=2.0,
                                        **FAST)
            results = session.run_cells(grid(session, seeds=(0,)))
        assert time.monotonic() - t0 < 40.0
        assert not session.failures
        assert as_dicts(results) == as_dicts(clean)

    def test_timeout_without_retries_is_a_failure(self, tmp_path):
        with inject_faults(FaultSpec(kind="hang", match="seed0",
                                     times=1, seconds=60.0),
                           spool=tmp_path / "spool"):
            session = ExperimentSession(cache_dir=tmp_path / "cache",
                                        cell_timeout=1.5, strict=False,
                                        **FAST)
            results = session.run_cells(
                grid(session, seeds=(0,), policies=("ICOUNT.1.8",)))
        assert not results
        (failure,) = session.last_failures
        assert failure.attempts == 1
        assert "CellTimeout" in failure.error


class TestIncrementalPersistence:
    def test_survivors_are_stored_before_strict_raises(self, tmp_path):
        # Strict mode may abort the *call*, but completed work must
        # already be on disk: a rerun simulates only the failed cell.
        with inject_faults(FaultSpec(kind="raise", match="seed1",
                                     times=2),     # attempts 1 and 2
                           spool=tmp_path / "spool"):
            with pytest.raises(CellExecutionError):
                run_grid(tmp_path, "cache", jobs=2, retries=1,
                         seeds=(0, 1), policies=("ICOUNT.1.8",))
            rerun, session = run_grid(tmp_path, "cache", jobs=2,
                                      retries=1, seeds=(0, 1),
                                      policies=("ICOUNT.1.8",))
        assert len(rerun) == 2
        # Only the previously-failed seed-1 cell re-simulates; the
        # seed-0 result comes off disk.
        assert session.simulated == 1

    def test_kill_and_rerun_simulates_nothing_when_warm(self, tmp_path):
        first, _ = run_grid(tmp_path, "cache", jobs=2)
        warm, session = run_grid(tmp_path, "cache", jobs=2)
        assert session.simulated == 0
        assert as_dicts(warm) == as_dicts(first)
