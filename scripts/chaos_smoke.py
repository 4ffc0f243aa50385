#!/usr/bin/env python3
"""Chaos smoke: drive the resilience layer through injected faults.

Six scenarios, each on a small 4-cell grid with ``jobs=2``:

1. **crash** — one worker dies mid-cell (``os._exit``) on its first
   attempt; the retry machinery must recover every cell and the final
   results must be *byte-identical* to a fault-free cold run.
2. **hang** — one cell sleeps far past ``--cell-timeout``; the hung
   worker must be killed and the cell recovered on retry, with the
   whole scenario finishing in bounded wall-clock time.
3. **corrupt** — a cache entry is torn after being written; the next
   read must quarantine it (with a reason file) and re-simulate the
   cell exactly once, after which a warm run performs zero simulations.
4. **sigterm_drain** — SIGTERM lands on an external worker mid-cell;
   the worker finishes the in-flight cell, leases nothing more (every
   other cell stays ``pending``), journals ``worker_drain`` and exits
   0 — and ``--resume`` then regenerates a report *byte-identical* to
   a fault-free campaign of the same grid.
5. **poison** — one cell crashes the worker on *every* attempt; its
   retry budget settles it as ``poisoned`` (journaled), the other
   cells complete, and only the first attempt costs a fleet worker
   (later attempts are contained in isolated children).
6. **orphan** — a wrecked campaign directory (a lease whose owner is
   gone, a stale cache temp file) needs no repair tool: status names
   the dead owner as stale, and ``--resume --verify-cache`` settles
   the lease as ``lease_expired``, deletes the debris and regenerates
   a report *byte-identical* to a fault-free campaign's.

Every scenario also runs with a durable campaign directory and then
audits the **event journal**: the injected fault must be attributed to
the right cell and attempt (a crash shows up as released leases plus a
crashed ``worker_exit``, a hang as a ``timeout`` event on the hung
cell, a torn cache entry as a ``quarantine`` event carrying the reason
inline) — proving the observability layer narrates faults truthfully,
not just that execution recovers from them.

Exit status 0 only when every scenario holds.  This is the CI
``chaos-smoke`` gate: it proves the fault-tolerance layer recovers
from the failure modes it claims to, not just that its unit tests
pass.

Usage::

    PYTHONPATH=src python scripts/chaos_smoke.py
"""

import json
import os
import shutil
import signal
import sqlite3
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from repro.campaign.cells import descriptor_for
from repro.core.config import DEFAULT_CONFIG
from repro.experiments import ExperimentSession
from repro.obs.status import load_journal, read_queue_counts
from repro.resilience import FaultSpec, inject_faults
from repro.resilience.faults import CRASH_EXIT_CODE, fault_label

CYCLES = 2_000
POLICIES = ("ICOUNT.1.8", "RR.1.8")
SEEDS = (0, 1)

REPO = Path(__file__).resolve().parents[1]
SCRIPTS = REPO / "scripts"
SWEEP_FLAGS = ("--axis", "ftq_depth=1,2,4,8",
               "--cycles", str(CYCLES), "--warmup", str(CYCLES // 2))


def cli_env() -> dict:
    env = dict(os.environ)
    src = str(REPO / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def run_cli(script: str, *argv, check: bool = True):
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / script), *map(str, argv)],
        capture_output=True, text=True, env=cli_env())
    assert not check or proc.returncode == 0, \
        f"{script} {' '.join(map(str, argv))} exited " \
        f"{proc.returncode}:\n{proc.stderr}"
    return proc


def make_session(cache_dir, campaign_root=None,
                 **kwargs) -> ExperimentSession:
    root = campaign_root if campaign_root is not None \
        else Path(cache_dir) / "campaigns"
    return ExperimentSession(jobs=2, cache_dir=cache_dir, cycles=CYCLES,
                             campaign_dir=str(root), **kwargs)


def journal_of(session: ExperimentSession,
               campaign_root) -> list[dict]:
    """The campaign journal of a session's last run."""
    cid = session.last_campaign.campaign_id
    events = load_journal(Path(campaign_root) / cid)
    assert events, f"no journal for campaign {cid}"
    return events


def grid(session: ExperimentSession) -> list:
    return [session.make_cell("2_MIX", "stream", policy, CYCLES, None,
                              DEFAULT_CONFIG.with_(seed=seed))
            for policy in POLICIES for seed in SEEDS]


def run_grid(cache_dir, campaign_root=None,
             **kwargs) -> tuple[dict, ExperimentSession]:
    session = make_session(cache_dir, campaign_root, **kwargs)
    results = session.run_cells(grid(session))
    return results, session


def as_dicts(results: dict) -> list[dict]:
    return [results[cell].to_dict() for cell in sorted(
        results, key=lambda c: (c.policy, c.config.seed))]


def scenario_crash(workdir: Path) -> None:
    """Worker crash mid-cell: retried, byte-identical results."""
    clean, _ = run_grid(workdir / "clean-cache")
    with inject_faults(FaultSpec(kind="crash", match="seed0", times=1),
                       spool=str(workdir / "spool-crash")):
        faulty, session = run_grid(workdir / "crash-cache", retries=1)
    assert not session.failures, f"unexpected failures: {session.failures}"
    assert as_dicts(faulty) == as_dicts(clean), \
        "post-crash results differ from fault-free run"
    assert session.simulated > len(faulty), \
        f"crash retry not accounted: simulated={session.simulated}"

    # Journal attribution: the supervisor must have recorded the
    # worker's crash and released (or lease-expired) the seed0 cell it
    # was holding — charging the right cell, not an innocent one.
    events = journal_of(session, workdir / "crash-cache" / "campaigns")
    crashes = [ev for ev in events if ev["ev"] == "worker_exit"
               and ev.get("exitcode") == CRASH_EXIT_CODE]
    assert crashes, \
        f"no worker_exit with exit code {CRASH_EXIT_CODE} journaled"
    reclaimed = [ev for ev in events
                 if ev["ev"] in ("release", "lease_expired")
                 and "seed0" in (ev.get("label") or "")]
    assert reclaimed, "crashed worker's seed0 lease not journaled as " \
        "released/expired"
    # Every released cell must belong to a worker the journal says
    # crashed — the fault is pinned to the dead worker, not scattered.
    dead = {ev["worker"] for ev in crashes}
    strays = [ev for ev in events if ev["ev"] == "release"
              and ev.get("worker") not in dead]
    assert not strays, f"releases charged to live workers: {strays}"


def scenario_hang(workdir: Path) -> None:
    """Hung cell: killed at the timeout, recovered on retry."""
    clean, _ = run_grid(workdir / "clean-cache")
    t0 = time.monotonic()
    with inject_faults(FaultSpec(kind="hang", match="seed1", times=1,
                                 seconds=60.0),
                       spool=str(workdir / "spool-hang")):
        faulty, session = run_grid(workdir / "hang-cache",
                                   retries=1, cell_timeout=3.0)
    elapsed = time.monotonic() - t0
    assert not session.failures, f"unexpected failures: {session.failures}"
    assert as_dicts(faulty) == as_dicts(clean), \
        "post-hang results differ from fault-free run"
    assert elapsed < 45.0, \
        f"hang not cut short: scenario took {elapsed:.0f} s"

    # Journal attribution: the kill at the wall-clock budget must be a
    # ``timeout`` event on the hung seed1 cell's first attempt.
    events = journal_of(session, workdir / "hang-cache" / "campaigns")
    timeouts = [ev for ev in events if ev["ev"] == "timeout"]
    assert timeouts, "no timeout event journaled for the hung cell"
    assert all("seed1" in (ev.get("label") or "") for ev in timeouts), \
        f"timeout attributed to the wrong cell: {timeouts}"
    assert any(ev.get("attempt") == 1 for ev in timeouts), \
        f"timeout not charged to the first attempt: {timeouts}"


def scenario_corrupt(workdir: Path) -> None:
    """Torn cache entry: quarantined once, never silently re-run twice.

    Each run gets a *fresh* campaign root: the cache must be the only
    persistence under test (a shared durable queue would serve the
    corrupt cell's result from its ``done`` row and mask the
    re-simulation this scenario asserts).
    """
    cache = workdir / "corrupt-cache"
    with inject_faults(FaultSpec(kind="corrupt", match="seed0", times=1),
                       spool=str(workdir / "spool-corrupt")):
        clean, _ = run_grid(cache, workdir / "campaigns-1")

    # Second (cold-session) run: the torn entry quarantines and its
    # cell re-simulates exactly once; healthy entries hit.
    again, session = run_grid(cache, workdir / "campaigns-2")
    assert as_dicts(again) == as_dicts(clean), \
        "re-simulated results differ from original run"
    assert session.simulated == 1, \
        f"expected exactly 1 re-simulation, got {session.simulated}"
    stats = session.disk.stats()
    assert stats["quarantined"] == 1, \
        f"expected 1 quarantined entry, got {stats['quarantined']}"
    reasons = list(session.disk.quarantine_root.glob("*.reason.txt"))
    assert len(reasons) == 1 and reasons[0].read_text().strip(), \
        "quarantined entry has no reason file"

    # Journal attribution: the quarantine must be journaled with the
    # corruption reason inline (same text as the .reason.txt file).
    events = journal_of(session, workdir / "campaigns-2")
    quarantines = [ev for ev in events if ev["ev"] == "quarantine"]
    assert len(quarantines) == 1, \
        f"expected 1 quarantine event, got {quarantines}"
    assert quarantines[0].get("reason") \
        and quarantines[0]["reason"].strip() \
        == reasons[0].read_text().strip(), \
        f"quarantine reason not inline: {quarantines[0]}"
    assert quarantines[0].get("key") == reasons[0].name.split(".")[0], \
        f"quarantine charged to the wrong key: {quarantines[0]}"

    # Third run, fully warm: zero simulations.
    _, warm = run_grid(cache, workdir / "campaigns-3")
    assert warm.simulated == 0, \
        f"warm run still simulated {warm.simulated} cell(s)"


def scenario_sigterm_drain(workdir: Path) -> None:
    """SIGTERM mid-drain: graceful exit 0, then a byte-identical resume.

    The fault-free reference and the drained campaign plan the same
    grid (hence the same campaign id), so their ``--resume`` reports
    must match byte-for-byte — proving the drain lost nothing and
    double-ran nothing.
    """
    plan = run_cli("run_sweep.py", *SWEEP_FLAGS,
                   "--cache-dir", workdir / "ref-cache", "--plan-only")
    cid = plan.stdout.strip()
    run_cli("run_sweep.py", *SWEEP_FLAGS,
            "--cache-dir", workdir / "ref-cache", "--resume", cid,
            "--format", "csv", "--output", workdir / "ref.csv")

    run_cli("run_sweep.py", *SWEEP_FLAGS,
            "--cache-dir", workdir / "drain-cache", "--plan-only")
    cdir = workdir / "drain-cache" / "campaigns" / cid

    # One slow cell keeps the worker mid-cell long enough for the
    # signal to land before it leases another.
    with inject_faults(FaultSpec(kind="hang", match="*", times=1,
                                 seconds=6.0),
                       spool=str(workdir / "spool-drain")):
        proc = subprocess.Popen(
            [sys.executable, str(SCRIPTS / "campaign_worker.py"),
             "--campaign", str(cdir),
             "--cache-dir", str(workdir / "drain-cache"), "--no-wait"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=cli_env())
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            events = load_journal(cdir)
            if any(ev["ev"] == "lease" for ev in events):
                break
            time.sleep(0.1)
        else:
            proc.kill()
            raise AssertionError("worker never leased a cell")
        proc.send_signal(signal.SIGTERM)
        _, stderr = proc.communicate(timeout=90)
    assert proc.returncode == 0, \
        f"drained worker exited {proc.returncode}:\n{stderr}"
    assert "(drained on signal)" in stderr, \
        f"no drain notice in worker footer:\n{stderr}"

    counts = read_queue_counts(cdir)
    assert counts == {"done": 1, "pending": 3}, \
        f"drain did not stop after its in-flight cell: {counts}"
    events = load_journal(cdir)
    drains = [ev for ev in events if ev["ev"] == "worker_drain"]
    assert drains, "no worker_drain event journaled"
    assert drains[0].get("signal") == signal.SIGTERM, \
        f"drain not attributed to SIGTERM: {drains[0]}"
    assert drains[0].get("executed") == 1, \
        f"drain did not execute exactly its in-flight cell: {drains[0]}"

    run_cli("run_sweep.py", *SWEEP_FLAGS,
            "--cache-dir", workdir / "drain-cache", "--resume", cid,
            "--format", "csv", "--output", workdir / "drained.csv")
    assert (workdir / "drained.csv").read_bytes() \
        == (workdir / "ref.csv").read_bytes(), \
        "post-drain resume report differs from fault-free run"


def scenario_poison(workdir: Path) -> None:
    """Crash-every-attempt cell: poisoned, contained, fleet survives."""
    session = make_session(workdir / "poison-cache", retries=2)
    cells = grid(session)
    target = fault_label(descriptor_for(cells[0]))
    with inject_faults(FaultSpec(kind="crash", match=target, times=3),
                       spool=str(workdir / "spool-poison")):
        results = session.run_cells(cells, strict=False)

    assert len(results) == 3, \
        f"innocent cells lost to the poison cell: {len(results)} done"
    assert len(session.failures) == 1, \
        f"expected 1 failure, got {session.failures}"
    failure = session.failures[0]
    assert "poisoned" in failure.error, \
        f"poison cell not reported as poisoned: {failure}"

    cdir = Path(workdir / "poison-cache" / "campaigns"
                / session.last_campaign.campaign_id)
    counts = read_queue_counts(cdir)
    assert counts.get("poisoned") == 1 and counts.get("done") == 3, \
        f"queue counts wrong after poisoning: {counts}"
    events = load_journal(cdir)
    poisons = [ev for ev in events if ev["ev"] == "poisoned"]
    assert len(poisons) == 1, f"expected 1 poisoned event: {poisons}"
    assert "seed0" in (poisons[0].get("label") or ""), \
        f"poison charged to the wrong cell: {poisons[0]}"
    # Containment: only the first attempt may cost a fleet worker —
    # later attempts run in isolated children whose deaths are local.
    crashes = [ev for ev in events if ev["ev"] == "worker_exit"
               and ev.get("exitcode") == CRASH_EXIT_CODE]
    assert len(crashes) == 1, \
        f"poison cell kept killing fleet workers: {crashes}"


def scenario_orphan(workdir: Path) -> None:
    """Wrecked campaign dir: status flags it, a resume repairs it."""
    ref = workdir / "ref-cache"
    cid = run_cli("run_sweep.py", *SWEEP_FLAGS, "--cache-dir", ref,
                  "--plan-only").stdout.strip()
    run_cli("run_sweep.py", *SWEEP_FLAGS, "--cache-dir", ref,
            "--resume", cid, "--format", "csv",
            "--output", workdir / "ref.csv")

    cache = workdir / "orphan-cache"
    run_cli("run_sweep.py", *SWEEP_FLAGS, "--cache-dir", cache,
            "--plan-only")
    cdir = cache / "campaigns" / cid

    # Wreck it the way kill -9 does: a lease whose owner is gone and
    # a temp file mid-rename.
    conn = sqlite3.connect(cdir / "queue.sqlite")
    conn.execute(
        "UPDATE cells SET state='leased', lease_owner='ghost',"
        " lease_deadline=?"
        " WHERE key = (SELECT MIN(key) FROM cells)",
        (time.time() - 300.0,))
    conn.commit()
    conn.close()
    (cache / "ab").mkdir(parents=True, exist_ok=True)
    debris = cache / "ab" / "orphan.tmp"
    debris.write_text("junk", encoding="utf-8")
    os.utime(debris, (time.time() - 5000, time.time() - 5000))

    status = json.loads(run_cli("campaign_status.py", "--campaign",
                                cdir, "--json").stdout)
    assert status["stale_workers"] == ["ghost"], \
        f"status missed the dead owner: {status['stale_workers']}"

    resume = run_cli("run_sweep.py", *SWEEP_FLAGS, "--cache-dir", cache,
                     "--resume", cid, "--verify-cache", "--format", "csv",
                     "--output", workdir / "orphan.csv")
    assert "1 stale temp file(s) removed" in resume.stderr, \
        f"verify did not count the debris:\n{resume.stderr}"
    counts = read_queue_counts(cdir)
    assert counts == {"done": 4}, f"resume left the queue at {counts}"
    assert not debris.exists(), "resume left debris behind"
    expired = [ev for ev in load_journal(cdir)
               if ev["ev"] == "lease_expired"]
    assert [ev.get("worker") for ev in expired] == ["ghost"], \
        f"orphan lease not settled once, by its owner: {expired}"
    assert (workdir / "orphan.csv").read_bytes() \
        == (workdir / "ref.csv").read_bytes(), \
        "post-orphan resume report differs from fault-free run"


def main() -> int:
    scenarios = (scenario_crash, scenario_hang, scenario_corrupt,
                 scenario_sigterm_drain, scenario_poison,
                 scenario_orphan)
    failed = 0
    for scenario in scenarios:
        name = scenario.__name__.removeprefix("scenario_")
        workdir = Path(tempfile.mkdtemp(prefix=f"chaos-{name}-"))
        t0 = time.monotonic()
        try:
            scenario(workdir)
        except AssertionError as exc:
            failed += 1
            print(f"[chaos-smoke] {name}: FAIL — {exc}", file=sys.stderr)
        else:
            print(f"[chaos-smoke] {name}: ok "
                  f"({time.monotonic() - t0:.1f} s)", file=sys.stderr)
            shutil.rmtree(workdir, ignore_errors=True)
    if failed:
        print(f"[chaos-smoke] {failed}/{len(scenarios)} scenario(s) "
              "FAILED", file=sys.stderr)
        return 1
    print(f"[chaos-smoke] all {len(scenarios)} scenarios passed",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
