"""Crash-mid-campaign resume: the tentpole durability invariant.

A campaign interrupted by a dying worker — an unsupervised external
process killed mid-drain — must be resumable by a fresh worker with no
memory of the first, and the final report must be byte-identical to an
uninterrupted run.  Durable queue rows plus content-addressed results
make this a structural property, exercised here with real simulations
and the fault-injection harness.
"""

import json
import multiprocessing

from repro.campaign import CellQueue, read_manifest
from repro.campaign.worker import drain, worker_process_entry
from repro.experiments import ExperimentSession
from repro.experiments.cache import ResultCache
from repro.resilience import FaultSpec, inject_faults
from repro.sweeps import FORMATTERS
from repro.sweeps.run import run_sweep
from repro.sweeps.spec import SweepSpec

FAST = dict(cycles=300, warmup=150)


def grid(session, seeds=(0, 1), policies=("ICOUNT.1.8", "RR.1.8")):
    return [session.make_cell("2_MIX", "stream", policy, None, None,
                              session.config.with_(seed=seed))
            for policy in policies for seed in seeds]


def as_dicts(results):
    return [results[cell].to_dict() for cell in sorted(
        results, key=lambda c: (c.policy, c.config.seed))]


class TestWorkerDeathAndResume:
    def test_killed_worker_then_fresh_worker_then_identical_report(
            self, tmp_path):
        # Uninterrupted reference run.
        clean_session = ExperimentSession(cache_dir=tmp_path / "clean",
                                          **FAST)
        clean = clean_session.run_cells(grid(clean_session))

        # Plan a durable campaign, then hand it to an external worker
        # that the faults harness kills (os._exit) mid-drain.
        cache_dir = tmp_path / "cache"
        planner = ExperimentSession(
            cache_dir=cache_dir,
            campaign_dir=str(tmp_path / "campaigns"),
            retries=1, **FAST)
        plan = planner.plan(grid(planner))
        planner.plan_campaign(plan)
        queue_file = str(tmp_path / "campaigns" / plan.campaign_id
                         / "queue.sqlite")

        with inject_faults(FaultSpec(kind="crash", match="seed0",
                                     times=1),
                           spool=tmp_path / "spool"):
            ctx = multiprocessing.get_context("spawn")
            proc = ctx.Process(
                target=worker_process_entry,
                args=(queue_file, "doomed", str(cache_dir),
                      None, 1.0))         # 1 s lease
            proc.start()
            proc.join(120)
            assert proc.exitcode == 86    # died mid-drain, as injected

            # Restart: a fresh worker (same faults env — the spool
            # shows the crash budget already spent, so it survives)
            # reclaims the dead worker's expired lease and finishes.
            with CellQueue(queue_file) as queue:
                assert queue.unresolved() > 0
                drain(queue, worker_id="fresh",
                      cache=ResultCache(cache_dir), lease_seconds=1.0)
                assert queue.unresolved() == 0
                assert not queue.failures()

        # Resume by id: the same grid replans to the same campaign and
        # assembles the report without simulating anything.
        resumer = ExperimentSession(
            cache_dir=cache_dir,
            campaign_dir=str(tmp_path / "campaigns"), **FAST)
        resumed = resumer.run_cells(grid(resumer))
        assert resumer.simulated == 0
        assert resumer.last_campaign.campaign_id == plan.campaign_id
        assert as_dicts(resumed) == as_dicts(clean)

    def test_manifest_names_the_full_cell_set(self, tmp_path):
        planner = ExperimentSession(
            cache_dir=tmp_path / "cache",
            campaign_dir=str(tmp_path / "campaigns"), **FAST)
        cells = grid(planner)
        plan = planner.plan(cells)
        planner.plan_campaign(plan)
        manifest = read_manifest(tmp_path / "campaigns",
                                 plan.campaign_id)
        assert manifest["campaign"] == plan.campaign_id
        assert len(manifest["cells"]) == len(cells)
        keys = [entry["key"] for entry in manifest["cells"]]
        assert keys == sorted(keys)
        # Replanning must not rewrite the manifest (write-once).
        before = (tmp_path / "campaigns" / plan.campaign_id
                  / "manifest.json").read_bytes()
        planner.plan_campaign(planner.plan(cells))
        after = (tmp_path / "campaigns" / plan.campaign_id
                 / "manifest.json").read_bytes()
        assert after == before


class TestSupervisedCrashReport:
    def test_sweep_report_bytes_survive_a_worker_crash(self, tmp_path):
        # The engine-supervised flavour of the same invariant, at the
        # report level: a crash inside the worker fleet must not change
        # a byte of the rendered sweep report.
        spec = SweepSpec.of(
            "crashy", {"policy": ("ICOUNT.1.8", "RR.1.8"),
                       "seed": (0, 1)}, **FAST)

        def render(cache, jobs, retries):
            session = ExperimentSession(cache_dir=tmp_path / cache,
                                        jobs=jobs, retries=retries,
                                        **FAST)
            return FORMATTERS["md"](run_sweep(spec, session))

        clean = render("clean", jobs=1, retries=0)
        with inject_faults(FaultSpec(kind="crash", match="seed0",
                                     times=1),
                           spool=tmp_path / "spool"):
            crashy = render("crashy", jobs=2, retries=1)
        assert crashy == clean
