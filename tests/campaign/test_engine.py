"""Campaign identity and multi-worker execution parity.

The acceptance invariants of the campaign layer: the id is a pure
function of the planned cell set (not of cache state, worker count or
backend name), and N workers draining one queue produce
bit-identical results to the single-process path.
"""

import pytest

from repro.campaign import (
    Campaign,
    CellQueue,
    campaign_id,
    drain,
    key_for,
)
from repro.campaign.cells import descriptor_for
from repro.core.config import DEFAULT_CONFIG
from repro.core.metrics import SimResult
from repro.experiments import ExperimentSession
from repro.resilience import FaultSpec, inject_faults
from repro.resilience.faults import fault_label

FAST = dict(cycles=300, warmup=150)


def grid(session, seeds=(0, 1), policies=("ICOUNT.1.8", "RR.1.8")):
    return [session.make_cell("2_MIX", "stream", policy, None, None,
                              session.config.with_(seed=seed))
            for policy in policies for seed in seeds]


def as_dicts(results):
    return [results[cell].to_dict() for cell in sorted(
        results, key=lambda c: (c.policy, c.config.seed))]


class TestCampaignIdentity:
    def test_id_is_order_and_duplicate_insensitive(self):
        session = ExperimentSession(**FAST)
        cells = grid(session)
        descriptors = [descriptor_for(cell) for cell in cells]
        assert campaign_id(descriptors) \
            == campaign_id(list(reversed(descriptors))) \
            == campaign_id(descriptors + descriptors[:2])

    def test_id_ignores_the_backend(self):
        # The id hashes backend-normalized descriptors, so campaigns
        # planned when other backends existed keep their ids.
        ref = ExperimentSession(**FAST)
        bat = ExperimentSession(
            config=DEFAULT_CONFIG.with_(backend="batched"), **FAST)
        assert ref.plan(grid(ref)).campaign_id \
            == bat.plan(grid(bat)).campaign_id

    def test_id_changes_when_the_grid_changes(self):
        session = ExperimentSession(**FAST)
        assert session.plan(grid(session)).campaign_id \
            != session.plan(grid(session, seeds=(0,))).campaign_id

    def test_warm_plan_names_the_same_campaign(self, tmp_path):
        session = ExperimentSession(cache_dir=tmp_path / "cache", **FAST)
        cells = grid(session, seeds=(0,), policies=("ICOUNT.1.8",))
        cold = session.plan(cells)
        assert cold.misses                      # genuinely cold
        session.run_cells(cells)
        warm = session.plan(cells)
        assert warm.campaign_id == cold.campaign_id
        assert not warm.misses
        assert warm.info.cells == cold.info.cells
        assert warm.info.as_dict() == cold.info.as_dict()

    def test_run_cells_records_the_campaign(self, tmp_path):
        session = ExperimentSession(cache_dir=tmp_path / "cache", **FAST)
        session.run_cells(grid(session, seeds=(0,)))
        assert session.last_campaign is not None
        assert session.last_campaign.cells == 2


class TestWorkerParity:
    def test_two_spawned_workers_match_single_process(self, tmp_path):
        serial = ExperimentSession(cache_dir=tmp_path / "a", **FAST)
        results_1 = serial.run_cells(grid(serial))
        fleet = ExperimentSession(cache_dir=tmp_path / "b", jobs=2,
                                  **FAST)
        results_2 = fleet.run_cells(grid(fleet))
        assert fleet.simulated == 4
        assert as_dicts(results_2) == as_dicts(results_1)

    def test_two_manual_workers_partition_one_queue(self, tmp_path):
        # The standalone-worker contract without processes: two queue
        # connections interleave leases on one file; between them every
        # row resolves and the stored results parse back bit-identical
        # to inline execution.
        session = ExperimentSession(**FAST)
        cells = grid(session)
        inline = session.run_cells(cells)

        planned = {key_for(c): descriptor_for(c) for c in cells}
        misses = [(key, planned[key], fault_label(cell))
                  for key, cell in ((key_for(c), c) for c in cells)]
        campaign = Campaign.open(planned, misses,
                                 root=tmp_path / "campaigns",
                                 need_file=True)
        try:
            with CellQueue(campaign.queue_file) as a, \
                    CellQueue(campaign.queue_file) as b:
                stats_a = drain(a, worker_id="a", lease_batch=1,
                                wait=False)
                stats_b = drain(b, worker_id="b", lease_batch=4,
                                wait=False)
            assert stats_a.executed + stats_b.executed == 4
            assert campaign.queue.unresolved() == 0
            outcomes = campaign.outcomes(planned)
            assert all(isinstance(o, SimResult)
                       for o in outcomes.values())
            assert {key: outcomes[key].to_dict() for key in planned} \
                == {key_for(c): inline[c].to_dict() for c in cells}
        finally:
            campaign.close()

    def test_queue_results_survive_for_a_later_collector(self, tmp_path):
        # Plan, drain, throw the Campaign object away — a fresh process
        # collecting from the same directory sees the full outcome.
        session = ExperimentSession(**FAST)
        cells = grid(session, seeds=(0,))
        planned = {key_for(c): descriptor_for(c) for c in cells}
        misses = [(k, d, "label") for k, d in planned.items()]
        first = Campaign.open(planned, misses,
                              root=tmp_path / "campaigns", need_file=True)
        first.execute()
        first.close()
        second = Campaign.open(planned, [],
                               root=tmp_path / "campaigns")
        try:
            assert second.id == first.id
            outcomes = second.outcomes(planned)
            assert len(outcomes) == len(planned)
        finally:
            second.close()


class TestLeaseFailure:
    @pytest.mark.parametrize("isolate", [False, True],
                             ids=["inline", "isolated"])
    def test_one_failure_costs_one_cell_in_one_lease_round(
            self, tmp_path, isolate):
        # The failing cell is leased first: its batch-mates still run
        # in the same lease round, on their own budgets.
        session = ExperimentSession(**FAST)
        cells = grid(session, seeds=(0, 1, 2), policies=("ICOUNT.1.8",))
        with CellQueue() as queue:
            queue.add([(key_for(c), descriptor_for(c), fault_label(c))
                       for c in cells], max_attempts=1)
            with inject_faults(FaultSpec(kind="raise", match="seed0",
                                         times=1),
                               spool=tmp_path / "spool"):
                stats = drain(queue, worker_id="w", lease_batch=3,
                              wait=False, isolate=isolate)
            assert stats.leases == 1
            assert (stats.executed, stats.failed) == (2, 1)
            assert queue.counts() == {"done": 2, "failed": 1}


class TestEphemeralCampaigns:
    def test_memory_queue_for_the_degenerate_case(self):
        session = ExperimentSession(**FAST)
        cells = grid(session, seeds=(0,), policies=("ICOUNT.1.8",))
        planned = {key_for(c): descriptor_for(c) for c in cells}
        campaign = Campaign.open(planned,
                                 [(k, d, "x") for k, d
                                  in planned.items()])
        try:
            assert campaign.queue_file is None
            campaign.execute()
            assert campaign.queue.unresolved() == 0
        finally:
            campaign.close()

    def test_ephemeral_file_queue_is_cleaned_up(self):
        import os
        session = ExperimentSession(**FAST)
        cells = grid(session, seeds=(0,), policies=("ICOUNT.1.8",))
        planned = {key_for(c): descriptor_for(c) for c in cells}
        campaign = Campaign.open(planned, [], need_file=True)
        queue_file = campaign.queue_file
        assert queue_file is not None and os.path.exists(queue_file)
        campaign.close()
        campaign.close()                        # idempotent
        assert not os.path.exists(queue_file)
