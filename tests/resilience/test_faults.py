"""The fault-injection harness itself: labels, plans, budgets.

These tests never spawn workers — they exercise the pure machinery
(label construction, env round-trips, atomic claim budgets) that the
integration tests in ``test_retry_timeout.py`` rely on.
"""

import json
import os
from dataclasses import replace

import pytest

from repro.campaign.cells import descriptor_for
from repro.experiments import ExperimentSession
from repro.resilience import (
    ENV_VAR,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    fault_label,
    inject_faults,
    maybe_fire,
    should_corrupt,
)
from repro.sweeps.run import expand_cells
from repro.sweeps.spec import SweepSpec


def make_cell(workload="2_MIX", seed=0):
    session = ExperimentSession(cycles=300, warmup=150)
    config = session.config.with_(seed=seed)
    return session.make_cell(workload, "stream", "ICOUNT.1.8",
                             300, 150, config)


class TestLabels:
    def test_label_names_every_identity_field(self):
        label = fault_label(descriptor_for(make_cell(seed=3)))
        assert label == "2_MIX:stream:ICOUNT.1.8:c300:w150:seed3"

    def test_tuple_workloads_join_with_plus(self):
        label = fault_label(descriptor_for(
            make_cell(workload=("gzip", "twolf"))))
        assert label.startswith("gzip+twolf:")

    def test_queue_row_descriptor_keeps_the_label(self):
        # A queue row stores its descriptor as sorted-key JSON, where a
        # tuple workload becomes a list; the worker's and the cache's
        # fault hooks label the reloaded mapping, so it must agree with
        # the label the planner enqueued.
        for cell in (make_cell(seed=2),
                     make_cell(workload=("gzip", "twolf"))):
            descriptor = descriptor_for(cell)
            reloaded = json.loads(json.dumps(descriptor, sort_keys=True))
            assert fault_label(reloaded) == fault_label(descriptor)

    def test_config_sweep_points_get_distinct_labels(self):
        # An ftq_depth sweep used to journal, report and fault-match four
        # identical labels; non-default fields now name the point.
        session = ExperimentSession(cycles=2000, warmup=1000)
        spec = SweepSpec.of("ftq", {"ftq_depth": (1, 2, 4, 8),
                                    "seed": (1,)})
        cells = [cell for _, cell in expand_cells(spec, session)]
        descriptors = [descriptor_for(cell) for cell in cells]
        labels = [fault_label(descriptor) for descriptor in descriptors]
        base = "2_MIX:stream:ICOUNT.1.8:c2000:w1000:seed1"
        assert labels == [base + ":ftq_depth=1", base + ":ftq_depth=2",
                          base, base + ":ftq_depth=8"]
        for descriptor, label in zip(descriptors, labels):
            # A queue row stores its descriptor as sorted-key JSON.
            reloaded = json.loads(json.dumps(descriptor, sort_keys=True))
            assert fault_label(reloaded) == label
        # Substring specs written against the old labels still fire.
        for match, hits in (("seed1", 4), ("2_MIX:stream", 4),
                            ("ICOUNT.1.8:c2000", 4), ("ftq_depth=8", 1),
                            ("seed0", 0)):
            spec = FaultSpec(kind="raise", match=match)
            assert sum(spec.matches(label) for label in labels) == hits, \
                match

    def test_every_non_default_field_is_named_in_field_order(self):
        cell = make_cell()
        config = cell.config.with_(rob_entries=128, backend="batched",
                                   fetch_buffer=16)
        label = fault_label(descriptor_for(replace(cell, config=config)))
        assert label.endswith(":seed0:fetch_buffer=16:rob_entries=128"
                              ":backend=batched")


class TestFaultSpec:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec(kind="explode", match="*")

    def test_rejects_nonpositive_budget(self):
        with pytest.raises(ValueError, match="times"):
            FaultSpec(kind="raise", match="*", times=0)

    def test_star_matches_everything(self):
        spec = FaultSpec(kind="raise", match="*")
        assert spec.matches("anything:at:all")

    def test_substring_match(self):
        spec = FaultSpec(kind="raise", match="seed1")
        assert spec.matches("2_MIX:stream:ICOUNT.1.8:c300:w150:seed1")
        assert not spec.matches("2_MIX:stream:ICOUNT.1.8:c300:w150:seed0")


class TestPlanEnvChannel:
    def test_round_trip_through_env(self, tmp_path):
        plan = FaultPlan([FaultSpec(kind="hang", match="seed1",
                                    times=2, seconds=5.0)],
                         tmp_path / "spool")
        restored = FaultPlan.from_env({ENV_VAR: plan.to_env()})
        assert restored.specs == plan.specs
        assert restored.spool == plan.spool

    def test_no_env_means_no_plan(self):
        assert FaultPlan.from_env({}) is None

    def test_inject_faults_sets_and_restores_env(self, tmp_path):
        assert os.environ.get(ENV_VAR) is None
        with inject_faults(FaultSpec(kind="raise", match="nothing"),
                           spool=tmp_path):
            assert os.environ.get(ENV_VAR)
        assert os.environ.get(ENV_VAR) is None


class TestClaimBudgets:
    def test_budget_spends_exactly_times_claims(self, tmp_path):
        spec = FaultSpec(kind="raise", match="*", times=2)
        plan = FaultPlan([spec], tmp_path)
        assert plan._claim(0, spec)
        assert plan._claim(0, spec)
        assert not plan._claim(0, spec)

    def test_budget_is_shared_across_plan_instances(self, tmp_path):
        # A crashed worker's claim must survive its death: a *new*
        # FaultPlan over the same spool (what the retried attempt
        # deserialises from the env) sees the budget already spent.
        spec = FaultSpec(kind="raise", match="*", times=1)
        assert FaultPlan([spec], tmp_path)._claim(0, spec)
        assert not FaultPlan([spec], tmp_path)._claim(0, spec)

    def test_independent_faults_have_independent_budgets(self, tmp_path):
        a = FaultSpec(kind="raise", match="a")
        b = FaultSpec(kind="raise", match="b")
        plan = FaultPlan([a, b], tmp_path)
        assert plan._claim(0, a)
        assert plan._claim(1, b)


class TestFiring:
    def test_maybe_fire_is_noop_without_plan(self):
        maybe_fire("any:label")            # must not raise

    def test_raise_fault_fires_then_spends(self, tmp_path):
        with inject_faults(FaultSpec(kind="raise", match="seed0"),
                           spool=tmp_path):
            with pytest.raises(InjectedFault):
                maybe_fire("x:seed0")
            maybe_fire("x:seed0")          # budget spent: clean
            maybe_fire("x:seed1")          # never matched: clean

    def test_corrupt_fault_claims_through_should_corrupt(self, tmp_path):
        with inject_faults(FaultSpec(kind="corrupt", match="seed0"),
                           spool=tmp_path):
            assert not should_corrupt("x:seed1")
            assert should_corrupt("x:seed0")
            assert not should_corrupt("x:seed0")   # budget spent

    def test_corrupt_faults_never_fire_in_the_worker_path(self, tmp_path):
        # maybe_fire only considers worker kinds; a corrupt fault must
        # wait for the cache-write hook.
        with inject_faults(FaultSpec(kind="corrupt", match="*"),
                           spool=tmp_path):
            maybe_fire("x:seed0")          # must not claim
            assert should_corrupt("x:seed0")
