"""Reading a campaign directory's manifest.

``read_campaign_id`` is the one reader of the manifest's campaign id
shared by the worker CLI and the status tool; each caller picks its
own fallback for a manifest it cannot read.
"""

import json
from pathlib import Path

import pytest

from repro.campaign.manifest import MANIFEST_NAME, read_campaign_id
from repro.experiments import ExperimentSession

FAST = dict(cycles=300, warmup=150)


def test_reads_the_planned_campaign_id(tmp_path):
    planner = ExperimentSession(cache_dir=tmp_path / "cache",
                                campaign_dir=str(tmp_path / "campaigns"),
                                **FAST)
    plan = planner.plan(
        [planner.make_cell("2_MIX", "stream", "ICOUNT.1.8")])
    planner.plan_campaign(plan)
    cdir = tmp_path / "campaigns" / plan.campaign_id
    assert read_campaign_id(cdir) == plan.campaign_id
    assert read_campaign_id(str(cdir)) == plan.campaign_id


def _no_directory(cdir: Path) -> None:
    pass


def _no_manifest(cdir: Path) -> None:
    cdir.mkdir()


def _torn_manifest(cdir: Path) -> None:
    cdir.mkdir()
    (cdir / MANIFEST_NAME).write_text('{"campaign": "abc',
                                      encoding="utf-8")


def _manifest_without_id(cdir: Path) -> None:
    cdir.mkdir()
    (cdir / MANIFEST_NAME).write_text(json.dumps({"cells": []}),
                                      encoding="utf-8")


@pytest.mark.parametrize("make", [
    _no_directory, _no_manifest, _torn_manifest, _manifest_without_id,
], ids=["no-directory", "no-manifest", "torn", "no-campaign-key"])
def test_unreadable_manifest_reads_as_none(tmp_path, make):
    cdir = tmp_path / "c0ffee"
    make(cdir)
    assert read_campaign_id(cdir) is None
