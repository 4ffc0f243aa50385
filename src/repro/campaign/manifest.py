"""Campaign identity and the on-disk campaign manifest.

A *campaign* is a planned set of distinct cells.  Its id is a content
hash of that set — nothing else — so the same grid always plans to the
same campaign, whether the cache is cold or warm, whether one worker
or twenty will drain it, and whichever process computes it.  That is
what makes ``--resume <id>`` meaningful ("continue *this* grid") and
what lets every report carry a provenance stamp that survives re-runs
byte-identically.

The id hashes *backend-normalized* descriptors: ``config.backend``
is dropped before hashing.  It once selected between execution
strategies that were parity-pinned to the same results; only
``reference`` is left, and the normalisation stays so that campaign
ids planned before the others were removed do not change.  (Cache
keys and queue rows keep the field, so the cache addresses stay
stable too.)

On disk a campaign is a directory::

    <campaign_root>/<campaign_id>/
        manifest.json    # the planned cell set (write-once)
        queue.sqlite     # the durable work queue (see campaign.queue)
        events.jsonl     # append-only event journal (see repro.obs)
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

from repro.core.config import canonical_hash

CAMPAIGN_FORMAT_VERSION = 1
"""Version of the campaign identity scheme and manifest layout."""

MANIFEST_NAME = "manifest.json"
QUEUE_NAME = "queue.sqlite"


def normalized_descriptor(descriptor: dict) -> dict:
    """A cell descriptor with ``config.backend`` removed, so campaign
    ids stay what they were when several backends existed."""
    out = dict(descriptor)
    config = dict(out.get("config", {}))
    config.pop("backend", None)
    out["config"] = config
    return out


def campaign_id(descriptors) -> str:
    """Content-derived campaign id over a set of cell descriptors.

    Order-insensitive and duplicate-insensitive: the id names the
    *set* of measurements.  16 hex chars (64 bits) — short enough to
    type after ``--resume``, long enough that collisions within one
    campaign root are not a practical concern.
    """
    keys = sorted({canonical_hash(normalized_descriptor(d))
                   for d in descriptors})
    return canonical_hash({"version": CAMPAIGN_FORMAT_VERSION,
                           "cells": keys})[:16]


def campaign_dir(root: str | Path, cid: str) -> Path:
    """Directory of campaign ``cid`` under ``root``."""
    return Path(root) / cid


def queue_path(root: str | Path, cid: str) -> Path:
    """The campaign's durable queue database."""
    return campaign_dir(root, cid) / QUEUE_NAME


def write_manifest(root: str | Path, cid: str,
                   descriptors: dict[str, dict]) -> Path:
    """Persist the planned cell set (write-once, atomic).

    ``descriptors`` maps content key -> cell descriptor for every
    distinct cell of the campaign.  An existing manifest is left
    untouched — the id is content-derived, so it can only describe the
    same set (a resumed run must not churn the file's mtime or byte
    layout).
    """
    directory = campaign_dir(root, cid)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / MANIFEST_NAME
    if path.exists():
        return path
    doc = {
        "campaign": cid,
        "version": CAMPAIGN_FORMAT_VERSION,
        "cells": [{"key": key, "cell": descriptors[key]}
                  for key in sorted(descriptors)],
    }
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path


def read_manifest(root: str | Path, cid: str) -> dict:
    """Load a campaign's manifest (raises ``FileNotFoundError``)."""
    path = campaign_dir(root, cid) / MANIFEST_NAME
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def read_campaign_id(directory: str | Path) -> str | None:
    """The campaign id a campaign directory's manifest records.

    ``None`` when the manifest is missing or unreadable; each caller
    picks its own fallback.
    """
    try:
        with open(Path(directory) / MANIFEST_NAME, encoding="utf-8") as fh:
            return json.load(fh)["campaign"]
    except (OSError, ValueError, KeyError):
        return None
