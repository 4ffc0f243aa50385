"""Durable campaign execution: plan, queue, workers, provenance.

The campaign layer is the execution substrate of the stack.  A
*campaign* is a content-identified set of grid cells
(:mod:`~repro.campaign.manifest`), backed by a durable SQLite work
queue with lease/ack/nack semantics and in-queue retry budgets
(:mod:`~repro.campaign.queue`), drained by any number of identical
workers (:mod:`~repro.campaign.worker` — the in-process session, N
supervised processes, or standalone ``scripts/campaign_worker.py``
instances) and orchestrated by :class:`~repro.campaign.engine.Campaign`.

Everything higher in the stack —
:class:`~repro.experiments.session.ExperimentSession`, the sweep
runner, the CLIs — is a client of this layer; this layer must never
import them (workers rebuild cells from queue rows, not from session
state).
"""

from repro.campaign.cells import (
    CACHE_FORMAT_VERSION,
    Cell,
    cell_descriptor,
    cell_from_descriptor,
    cell_key,
    descriptor_for,
    execute_cell,
    key_for,
)
from repro.campaign.engine import Campaign
from repro.campaign.manifest import (
    CAMPAIGN_FORMAT_VERSION,
    campaign_id,
    queue_path,
    read_manifest,
    write_manifest,
)
from repro.campaign.queue import CellQueue, LeasedCell
from repro.campaign.worker import DrainStats, drain

__all__ = [
    "CACHE_FORMAT_VERSION",
    "CAMPAIGN_FORMAT_VERSION",
    "Campaign",
    "Cell",
    "CellQueue",
    "DrainStats",
    "LeasedCell",
    "campaign_id",
    "cell_descriptor",
    "cell_from_descriptor",
    "cell_key",
    "descriptor_for",
    "drain",
    "execute_cell",
    "key_for",
    "queue_path",
    "read_manifest",
    "write_manifest",
]
