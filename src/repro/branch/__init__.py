"""Branch prediction substrate.

Implements the three fetch-engine building sets the paper compares
(Section 3 and Table 3):

* ``gshare`` (64K-entry) + ``BTB`` (2K-entry, 4-way) — the
  conventional SMT front-end;
* ``gskew`` (3 x 32K-entry, majority vote) + ``FTB`` (2K-entry, 4-way
  fetch blocks that embed never-taken branches);
* the cascaded ``stream predictor`` (1K-entry 4-way address-indexed +
  4K-entry 4-way DOLC path-indexed, DOLC 16-2-4-10).

Table 3 gives gshare 16 and gskew 15 bits of global history, and the
``GShare``/``GSkew`` constructors default to those.  The simulator runs
6 and 5 bits (``SimConfig.gshare_history``/``gskew_history``; DESIGN.md
§3 says why).

Plus the shared pieces: per-thread speculative global history with
checkpoint/restore, and a 64-entry per-thread return address stack with
top-of-stack repair.

Prediction tables are shared between hardware threads (as in an SMT
front-end); histories and the RAS are per thread and owned by the fetch
engines.
"""

from repro.branch.btb import BTB, BTBEntry
from repro.branch.common import SaturatingCounterTable, SetAssocTable
from repro.branch.ftb import FTB, FTBEntry
from repro.branch.gshare import GShare
from repro.branch.gskew import GSkew
from repro.branch.history import GlobalHistory
from repro.branch.ras import ReturnAddressStack
from repro.branch.stream import DolcHistory, StreamEntry, StreamPredictor

__all__ = [
    "BTB",
    "BTBEntry",
    "DolcHistory",
    "FTB",
    "FTBEntry",
    "GShare",
    "GSkew",
    "GlobalHistory",
    "ReturnAddressStack",
    "SaturatingCounterTable",
    "SetAssocTable",
    "StreamEntry",
    "StreamPredictor",
]
