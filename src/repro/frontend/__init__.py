"""The decoupled SMT front-end — the paper's subject.

A two-stage front-end (Section 4 of the paper: the fetch pipeline is
decoupled into a *prediction* stage and a *fetch* stage, stretching the
pipeline from 8 to 9 stages):

1. The **prediction stage** asks the fetch engine for one fetch request
   per selected thread per cycle and pushes it into that thread's
   4-entry Fetch Target Queue (FTQ).
2. The **fetch stage** pops requests from the FTQs of the threads the
   fetch policy selects, drives (banked) I-cache accesses, and
   materialises instructions into the fetch buffer — following the
   *predicted* path through the basic-block dictionary, while the
   architectural context flags the first divergence.

Three interchangeable fetch engines implement the paper's comparison:
``gshare+BTB`` (conventional), ``gskew+FTB``, and the ``stream`` fetch
engine.  Fetch policies (``ICOUNT.N.X`` / ``RR.N.X``) choose which
threads predict and fetch; ``N = 2`` enables the bank-conflict logic and
merge path whose hardware cost the paper argues against.
"""

from repro.frontend.engine import EngineKind, FetchEngine, make_engine
from repro.frontend.fetch_unit import FetchStats, FetchUnit
from repro.frontend.gshare_btb import GShareBtbEngine
from repro.frontend.gskew_ftb import GSkewFtbEngine
from repro.frontend.policy import ICount, PolicySpec
from repro.frontend.request import FetchRequest
from repro.frontend.stream_engine import StreamFetchEngine

__all__ = [
    "EngineKind",
    "FetchEngine",
    "FetchRequest",
    "FetchStats",
    "FetchUnit",
    "GShareBtbEngine",
    "GSkewFtbEngine",
    "ICount",
    "PolicySpec",
    "StreamFetchEngine",
    "make_engine",
]
