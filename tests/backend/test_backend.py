"""The backend layer: the reference backend and its one name.

Byte-for-byte parity against the golden fixture lives in
``tests/perf/test_golden_parity.py``; these tests cover the layer
itself — name lookup, the backend's phases against ``Simulator.run``,
and the plumbing through ``simulate`` and the campaign's per-cell
path.
"""

import json

import pytest

from repro.backend import ReferenceBackend, get_backend
from repro.campaign.cells import Cell, execute_cell
from repro.core.config import SimConfig
from repro.core.simulator import Simulator, simulate
from repro.core.workloads import WORKLOADS

FAST = dict(cycles=400, warmup=200)


def render(result) -> str:
    return json.dumps(result.to_dict(), sort_keys=True)


class TestRegistry:
    def test_get_backend_returns_classes(self):
        assert get_backend("reference") is ReferenceBackend

    def test_unknown_backend_suggests_close_match(self):
        with pytest.raises(ValueError, match="reference"):
            get_backend("refrence")
        with pytest.raises(ValueError, match="registered"):
            get_backend("no_such_engine")

    def test_cell_planned_for_a_removed_backend_fails_by_name(self):
        # A durable campaign planned with ``--backend batched`` resumes
        # into cells whose config still names that backend.
        cell = Cell("2_MIX", "stream", "ICOUNT.2.8", 400, 200,
                    SimConfig(backend="batched"))
        with pytest.raises(ValueError, match="reference"):
            execute_cell(cell)


class TestProtocol:
    def test_run_equals_warm_advance_result(self):
        a = ReferenceBackend(WORKLOADS["2_MIX"], engine="stream",
                             policy="ICOUNT.2.8", workload_name="2_MIX")
        a.warm(200)
        a.advance(400)
        b = Simulator(WORKLOADS["2_MIX"], engine="stream",
                      policy="ICOUNT.2.8", workload_name="2_MIX")
        assert render(a.result()) == render(b.run(400, warmup=200))

    def test_run_defaults_warmup_to_config(self):
        config = SimConfig(warmup_cycles=200)
        a = ReferenceBackend(WORKLOADS["2_MIX"], config=config,
                             workload_name="2_MIX")
        a.warm(200)
        a.advance(400)
        b = Simulator(WORKLOADS["2_MIX"], config=config,
                      workload_name="2_MIX")
        assert render(a.result()) == render(b.run(400))

    def test_simulate_rejects_unknown_backend(self):
        with pytest.raises(ValueError, match="backend"):
            simulate("2_MIX", config=SimConfig(backend="turbo"), **FAST)
