"""Golden-parity contract for hot-path optimisations.

The cycle loop is aggressively optimised (event-wheel writeback,
ready-count wakeup, closure-specialised stages); these tests pin the
contract that none of it may change a simulated outcome.  The fixture
was generated *before* the optimisations and must keep matching
byte-for-byte; see :mod:`repro.perf.parity` for the regeneration
protocol when an intentional behaviour change lands.
"""

from pathlib import Path

from repro.core.config import SimConfig
from repro.experiments.cache import cell_key
from repro.perf.parity import (
    PARITY_CELLS,
    PARITY_CYCLES,
    PARITY_WARMUP,
    canonical_json,
    collect_parity,
    parity_label,
)

FIXTURE = Path(__file__).with_name("golden_parity.json")


class TestGoldenParity:
    def test_fixture_exists_and_covers_grid(self):
        text = FIXTURE.read_text(encoding="utf-8")
        for cell in PARITY_CELLS:
            assert f'"{parity_label(*cell)}"' in text

    def test_simulation_results_byte_identical(self):
        """Every pinned cell reproduces its fixture dict byte-for-byte."""
        got = canonical_json(collect_parity())
        want = FIXTURE.read_text(encoding="utf-8")
        assert got == want, (
            "SimResult parity broken: a change altered a simulated "
            "outcome.  If the change is intentional, regenerate the "
            "fixture (see repro/perf/parity.py) and bump "
            "CACHE_FORMAT_VERSION in the same commit.")

    def test_cell_keys_unchanged(self):
        """Content-addressed cache keys are pinned alongside results.

        Warm caches written since the backend seam landed must keep
        hitting: the cell key of a known cell is frozen here.  (The pin
        was regenerated when ``SimConfig`` gained the ``backend`` field
        — that change invalidated older caches by design.)
        """
        assert cell_key("2_MIX", "stream", "ICOUNT.2.8",
                        PARITY_CYCLES, PARITY_WARMUP, SimConfig()) == (
            "748d37b302f73ae30335966cde024071"
            "e9479f43116f5b05f4ce1f471afcd6cb")

    def test_backend_identity_changes_cell_keys(self):
        """Backend identity participates in every cache key.

        Cached results are tagged with the backend that produced them:
        byte-equality is *verified* on the parity grid, not assumed for
        arbitrary cells, so a backend bug can never poison the cache of
        another backend.
        """
        reference = SimConfig()
        batched = SimConfig(backend="batched")
        assert cell_key("2_MIX", "stream", "ICOUNT.2.8", PARITY_CYCLES,
                        PARITY_WARMUP, reference) != \
            cell_key("2_MIX", "stream", "ICOUNT.2.8", PARITY_CYCLES,
                     PARITY_WARMUP, batched)
