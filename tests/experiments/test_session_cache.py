"""Tests for the experiment session and the content-addressed cache."""

import json
import os

import pytest

from repro.campaign.cells import key_for
from repro.core.config import DEFAULT_CONFIG, SimConfig
from repro.core.metrics import SimResult
from repro.core.simulator import simulate
from repro.experiments import FIGURES, ExperimentSession
from repro.experiments.cache import ResultCache, cell_key

FAST = dict(cycles=400, warmup=200)


def fast_session(**kwargs) -> ExperimentSession:
    return ExperimentSession(cycles=400, warmup=200, **kwargs)


class TestConfigDict:
    def test_round_trip_dict(self):
        cfg = SimConfig(seed=7, ftq_depth=2)
        assert SimConfig.from_dict(cfg.to_dict()) == cfg

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown"):
            SimConfig.from_dict({"not_a_knob": 1})


class TestSimResultSerialization:
    def test_json_round_trip_is_lossless(self):
        result = simulate("2_MIX", cycles=300, warmup=150)
        wire = json.loads(json.dumps(result.to_dict()))
        assert SimResult.from_dict(wire) == result

    def test_delivered_at_least_keys_restored_as_ints(self):
        result = simulate("2_MIX", cycles=300, warmup=150)
        back = SimResult.from_dict(json.loads(json.dumps(
            result.to_dict())))
        assert all(isinstance(k, int) for k in back.delivered_at_least)
        assert back.committed_by_thread == result.committed_by_thread

    def test_from_dict_rejects_unknown_fields(self):
        data = simulate("2_MIX", cycles=300, warmup=150).to_dict()
        data["surprise"] = 1
        with pytest.raises(ValueError, match="unknown"):
            SimResult.from_dict(data)


class TestCellKey:
    def test_distinct_config_objects_same_key(self):
        # The historical bug: keying on id(config) made equal-content
        # configs distinct (and recycled ids collide).  Content keys
        # depend only on field values.
        k1 = cell_key("2_MIX", "stream", "ICOUNT.1.8", 400, 200,
                      SimConfig(seed=5))
        k2 = cell_key("2_MIX", "stream", "ICOUNT.1.8", 400, 200,
                      SimConfig(seed=5))
        assert k1 == k2

    def test_differing_configs_differ(self):
        base = cell_key("2_MIX", "stream", "ICOUNT.1.8", 400, 200,
                        SimConfig())
        for config in (SimConfig(seed=1), SimConfig(l2_kb=512),
                       SimConfig(warmup_cycles=1)):
            assert base != cell_key("2_MIX", "stream", "ICOUNT.1.8", 400,
                                    200, config)
        assert base != cell_key("2_MIX", "stream", "ICOUNT.1.8", 401, 200,
                                SimConfig())
        assert base != cell_key("2_MIX", "stream", "ICOUNT.1.8", 400, 201,
                                SimConfig())
        assert base != cell_key("2_MIX", "stream", "ICOUNT.2.8", 400, 200,
                                SimConfig())

    def test_tuple_workloads_supported(self):
        k1 = cell_key(("gzip", "twolf"), "stream", "ICOUNT.1.8", 400, 200,
                      DEFAULT_CONFIG)
        k2 = cell_key(("gzip", "twolf"), "stream", "ICOUNT.1.8", 400, 200,
                      DEFAULT_CONFIG)
        assert k1 == k2
        assert k1 != cell_key(("twolf", "gzip"), "stream", "ICOUNT.1.8",
                              400, 200, DEFAULT_CONFIG)

    def test_cache_format_version_bump_changes_every_key(self,
                                                         monkeypatch):
        # Cell keys are the only cache keys: a results-changing release
        # bumps CACHE_FORMAT_VERSION, and no key may survive it.
        import repro.campaign.cells as cells_module
        cells = [(workload, engine, policy, cycles, warmup, config)
                 for workload in ("2_MIX", ("gzip", "twolf"))
                 for engine, policy in (("stream", "ICOUNT.1.8"),
                                        ("gshare+BTB", "ICOUNT.2.8"))
                 for cycles, warmup in ((400, 200), (1200, 600))
                 for config in (DEFAULT_CONFIG, SimConfig(seed=1))]
        before = {cell_key(*cell) for cell in cells}
        assert len(before) == len(cells)
        monkeypatch.setattr(cells_module, "CACHE_FORMAT_VERSION",
                            cells_module.CACHE_FORMAT_VERSION + 1)
        after = {cell_key(*cell) for cell in cells}
        assert len(after) == len(cells)
        assert not before & after


class TestResultCache:
    def test_put_get_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        result = simulate("2_MIX", cycles=300, warmup=150)
        cache.put("ab" * 32, result)
        assert cache.get("ab" * 32) == result

    def test_missing_key_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get("cd" * 32) is None
        assert cache.misses == 1

    def test_corrupted_file_is_ignored_not_fatal(self, tmp_path):
        cache = ResultCache(tmp_path)
        result = simulate("2_MIX", cycles=300, warmup=150)
        key = "ef" * 32
        cache.put(key, result)
        cache.path_for(key).write_text("{ not json", encoding="utf-8")
        assert cache.get(key) is None

    def test_foreign_key_content_is_ignored(self, tmp_path):
        # A file whose embedded key disagrees with its name (e.g. a
        # partial copy from another cache) must read as a miss.
        cache = ResultCache(tmp_path)
        result = simulate("2_MIX", cycles=300, warmup=150)
        cache.put("12" * 32, result)
        target = cache.path_for("34" * 32)
        target.parent.mkdir(parents=True, exist_ok=True)
        cache.path_for("12" * 32).rename(target)
        assert cache.get("34" * 32) is None

    def test_len_counts_entries(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert len(cache) == 0
        result = simulate("2_MIX", cycles=300, warmup=150)
        cache.put("aa" * 32, result)
        cache.put("bb" * 32, result)
        assert len(cache) == 2


class TestCacheSchemaVersion:
    """Stale-format entries must miss, never deserialise silently."""

    def put_one(self, tmp_path) -> tuple[ResultCache, str]:
        cache = ResultCache(tmp_path)
        result = simulate("2_MIX", cycles=300, warmup=150)
        key = "ab" * 32
        cache.put(key, result)
        return cache, key

    def test_payload_is_schema_stamped(self, tmp_path):
        from repro.experiments.cache import RESULT_SCHEMA_VERSION
        cache, key = self.put_one(tmp_path)
        payload = json.loads(cache.path_for(key).read_text("utf-8"))
        assert payload["schema"] == RESULT_SCHEMA_VERSION

    def test_stale_schema_reads_as_miss(self, tmp_path):
        cache, key = self.put_one(tmp_path)
        path = cache.path_for(key)
        payload = json.loads(path.read_text("utf-8"))
        payload["schema"] = 0
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert cache.get(key) is None
        assert cache.misses == 1

    def test_pre_versioning_entry_reads_as_miss(self, tmp_path):
        # Entries written before schema stamping carry no marker at
        # all; they must be treated as stale, not trusted.
        cache, key = self.put_one(tmp_path)
        path = cache.path_for(key)
        payload = json.loads(path.read_text("utf-8"))
        del payload["schema"]
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert cache.get(key) is None

    def test_schema_bump_invalidates_existing_entries(self, tmp_path,
                                                      monkeypatch):
        import repro.experiments.cache as cache_module
        cache, key = self.put_one(tmp_path)
        assert cache.get(key) is not None
        monkeypatch.setattr(cache_module, "RESULT_SCHEMA_VERSION", 999)
        assert cache.get(key) is None


class TestCacheMaintenance:
    def filled(self, tmp_path, n=4) -> ResultCache:
        cache = ResultCache(tmp_path)
        result = simulate("2_MIX", cycles=300, warmup=150)
        for i in range(n):
            key = f"{i:02x}" * 32
            cache.put(key, result)
            # Spread mtimes so LRU order is deterministic even on
            # coarse-granularity filesystems.
            path = cache.path_for(key)
            os.utime(path, (1_000_000 + i, 1_000_000 + i))
        return cache

    def test_stats_counts_entries_and_bytes(self, tmp_path):
        cache = self.filled(tmp_path, n=3)
        stats = cache.stats()
        assert stats["entries"] == 3
        assert stats["bytes"] > 0
        assert stats["oldest"] <= stats["newest"]

    def test_stats_on_empty_cache(self, tmp_path):
        stats = ResultCache(tmp_path / "nothing").stats()
        assert stats == {"entries": 0, "bytes": 0,
                         "oldest": None, "newest": None,
                         "quarantined": 0}

    def test_prune_max_entries_evicts_oldest_first(self, tmp_path):
        cache = self.filled(tmp_path, n=4)
        assert cache.prune(max_entries=2) == 2
        assert len(cache) == 2
        # The two newest (utime-stamped) entries survive.
        assert cache.path_for("02" * 32).exists()
        assert cache.path_for("03" * 32).exists()
        assert not cache.path_for("00" * 32).exists()

    def test_prune_noop_within_budget(self, tmp_path):
        cache = self.filled(tmp_path, n=2)
        assert cache.prune(max_entries=5) == 0
        assert len(cache) == 2

    def test_pruned_entry_resimulates_cleanly(self, tmp_path):
        session = fast_session(cache_dir=tmp_path)
        session.measure("2_MIX", "gshare+BTB", "ICOUNT.1.8")
        session.disk.prune(max_entries=0)
        fresh = fast_session(cache_dir=tmp_path)
        fresh.measure("2_MIX", "gshare+BTB", "ICOUNT.1.8")
        assert fresh.simulated == 1

    def test_prune_rejects_negative_budgets(self, tmp_path):
        cache = ResultCache(tmp_path)
        with pytest.raises(ValueError):
            cache.prune(max_entries=-1)


class TestExperimentSession:
    def test_same_content_configs_hit_across_identities(self, tmp_path):
        session = fast_session(cache_dir=tmp_path)
        a = session.measure("2_MIX", "gshare+BTB", "ICOUNT.1.8",
                            config=SimConfig(seed=2))
        b = session.measure("2_MIX", "gshare+BTB", "ICOUNT.1.8",
                            config=SimConfig(seed=2))
        assert a is b
        assert session.simulated == 1

    def test_differing_configs_miss(self, tmp_path):
        session = fast_session(cache_dir=tmp_path)
        session.measure("2_MIX", "gshare+BTB", "ICOUNT.1.8",
                        config=SimConfig(seed=2))
        session.measure("2_MIX", "gshare+BTB", "ICOUNT.1.8",
                        config=SimConfig(seed=3))
        assert session.simulated == 2

    def test_warm_disk_cache_runs_zero_simulations(self, tmp_path):
        cold = fast_session(cache_dir=tmp_path)
        cold_result = cold.run_figure(FIGURES["fig2"])
        assert cold.simulated > 0

        warm = fast_session(cache_dir=tmp_path)
        warm_result = warm.run_figure(FIGURES["fig2"])
        assert warm.simulated == 0
        assert warm_result.values == cold_result.values

    def test_default_warmup_and_explicit_share_a_cell(self):
        session = fast_session()
        a = session.measure("2_MIX", "gshare+BTB", "ICOUNT.1.8")
        b = session.measure("2_MIX", "gshare+BTB", "ICOUNT.1.8",
                            warmup=200)
        assert a is b
        assert session.simulated == 1

    def test_run_cells_deduplicates_overlapping_figures(self):
        session = fast_session()
        cells = session.cells_for_figure(FIGURES["fig2"]) \
            + session.cells_for_figure(FIGURES["fig4"])
        results = session.run_cells(cells)
        # fig2's two policies are a subset of fig4's four.
        assert session.simulated == 4
        assert len(results) == 4

    def test_parallel_jobs_match_serial(self, tmp_path):
        serial = fast_session()
        parallel = fast_session(jobs=2, cache_dir=tmp_path)
        spec = FIGURES["fig2"]
        assert parallel.run_figure(spec).values == \
            serial.run_figure(spec).values

    def test_rejects_nonpositive_jobs(self):
        with pytest.raises(ValueError):
            ExperimentSession(jobs=0)

    def test_cell_carries_its_own_config_through_run_cells(self):
        # Regression: a cell built under a non-default config must be
        # keyed and simulated under that config even when run_cells is
        # called directly (not via measure), and one batch may mix
        # machine configurations.
        session = fast_session()
        default_cell = session.make_cell("2_MIX", "gshare+BTB",
                                         "ICOUNT.1.8")
        seeded_cell = session.make_cell("2_MIX", "gshare+BTB",
                                        "ICOUNT.1.8",
                                        config=SimConfig(seed=9))
        assert key_for(default_cell) != key_for(seeded_cell)
        results = session.run_cells([default_cell, seeded_cell])
        assert session.simulated == 2
        assert results[seeded_cell] == session.measure(
            "2_MIX", "gshare+BTB", "ICOUNT.1.8", config=SimConfig(seed=9))
        assert session.simulated == 2  # measure hit the seeded cell
