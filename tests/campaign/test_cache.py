"""Tests for the content-addressed on-disk result cache."""

import json

from repro.campaign.cache import ResultCache
from repro.campaign.jobs import JobSpec
from repro.experiments.results import ResultTable


def sample_table():
    table = ResultTable("Fig. X: sample")
    table.add_row(x=1, y=2.5, label="a")
    table.add_row(x=2, y=3.5, label="b")
    table.add_note("a note")
    return table


def test_put_get_round_trip(tmp_path):
    cache = ResultCache(tmp_path / "cache", version="0.1.0")
    spec = JobSpec.make("fig04", seed=3)
    assert cache.get(spec) is None
    cache.put(spec, sample_table(), elapsed_s=1.25)
    entry = cache.get(spec)
    assert entry is not None
    assert entry.spec == spec
    assert entry.elapsed_s == 1.25
    assert entry.version == "0.1.0"
    assert entry.table.to_dict() == sample_table().to_dict()


def test_version_change_invalidates(tmp_path):
    """Bumping ``repro.__version__`` must miss every old entry."""
    root = tmp_path / "cache"
    spec = JobSpec.make("fig04", seed=1)
    ResultCache(root, version="0.1.0").put(spec, sample_table(), 1.0)
    assert ResultCache(root, version="0.1.0").get(spec) is not None
    assert ResultCache(root, version="0.2.0").get(spec) is None
    # ... and a fresh result under the new version coexists on disk
    ResultCache(root, version="0.2.0").put(spec, sample_table(), 2.0)
    assert ResultCache(root, version="0.2.0").get(spec) is not None


def test_seed_and_profile_separate_entries(tmp_path):
    cache = ResultCache(tmp_path / "cache", version="0.1.0")
    cache.put(JobSpec.make("fig04", seed=1), sample_table(), 1.0)
    assert cache.get(JobSpec.make("fig04", seed=2)) is None
    assert cache.get(JobSpec.make("fig04", seed=1, fast=False)) is None


def test_metrics_round_trip_and_backward_compat(tmp_path):
    cache = ResultCache(tmp_path / "cache", version="0.1.0")
    spec = JobSpec.make("fig04", seed=1)
    snap = {"schema": 1, "counters": {"tx.frames{channel=2460.0}": 12.0}}
    cache.put(spec, sample_table(), 1.0, metrics=snap)
    entry = cache.get(spec)
    assert entry.metrics == snap
    # entries without metrics (pre-obs caches) read back as None
    other = JobSpec.make("fig04", seed=2)
    cache.put(other, sample_table(), 1.0)
    assert cache.get(other).metrics is None
    payload = json.loads(cache.path_for(other).read_text())
    assert "metrics" not in payload  # entry shape unchanged when absent


def test_non_dict_metrics_entry_is_a_miss(tmp_path):
    cache = ResultCache(tmp_path / "cache", version="0.1.0")
    spec = JobSpec.make("fig04", seed=1)
    path = cache.put(spec, sample_table(), 1.0)
    payload = json.loads(path.read_text())
    payload["metrics"] = "garbage"
    path.write_text(json.dumps(payload))
    assert cache.get(spec) is None
    assert not path.exists()  # evicted


def test_corrupt_entry_is_a_miss_and_evicted(tmp_path):
    cache = ResultCache(tmp_path / "cache", version="0.1.0")
    spec = JobSpec.make("fig04", seed=1)
    path = cache.put(spec, sample_table(), 1.0)
    path.write_text("{not json")
    assert cache.get(spec) is None
    assert not path.exists()  # evicted


def test_truncated_entry_is_a_recorded_miss(tmp_path):
    """Regression: a worker killed mid-write (or disk-full) leaves a
    truncated JSON prefix; ``get`` must record a miss and evict the bad
    file instead of raising ``JSONDecodeError`` into the campaign."""
    cache = ResultCache(tmp_path / "cache", version="0.1.0")
    spec = JobSpec.make("fig04", seed=1)
    path = cache.put(spec, sample_table(), 1.0)
    full = path.read_bytes()
    path.write_bytes(full[: len(full) // 2])  # torn write
    assert cache.get(spec) is None
    assert not path.exists()
    assert cache.stats.corrupt == 1
    assert cache.stats.evictions == 1
    assert cache.stats.misses == 1
    # the slot is clean: the next put/get round-trips normally
    cache.put(spec, sample_table(), 1.0)
    assert cache.get(spec) is not None


def test_empty_and_binary_entries_are_recorded_misses(tmp_path):
    cache = ResultCache(tmp_path / "cache", version="0.1.0")
    spec = JobSpec.make("fig04", seed=1)
    path = cache.put(spec, sample_table(), 1.0)
    path.write_bytes(b"")  # crashed before any byte hit the file
    assert cache.get(spec) is None
    path2 = cache.put(spec, sample_table(), 1.0)
    path2.write_bytes(b"\xff\xfe\x00garbage\x80")  # undecodable bytes
    assert cache.get(spec) is None
    assert not path2.exists()
    assert cache.stats.corrupt == 2


def test_stats_counters_and_snapshot(tmp_path):
    cache = ResultCache(tmp_path / "cache", version="0.1.0")
    spec = JobSpec.make("fig04", seed=1)
    assert cache.get(spec) is None  # miss (absent)
    cache.put(spec, sample_table(), 1.0)
    assert cache.get(spec) is not None  # hit
    assert cache.get(JobSpec.make("fig04", seed=2)) is None  # miss
    assert (cache.stats.hits, cache.stats.misses, cache.stats.puts) == (1, 2, 1)


def test_counters_mirror_into_obs_registry(tmp_path):
    from repro.obs.metrics import MetricsRegistry

    registry = MetricsRegistry()
    cache = ResultCache(tmp_path / "cache", version="0.1.0",
                        metrics=registry)
    spec = JobSpec.make("fig04", seed=1)
    cache.get(spec)
    cache.put(spec, sample_table(), 1.0)
    cache.get(spec)
    by_name = {c.name: c.value for c in registry.counters()}
    assert by_name["campaign.cache.hits"] == 1
    assert by_name["campaign.cache.misses"] == 1
    assert by_name["campaign.cache.puts"] == 1


def test_lru_eviction_respects_size_budget(tmp_path):
    probe = ResultCache(tmp_path / "probe", version="0.1.0")
    entry_size = probe.put(
        JobSpec.make("fig04", seed=1), sample_table(), 1.0
    ).stat().st_size
    # Budget for two entries: the third put must evict the LRU one.
    cache = ResultCache(tmp_path / "cache", version="0.1.0",
                        max_bytes=int(entry_size * 2.5))
    import os

    paths = {}
    for seed in (1, 2, 3):
        paths[seed] = cache.put(JobSpec.make("fig04", seed=seed),
                                sample_table(), 1.0)
        # Distinct mtimes so LRU order is unambiguous on coarse clocks.
        stamp = 1_000_000 + seed
        os.utime(paths[seed], (stamp, stamp))
        if seed == 2:
            # Touch seed 1 (a hit refreshes recency): seed 2 becomes LRU.
            assert cache.get(JobSpec.make("fig04", seed=1)) is not None
            os.utime(paths[1], (1_000_010, 1_000_010))
    cache._enforce_budget()
    assert cache.get(JobSpec.make("fig04", seed=1)) is not None
    assert cache.get(JobSpec.make("fig04", seed=3)) is not None
    assert cache.get(JobSpec.make("fig04", seed=2)) is None  # evicted LRU
    assert cache.stats.evictions >= 1
    assert cache.stats.bytes_evicted > 0


def test_budget_never_evicts_the_entry_just_written(tmp_path):
    cache = ResultCache(tmp_path / "cache", version="0.1.0", max_bytes=1)
    spec = JobSpec.make("fig04", seed=1)
    cache.put(spec, sample_table(), 1.0)
    # A budget smaller than one entry must not eat the freshest result.
    assert cache.get(spec) is not None


def test_tampered_key_is_rejected(tmp_path):
    cache = ResultCache(tmp_path / "cache", version="0.1.0")
    spec = JobSpec.make("fig04", seed=1)
    path = cache.put(spec, sample_table(), 1.0)
    payload = json.loads(path.read_text())
    payload["key"] = "0" * 64
    path.write_text(json.dumps(payload))
    assert cache.get(spec) is None


def test_clear_and_status(tmp_path):
    cache = ResultCache(tmp_path / "cache", version="0.1.0")
    for seed in (1, 2):
        cache.put(JobSpec.make("fig04", seed=seed), sample_table(), 1.0)
    cache.put(JobSpec.make("fig29", seed=1), sample_table(), 1.0)
    old = ResultCache(tmp_path / "cache", version="0.0.9")
    old.put(JobSpec.make("fig29", seed=9), sample_table(), 1.0)

    status = cache.status()
    assert status["entries"] == 4
    assert status["current_version_entries"] == 3
    assert status["by_exhibit"] == {"fig04": 2, "fig29": 2}
    assert status["bytes"] > 0

    assert cache.clear() == 4  # clear drops every version
    assert cache.status()["entries"] == 0
    assert cache.clear() == 0


def test_missing_directory_is_empty_not_an_error(tmp_path):
    cache = ResultCache(tmp_path / "nope", version="0.1.0")
    assert list(cache.entries()) == []
    assert cache.clear() == 0
    assert cache.status()["entries"] == 0
