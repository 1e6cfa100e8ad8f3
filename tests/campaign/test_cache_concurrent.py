"""Multi-process stress tests for the shared result cache.

The campaign server promotes ``.repro-cache/`` to a *shared* store: pool
workers, concurrent campaigns and even concurrent servers all hit one
directory.  These tests hammer a single cache dir from N real processes
and assert nobody ever observes a torn entry — the atomic tmp+rename
write discipline is what makes that true.
"""

import json
import multiprocessing
from dataclasses import asdict

from repro.campaign.cache import ResultCache
from repro.campaign.jobs import JobSpec
from repro.experiments.results import ResultTable


def make_table(worker: int) -> ResultTable:
    table = ResultTable("concurrent sample")
    for x in range(20):
        table.add_row(x=x, y=x * 0.5, worker=worker)
    return table


def hammer(args):
    """One worker: interleave puts, gets and corruption-recovery on the
    same small spec space so collisions are guaranteed."""
    root, worker, rounds = args
    cache = ResultCache(root, version="0.1.0")
    torn = 0
    for i in range(rounds):
        spec = JobSpec.make("fig04", seed=(worker + i) % 5)
        cache.put(spec, make_table(worker), elapsed_s=1.0)
        entry = cache.get(JobSpec.make("fig04", seed=i % 5))
        if entry is not None:
            # Any readable entry must be complete and well-formed: all
            # rows present, every row from a single writer.
            rows = entry.table.to_dict()["rows"]
            if len(rows) != 20 or len({r["worker"] for r in rows}) != 1:
                torn += 1
    return {"worker": worker, "torn": torn,
            "stats": asdict(cache.stats)}


def eviction_hammer(args):
    root, worker, rounds = args
    cache = ResultCache(root, version="0.1.0", max_bytes=4096)
    for i in range(rounds):
        spec = JobSpec.make("fig04", seed=(worker * rounds + i) % 16)
        cache.put(spec, make_table(worker), elapsed_s=1.0)
        cache.get(spec)
    return asdict(cache.stats)


def test_parallel_put_get_never_sees_torn_entries(tmp_path):
    root = str(tmp_path / "cache")
    workers, rounds = 4, 25
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(workers) as pool:
        reports = pool.map(
            hammer, [(root, w, rounds) for w in range(workers)]
        )
    assert [r["torn"] for r in reports] == [0] * workers
    total_puts = sum(r["stats"]["puts"] for r in reports)
    assert total_puts == workers * rounds
    # No reader ever crashed out: every get was a clean hit or miss.
    for report in reports:
        stats = report["stats"]
        assert stats["hits"] + stats["misses"] == rounds
    # The surviving directory itself is fully readable.
    survivor = ResultCache(root, version="0.1.0")
    for path in survivor.entries():
        payload = json.loads(path.read_text())
        assert len(payload["table"]["rows"]) == 20


def test_parallel_eviction_under_tiny_budget_is_safe(tmp_path):
    """Concurrent writers each enforcing a too-small budget must not
    corrupt each other: losing entries is fine (that is what eviction
    does), torn or unreadable survivors are not."""
    root = str(tmp_path / "cache")
    workers, rounds = 4, 15
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(workers) as pool:
        stats = pool.map(
            eviction_hammer, [(root, w, rounds) for w in range(workers)]
        )
    assert sum(s["puts"] for s in stats) == workers * rounds
    survivor = ResultCache(root, version="0.1.0")
    for path in survivor.entries():  # whatever survived parses cleanly
        assert json.loads(path.read_text())["table"]["rows"]
    # ...and a fresh enforcement pass leaves the dir within budget.
    bounded = ResultCache(root, version="0.1.0", max_bytes=4096)
    bounded._enforce_budget()
    remaining = sum(
        p.stat().st_size for p in bounded.root.glob("*.json")
    )
    assert remaining <= 4096 or len(list(bounded.root.glob("*.json"))) <= 1


def test_concurrent_identical_puts_last_writer_wins_cleanly(tmp_path):
    root = str(tmp_path / "cache")
    spec = JobSpec.make("fig04", seed=1)
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(4) as pool:
        pool.map(hammer, [(root, w, 10) for w in range(4)])
    cache = ResultCache(root, version="0.1.0")
    entry = cache.get(spec)
    if entry is not None:
        workers = {r["worker"] for r in entry.table.to_dict()["rows"]}
        assert len(workers) == 1  # one writer's payload, never a blend
        payload = json.loads(cache.path_for(spec).read_text())
        assert payload["key"] == spec.cache_key("0.1.0")
