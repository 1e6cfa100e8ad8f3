"""Metrics-snapshot round trips: a standalone ``registry_snapshot``
(what the server keeps) and the worker → parent leg through pickled
pool payloads, including the awkward shapes — non-string label values,
empty histograms, gauges read at snapshot time.

The probe runner lives at module level (``tests`` is a package) so it
stays picklable into pool workers.
"""

import json
import pickle

import pytest

from repro.campaign.executor import execute_payload, run_campaign
from repro.campaign.jobs import JobSpec
from repro.experiments.results import ResultTable
from repro.obs.exposition import (
    merge_worker_snapshot,
    render_prometheus,
    validate_prometheus,
)
from repro.obs.metrics import MetricsRegistry, metric_key, registry_snapshot
from repro.sim.session import active_session


# ----------------------------------------------------------------------
# Picklable probe runner.


def probe_runner(spec):
    """Record awkward metric shapes into the ambient obs session."""
    session = active_session()
    assert session is not None, "obs=True must install a session"
    obs = session.make_observability()
    # Non-string label values: frequencies and node objects are common.
    obs.registry.counter("probe.frames", channel=2412.0,
                         node="N0.s0").inc(3)
    obs.registry.counter("probe.plain").inc(spec.seed)
    # A histogram that is declared but never observed.
    obs.registry.histogram("probe.empty")
    # A dBm histogram: negative values, negative total.
    rssi = obs.registry.histogram("probe.rssi_dbm")
    for value in (-70.0, -75.0, -80.0):
        rssi.observe(value)
    table = ResultTable(f"probe {spec.exhibit_id}")
    table.add_row(x=0, y=float(spec.seed))
    return table


# ----------------------------------------------------------------------
# Standalone registry_snapshot (the server-side shape).


def test_registry_snapshot_reads_gauges_live():
    registry = MetricsRegistry()
    depth = {"value": 0.0}
    registry.gauge("queue.depth", lambda: depth["value"])
    registry.counter("jobs.completed").inc(2)
    depth["value"] = 5.0
    snap = registry_snapshot(registry)
    # Gauges are read at snapshot time, not at registration.
    assert snap["gauges"]["queue.depth"] == 5.0
    assert snap["counters"]["jobs.completed"] == 2.0
    json.dumps(snap)


def test_registry_snapshot_empty_histogram_has_no_quantiles():
    registry = MetricsRegistry()
    registry.histogram("h.empty")
    snap = registry_snapshot(registry)
    summary = snap["histograms"]["h.empty"]
    assert summary["count"] == 0
    assert summary["p50"] is None and summary["p95"] is None
    assert summary["min"] is None and summary["max"] is None
    # And it merges as a no-op rather than exploding.
    target = MetricsRegistry()
    merge_worker_snapshot(target, snap)
    counters = {
        metric_key(c.name, c.labels): c.value for c in target.counters()
    }
    assert counters.get("worker.h.empty.count", 0.0) == 0.0


def test_registry_snapshot_non_string_labels_survive_exposition():
    registry = MetricsRegistry()
    registry.counter("tx.frames", channel=2412.0, run=3).inc(1)
    snap = registry_snapshot(registry)
    (key,) = snap["counters"]
    target = MetricsRegistry()
    merge_worker_snapshot(target, snap)
    text = render_prometheus(target)
    assert validate_prometheus(text) == 1
    assert 'channel="2412.0"' in text


# ----------------------------------------------------------------------
# Worker → parent round trip through real pool payloads.


def _specs():
    return [JobSpec.make("a", seed=1), JobSpec.make("b", seed=2)]


def _merge_outcomes(result):
    registry = MetricsRegistry()
    for outcome in result.outcomes.values():
        assert outcome.ok
        assert outcome.metrics is not None
        merge_worker_snapshot(registry, outcome.metrics)
    return {
        metric_key(c.name, c.labels): c.value for c in registry.counters()
    }


def test_snapshot_round_trip_through_pool_workers():
    result = run_campaign(_specs(), jobs=2, cache=False,
                          runner=probe_runner, obs=True)
    assert result.ok
    counters = _merge_outcomes(result)
    assert counters["worker.probe.frames{channel=2412.0,node=N0.s0}"] == 6.0
    assert counters["worker.probe.plain"] == 3.0  # seeds 1 + 2
    # dBm sums merge despite being negative.
    assert counters["worker.probe.rssi_dbm.sum"] == pytest.approx(-450.0)
    assert counters["worker.probe.rssi_dbm.count"] == 6.0
    # Empty histogram contributes a zero count and no sum surprises.
    assert counters.get("worker.probe.empty.count", 0.0) == 0.0


def test_snapshot_round_trip_inline_matches_pool():
    inline = _merge_outcomes(run_campaign(
        _specs(), jobs=1, cache=False, runner=probe_runner, obs=True))
    pooled = _merge_outcomes(run_campaign(
        _specs(), jobs=2, cache=False, runner=probe_runner, obs=True))
    assert inline == pooled


def test_execute_payload_snapshot_is_picklable_and_json_safe():
    payload = {
        "spec": JobSpec.make("a", seed=1).to_dict(),
        "timeout_s": None,
        "obs": True,
        "trace": {"campaign": "c0", "job": "a@s1"},
    }
    result = execute_payload(payload, probe_runner)
    assert result["ok"]
    # The exact bytes a pool ships back: picklable and JSON-clean.
    pickle.loads(pickle.dumps(result))
    json.dumps(result)
    metrics = result["metrics"]
    assert metrics["counters"]["probe.frames{channel=2412.0,node=N0.s0}"] == 3.0
    assert metrics["histograms"]["probe.empty"]["count"] == 0
    assert "p50" not in metrics["histograms"]["probe.empty"]
    assert metrics["histograms"]["probe.rssi_dbm"]["p50"] == -75.0
    trace = result["trace"]
    assert trace["campaign"] == "c0" and trace["job"] == "a@s1"
    assert trace["wall"][0]["name"] == "execute"
    assert trace["sim_dropped"] == 0
