"""Service telemetry on the campaign server: ``/metrics`` exposition,
worker-metric merge, the merged campaign trace, the events JSONL sink
and ``/debug/profile``.

Reuses the in-process harness from :mod:`tests.campaign.test_server`
(ephemeral port, thread workers, synthetic runner).
"""

import json

import pytest

from repro.campaign.client import ServerError
from repro.obs.exposition import parse_prometheus, validate_prometheus
from repro.obs.sinks import read_jsonl
from repro.sim.session import active_session
from tests.campaign.test_server import fake_runner, running_server


def obs_probe_runner(spec):
    """Like ``fake_runner``, but records worker-side metrics into the
    ambient obs session (when one is installed) so the server has
    something to merge."""
    session = active_session()
    if session is not None:
        obs = session.make_observability()
        obs.registry.counter("tx.frames", channel=2412.0).inc(5)
        obs.registry.histogram("rx.rssi_dbm").observe(-70.0)
    return fake_runner(spec)


def _run_one(client, ids=("alpha",), seeds=(1, 2), obs=False):
    doc = client.submit(ids=list(ids), seeds=list(seeds), obs=obs)
    final = client.wait(doc["id"], timeout_s=30)
    assert final["state"] == "done", final
    return doc["id"], final


def test_metrics_endpoint_parses_and_carries_key_series(tmp_path):
    with running_server(tmp_path) as (_server, client):
        _run_one(client)
        text = client.metrics_text()
        # Acceptance criteria: valid Prometheus text format 0.0.4.
        assert validate_prometheus(text) > 0
        samples = {}
        for name, labels, value in parse_prometheus(text):
            samples.setdefault(name, []).append((labels, value))
    assert samples["server_campaigns_submitted"][0][1] == 1.0
    assert samples["server_jobs_completed"][0][1] == 2.0
    assert samples["server_jobs_failed"][0][1] == 0.0
    assert samples["server_jobs_in_flight"][0][1] == 0.0
    assert samples["server_uptime_s"][0][1] > 0.0
    assert samples["campaign_cache_misses"][0][1] == 2.0
    # Per-exhibit wall-time summary with quantile + _sum/_count rows.
    elapsed = {labels.get("quantile"): value
               for labels, value in samples["server_job_elapsed_s"]
               if labels.get("exhibit") == "alpha"}
    assert set(elapsed) == {"0.5", "0.95", "0.99"}
    assert samples["server_job_elapsed_s_count"][0][0]["exhibit"] == "alpha"
    assert samples["server_job_elapsed_s_count"][0][1] == 2.0
    assert "server_job_queue_wait_s_count" in samples


def test_metrics_content_type_is_prometheus_text(tmp_path):
    import urllib.request

    with running_server(tmp_path) as (server, _client):
        url = f"http://127.0.0.1:{server.port}/metrics"
        with urllib.request.urlopen(url, timeout=10) as response:
            ctype = response.headers.get("Content-Type")
    assert ctype == "text/plain; version=0.0.4; charset=utf-8"


def test_obs_submission_merges_worker_series(tmp_path):
    with running_server(tmp_path, runner=obs_probe_runner) as \
            (_server, client):
        _run_one(client, obs=True)
        text = client.metrics_text()
        assert validate_prometheus(text) > 0
    by_name = {}
    for name, labels, value in parse_prometheus(text):
        by_name[name] = value
    # Two jobs, each incrementing by 5 / observing one rssi sample.
    assert by_name["worker_tx_frames"] == 10.0
    assert by_name["worker_rx_rssi_dbm_count"] == 2.0
    assert by_name["worker_rx_rssi_dbm_sum"] == pytest.approx(-140.0)


def test_obs_off_submission_ships_no_worker_series(tmp_path):
    with running_server(tmp_path, runner=obs_probe_runner) as \
            (_server, client):
        _run_one(client, obs=False)
        names = {n for n, _l, _v in parse_prometheus(client.metrics_text())}
    assert not {n for n in names if n.startswith("worker_")}


def test_campaign_trace_endpoint_merges_server_and_worker_tracks(tmp_path):
    with running_server(tmp_path) as (_server, client):
        cid, _final = _run_one(client, seeds=(1,), obs=True)
        doc = client.trace(cid)
    json.dumps(doc)
    assert doc["metadata"]["campaign"] == cid
    events = doc["traceEvents"]
    durations = [e for e in events if e["ph"] == "X"]
    names = {e["name"] for e in durations}
    # Server track spans…
    assert {"submit", "queue_wait", "execute", "cache_probe"} <= names
    server_track = [e for e in durations if e["pid"] == 0]
    assert server_track
    # …and a worker track per job (pid >= 1) with the wall execute span.
    worker_track = [e for e in durations if e["pid"] >= 1]
    assert any(e["name"] == "execute" for e in worker_track)
    metas = [e for e in events if e["ph"] == "M"]
    process_names = {e["args"]["name"] for e in metas
                     if e["name"] == "process_name"}
    assert any(p.startswith("server:") for p in process_names)
    assert any(p.startswith("worker:") for p in process_names)
    assert all(e["ts"] >= 0 for e in durations)


def test_trace_unknown_campaign_404s(tmp_path):
    with running_server(tmp_path) as (_server, client):
        with pytest.raises(ServerError, match="404"):
            client.trace("no-such-campaign")


def test_events_fan_out_into_rotating_jsonl(tmp_path):
    with running_server(tmp_path) as (server, client):
        _run_one(client)
        path = server.events_sink.path
        assert str(path).startswith(str(tmp_path))
    records = read_jsonl(path)
    # First line: a manifest naming the server role, then the campaign's
    # event stream (submitted → started → job… → done).
    assert records[0]["kind"] == "manifest"
    assert records[0]["role"] == "campaign-server"
    kinds = [r.get("event") for r in records if r.get("kind") == "event"]
    assert kinds[0] == "submitted"
    assert "done" in kinds
    assert kinds.count("job") == 2
    job = next(r for r in records if r.get("event") == "job")
    assert job["campaign"]
    assert {"exhibit_id", "seed", "ok"} <= set(job)


def test_debug_profile_reports_flight_recorder_snapshots(tmp_path):
    with running_server(tmp_path) as (_server, client):
        report = client.debug_profile()
    assert report["count"] >= 1
    snap = report["snapshots"][-1]
    assert snap["uptime_s"] >= 0.0
    assert "cpu_user_s" in snap and "gc_counts" in snap
    assert snap["jobs_in_flight"] == 0
    json.dumps(report)


def test_info_reports_telemetry_surfaces(tmp_path):
    with running_server(tmp_path) as (server, client):
        info = client.info()
    assert info["jobs_in_flight"] == 0
    assert info["events_jsonl"].endswith("events.jsonl")
