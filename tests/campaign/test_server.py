"""End-to-end tests for the campaign server (HTTP round trips).

Most tests run the server in-process on an ephemeral port with
``jobs=0`` (thread workers — which also exercises the executor's
non-main-thread timeout fallback) and an injected synthetic runner, so
they are fast and registry-independent.  The slow crash-resume test at
the bottom drives the real ``python -m repro serve`` CLI as a subprocess
with the real registry, SIGKILLs it mid-campaign and proves the journal
recovery produces byte-identical results.
"""

import os
import random
import subprocess
import sys
import threading
import time
import urllib.request
from contextlib import contextmanager

import pytest

from repro.campaign import JobSpec, run_campaign
from repro.campaign.client import CampaignClient, ServerError
from repro.campaign.server import CampaignServer, ServerConfig
from repro.experiments.results import ResultTable

KNOWN_IDS = ["alpha", "beta"]

_calls_lock = threading.Lock()
_calls = []


def fake_runner(spec):
    """Deterministic synthetic exhibit; records invocations (thread mode
    shares the process, so the list is visible to the test)."""
    with _calls_lock:
        _calls.append(spec.key)
    rng = random.Random(f"{spec.exhibit_id}:{spec.seed}")
    table = ResultTable(f"synthetic {spec.exhibit_id}")
    for x in range(3):
        table.add_row(x=x, y=round(rng.random(), 6))
    table.add_note(f"seed={spec.seed}")
    return table


def slow_runner(spec):
    time.sleep(0.3)
    return fake_runner(spec)


@contextmanager
def running_server(tmp_path, runner=fake_runner, **overrides):
    config = ServerConfig(
        port=0,
        state_dir=str(tmp_path / "state"),
        cache_dir=str(tmp_path / "cache"),
        jobs=0,  # thread workers: fast, in-process, registry-free
        backoff_s=0.01,
        **overrides,
    )
    server = CampaignServer(config, runner=runner, known_ids=KNOWN_IDS)
    thread = threading.Thread(target=server.run, daemon=True)
    thread.start()
    assert server.ready.wait(15), "server never became ready"
    client = CampaignClient(f"http://127.0.0.1:{server.port}",
                            timeout_s=30.0)
    try:
        yield server, client
    finally:
        server.request_shutdown()
        thread.join(15)
        assert not thread.is_alive(), "server failed to drain"


def _cache_series(client):
    """The server's ``campaign_cache_*`` counters, read from ``/metrics``."""
    return {
        name: value for name, _labels, value in client.metrics()
        if name.startswith("campaign_cache_")
    }


def test_round_trip_byte_identical_to_one_shot(tmp_path):
    with running_server(tmp_path) as (_server, client):
        doc = client.submit(ids=["alpha"], seeds=[1, 2])
        final = client.wait(doc["id"], timeout_s=30)
        assert final["state"] == "done"
        assert final["completed"] == 2 and final["failed"] == 0
        tables = final["result"]["tables"]
    oneshot = run_campaign(
        [JobSpec.make("alpha", seed=1), JobSpec.make("alpha", seed=2)],
        jobs=1, cache=False, runner=fake_runner,
    )
    for seed in (1, 2):
        assert (tables[f"alpha@s{seed}"]
                == oneshot.outcome("alpha", seed).table.to_json())
    # aggregated table matches the one-shot aggregation byte for byte
    agg = final["result"]["aggregated"]["alpha"]
    assert agg == oneshot.aggregated()["alpha"].to_json()


def test_warm_resubmit_is_served_from_cache(tmp_path):
    with running_server(tmp_path) as (_server, client):
        first = client.wait(
            client.submit(ids=["alpha"], seeds=[1, 2])["id"], timeout_s=30
        )
        assert first["cache_hits"] == 0
        before = _cache_series(client)
        second = client.wait(
            client.submit(ids=["alpha"], seeds=[1, 2])["id"], timeout_s=30
        )
        after = _cache_series(client)
        assert second["cache_hits"] == 2 and second["cache_misses"] == 0
        assert after["campaign_cache_hits"] >= before["campaign_cache_hits"] + 2
        assert after["campaign_cache_puts"] >= 2
        # ...and the payload bytes are identical across the two runs
        assert first["result"]["tables"] == second["result"]["tables"]


def test_events_stream_replays_and_follows(tmp_path):
    with running_server(tmp_path) as (_server, client):
        cid = client.submit(ids=["alpha", "beta"], seeds=[1])["id"]
        events = list(client.stream_events(cid))
    kinds = [e["event"] for e in events]
    assert kinds[0] == "submitted"
    assert kinds[1] == "started"
    assert kinds.count("job") == 2
    assert kinds[-1] == "done"
    assert [e["seq"] for e in events] == list(range(len(events)))
    job_events = [e for e in events if e["event"] == "job"]
    assert {(e["exhibit_id"], e["seed"]) for e in job_events} == {
        ("alpha", 1), ("beta", 1)
    }
    done = events[-1]
    assert done["ok"] is True and done["completed"] == 2


def test_concurrent_identical_submissions_coalesce(tmp_path):
    """Two clients submitting the same campaign concurrently must get
    byte-identical results, and each unique job computes only once."""
    with _calls_lock:
        _calls.clear()
    with running_server(tmp_path, runner=slow_runner) as (server, client):
        ids_a = client.submit(ids=["alpha"], seeds=[1, 2, 3])["id"]
        ids_b = client.submit(ids=["alpha"], seeds=[1, 2, 3])["id"]
        assert ids_a != ids_b
        final_a = client.wait(ids_a, timeout_s=30)
        final_b = client.wait(ids_b, timeout_s=30)
        assert final_a["result"]["tables"] == final_b["result"]["tables"]
        assert final_a["result"]["aggregated"] == final_b["result"]["aggregated"]
    with _calls_lock:
        # single-flight: 3 unique jobs -> exactly 3 executions, not 6
        assert sorted(_calls) == [("alpha", 1), ("alpha", 2), ("alpha", 3)]


def test_submit_validation_errors(tmp_path):
    with running_server(tmp_path) as (_server, client):
        with pytest.raises(ServerError) as err:
            client.submit(ids=["missing-exhibit"], seeds=[1])
        assert err.value.status == 400
        with pytest.raises(ServerError) as err:
            client.submit(ids=["alpha"], seeds=[])
        assert err.value.status == 400
        with pytest.raises(ServerError) as err:
            client.campaign("nope")
        assert err.value.status == 404


def test_server_info_and_campaign_listing(tmp_path):
    with running_server(tmp_path) as (_server, client):
        info = client.info()
        assert info["server"] == "repro-campaign"
        assert info["campaigns"] == 0
        cid = client.submit(ids=["beta"], seeds=[1])["id"]
        client.wait(cid, timeout_s=30)
        listed = client.campaigns()
        assert [c["id"] for c in listed] == [cid]
        assert listed[0]["state"] == "done"
        assert client.info()["queue"]["outstanding"] == 0  # journalled done


def test_graceful_drain_finishes_outstanding_work(tmp_path):
    with running_server(tmp_path, runner=slow_runner) as (server, client):
        cid = client.submit(ids=["alpha", "beta"], seeds=[1, 2])["id"]
        drain = client.shutdown()
        assert drain["state"] == "draining"
        # submissions are refused while draining
        with pytest.raises(ServerError) as err:
            client.submit(ids=["alpha"], seeds=[9])
        assert err.value.status == 503
        # ...but the in-flight campaign still completes before exit
        record = server._campaigns[cid]
        deadline = time.monotonic() + 30
        while record.state != "done":
            assert time.monotonic() < deadline
            time.sleep(0.05)
        assert record.stats.completed == 4


def test_in_process_restart_resumes_from_journal(tmp_path):
    """Journal recovery without the subprocess machinery: admit, finish
    one job's worth of cache, drop the server object, start a fresh one
    on the same state dir — the campaign is re-admitted and completes."""
    with running_server(tmp_path) as (_server, client):
        cid = client.submit(ids=["alpha"], seeds=[1, 2])["id"]
        client.wait(cid, timeout_s=30)
        # a second campaign that we journal but never let finish:
        # simulate by writing the submit record directly
        _server.queue.record_submit(
            "c9999-feedface", {"ids": ["beta"], "seeds": [5], "fast": True}
        )
    with running_server(tmp_path) as (server, client):
        deadline = time.monotonic() + 30
        while True:
            recovered = [c for c in client.campaigns()
                         if c["id"] == "c9999-feedface"]
            if recovered and recovered[0]["state"] == "done":
                break
            assert time.monotonic() < deadline
            time.sleep(0.05)
        assert recovered[0]["resumed"] is True
        assert client.info()["queue"]["outstanding"] == 0
        # fresh ids keep counting past recovered ones
        fresh = client.submit(ids=["alpha"], seeds=[3])["id"]
        assert int(fresh.split("-")[0][1:]) > 9999


# ----------------------------------------------------------------------
# The real thing: CLI subprocess, real registry, SIGKILL mid-campaign.


@pytest.mark.slow
def test_crash_resume_byte_identical(tmp_path):
    port = 18700 + (os.getpid() % 200)
    base = f"http://127.0.0.1:{port}"
    env = dict(os.environ)
    src = str((
        __import__("pathlib").Path(__file__).resolve().parents[2] / "src"
    ))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")

    def start():
        return subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", str(port),
             "--jobs", "2", "--state-dir", str(tmp_path / "state"),
             "--cache-dir", str(tmp_path / "cache")],
            env=env, stderr=subprocess.PIPE,
        )

    def wait_ready(proc, timeout=60):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            try:
                urllib.request.urlopen(base + "/healthz", timeout=1).read()
                return
            except Exception:
                if proc.poll() is not None:
                    pytest.fail(
                        f"server died: {proc.stderr.read().decode()}"
                    )
                time.sleep(0.2)
        pytest.fail("server never became ready")

    client = CampaignClient(base, timeout_s=30.0)
    seeds = [1, 2, 3, 4]
    proc = start()
    try:
        wait_ready(proc)
        cid = client.submit(ids=["fig04"], seeds=seeds, fast=True)["id"]
        # let at least one job land in cache + journal, then SIGKILL
        deadline = time.monotonic() + 120
        while client.campaign(cid)["done"] < 1:
            assert time.monotonic() < deadline
            time.sleep(0.2)
        proc.kill()
        proc.wait(30)

        proc = start()
        wait_ready(proc)
        final = client.wait(cid, timeout_s=240, poll_s=0.5)
        assert final["resumed"] is True
        assert final["completed"] == len(seeds) and final["failed"] == 0
        assert final["cache_hits"] >= 1  # pre-crash work was not redone

        oneshot = run_campaign(
            [JobSpec.make("fig04", seed=s) for s in seeds],
            jobs=1, cache=False,
        )
        for seed in seeds:
            assert (final["result"]["tables"][f"fig04@s{seed}"]
                    == oneshot.outcome("fig04", seed).table.to_json())
        agg = final["result"]["aggregated"]["fig04"]
        assert agg == oneshot.aggregated()["fig04"].to_json()

        client.shutdown()
        proc.wait(60)
        assert proc.returncode == 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(30)
