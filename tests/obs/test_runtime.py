"""Tests for ambient ObsSession: simulator pick-up, snapshots,
and the byte-identical-results guarantee."""

import pytest

from repro.obs.runtime import ObsSession
from repro.obs.recorder import Observability
from repro.sim.session import active_session
from repro.sim.simulator import Simulator

from .rig import build_rig, run_rig


def test_sessions_do_not_nest_and_clear_on_exit():
    assert active_session() is None
    with ObsSession(sample_interval_s=None) as session:
        assert active_session() is session
        with pytest.raises(RuntimeError, match="do not nest"):
            ObsSession(sample_interval_s=None).__enter__()
        assert active_session() is session  # failed enter left it intact
    assert active_session() is None


def test_session_clears_even_on_exception():
    with pytest.raises(RuntimeError, match="boom"):
        with ObsSession(sample_interval_s=None):
            raise RuntimeError("boom")
    assert active_session() is None


def test_deployment_picks_up_ambient_session():
    with ObsSession(sample_interval_s=None) as session:
        first = build_rig()
        second = build_rig()
    assert len(session.recorders) == 2
    assert first.sim.obs is session.recorders[0]
    assert second.sim.obs is session.recorders[1]
    assert [r.run_id for r in session.recorders] == [0, 1]
    # exit finalised every recorder
    assert all(r.end_time is not None for r in session.recorders)


def test_directly_built_simulator_picks_up_ambient_session():
    """Worlds built without a Deployment (e.g. the 802.11b two-link rig)
    are observed too."""
    with ObsSession(sample_interval_s=None) as session:
        sim = Simulator()
    assert session.recorders == [sim.obs]
    assert sim.obs.sim is sim
    assert sim.obs.end_time is not None  # exit finalised it


def test_explicit_obs_argument_wins_over_session():
    explicit = Observability(sample_interval_s=None)
    with ObsSession(sample_interval_s=None) as session:
        deployment = build_rig(obs=explicit)
    assert deployment.sim.obs is explicit
    assert session.recorders == []


def test_no_session_no_recorder():
    assert build_rig().sim.obs is None


def test_snapshot_aggregates_across_recorders():
    with ObsSession(sample_interval_s=None) as session:
        run_rig(seed=1)
        run_rig(seed=2)
    snap = session.snapshot()
    assert snap["runs"] == 2
    assert snap["spans"] > 0
    assert snap["sim_time_s"] == pytest.approx(0.1)  # two 0.05 s windows
    # per-recorder counters summed under flat keys
    key = "tx.frames{channel=2460.0}"
    assert snap["counters"][key] == (
        _frames_of(session.recorders[0]) + _frames_of(session.recorders[1])
    )
    assert snap["counters"][key] > 0
    # histogram summaries carry ordered quantiles
    hist = snap["histograms"]["mac.backoff_s{node=N0.s0}"]
    assert hist["count"] > 0
    assert hist["min"] <= hist["p50"] <= hist["p95"] <= hist["p99"] <= hist["max"]


def _frames_of(recorder):
    return next(recorder.registry.counters("tx.frames")).value


def test_snapshot_is_json_safe():
    import json

    with ObsSession(sample_interval_s=None) as session:
        run_rig()
    json.dumps(session.snapshot())


def test_observability_leaves_results_byte_identical():
    """The core guarantee: enabling telemetry cannot change results."""
    from repro.mac.stats import MacStats  # noqa: F401  (import sanity)

    def fingerprint(deployment):
        return [
            (name, node.mac.stats.sent, node.mac.stats.delivered,
             node.mac.stats.crc_failures)
            for name, node in sorted(deployment.nodes.items())
        ]

    plain = run_rig(seed=7, run_s=0.2)
    with ObsSession(sample_interval_s=0.01) as session:
        observed = run_rig(seed=7, run_s=0.2)
    assert fingerprint(plain) == fingerprint(observed)
    assert len(session.recorders) == 1
    assert len(session.recorders[0].spans) > 0
