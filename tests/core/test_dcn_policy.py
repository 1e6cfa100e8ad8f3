"""Integration tests for DcnCcaPolicy wired into a live MAC/radio."""

import pytest

from repro.core.adjustor import AdjustorConfig
from repro.core.dcn import DcnCcaPolicy
from repro.mac.mac import Mac
from repro.mac.params import MacParams
from repro.phy.fading import NoFading
from repro.phy.frame import Frame
from repro.phy.medium import Medium
from repro.phy.propagation import FixedRssMatrix
from repro.phy.radio import Radio
from repro.sim.rng import RngStreams
from repro.sim.simulator import Simulator


def build_world(channels, losses, policy_nodes, config=None):
    """channels: {name: mhz}; losses: {(tx, rx): db}; policy_nodes: set of
    node names that get DCN (others fixed)."""
    sim = Simulator()
    rng = RngStreams(9)
    matrix = FixedRssMatrix(default_loss_db=200.0)
    positions = {name: (i, 0) for i, name in enumerate(channels)}
    for (tx, rx), loss in losses.items():
        matrix.set_loss(positions[tx], positions[rx], loss)
    medium = Medium(sim, matrix, fading=NoFading(), rng=rng)
    macs = {}
    policies = {}
    for name, channel in channels.items():
        radio = Radio(sim, medium, name, positions[name], channel, 0.0, rng=rng)
        if name in policy_nodes:
            policy = DcnCcaPolicy(config)
            policies[name] = policy
        else:
            from repro.mac.cca import FixedCcaThreshold

            policy = FixedCcaThreshold(-77.0)
        macs[name] = Mac(sim, radio, rng, cca_policy=policy)
    return sim, macs, policies


def saturate(mac, destination, payload=60):
    from repro.net.traffic import SaturatedSource

    class _Shim:
        def __init__(self, mac):
            self.mac = mac
            self.name = mac.name
            self.sim = mac.sim

    source = SaturatedSource(_Shim(mac), destination, payload_bytes=payload)
    source.start()
    return source


def test_policy_attaches_once():
    policy = DcnCcaPolicy()
    sim, macs, _ = build_world({"a": 2460.0}, {}, set())
    radio = macs["a"].radio
    policy.attach(macs["a"])
    with pytest.raises(RuntimeError):
        policy.attach(macs["a"])


def test_threshold_tracks_co_channel_rssi():
    """A DCN node snooping a neighbour at -50 dBm should settle its
    threshold at that level after initialization."""
    sim, macs, policies = build_world(
        {"dcn": 2460.0, "peer_tx": 2460.0, "peer_rx": 2460.0},
        {
            ("peer_tx", "dcn"): 50.0,
            ("peer_tx", "peer_rx"): 45.0,
        },
        {"dcn"},
    )
    saturate(macs["peer_tx"], "peer_rx")
    sim.run(5.0)
    threshold = policies["dcn"].threshold_dbm()
    assert threshold == pytest.approx(-50.0, abs=0.5)


def test_threshold_stays_default_during_init():
    sim, macs, policies = build_world(
        {"dcn": 2460.0, "peer_tx": 2460.0, "peer_rx": 2460.0},
        {("peer_tx", "dcn"): 50.0, ("peer_tx", "peer_rx"): 45.0},
        {"dcn"},
        config=AdjustorConfig(t_init_s=1.0),
    )
    saturate(macs["peer_tx"], "peer_rx")
    sim.run(0.5)
    assert policies["dcn"].threshold_dbm() == -77.0
    assert policies["dcn"].adjustor.initializing


def test_init_sensing_captures_inter_channel_leakage():
    """With no co-channel traffic at all, Eq. 2 falls back to the max
    sensed in-channel power (inter-channel leakage)."""
    sim, macs, policies = build_world(
        {"dcn": 2460.0, "itx": 2463.0, "irx": 2463.0},
        {("itx", "dcn"): 48.0, ("itx", "irx"): 45.0},
        {"dcn"},
    )
    saturate(macs["itx"], "irx")
    sim.run(5.0)
    threshold = policies["dcn"].threshold_dbm()
    # leakage at 3 MHz through the sensing mask: -48 - 26 = -74 dBm
    assert threshold == pytest.approx(-74.0, abs=1.0)
    assert threshold > -77.0  # relaxed above the default


def test_dcn_enables_concurrency_blocked_by_default():
    """The headline mechanism: a sender blocked by 3 MHz leakage under the
    default threshold transmits freely under DCN."""
    losses = {
        # DCN link (strong co-channel RSS so the threshold relaxes high)
        ("dcn_tx", "dcn_rx"): 45.0,
        ("dcn_rx", "dcn_tx"): 45.0,
        # interferer network 3 MHz away, audible leakage at the DCN sender
        ("itx", "dcn_tx"): 44.0,
        ("itx", "dcn_rx"): 44.0,
        ("itx", "irx"): 45.0,
        ("dcn_tx", "irx"): 44.0,
        ("dcn_tx", "itx"): 44.0,
    }
    channels = {
        "dcn_tx": 2460.0,
        "dcn_rx": 2460.0,
        "itx": 2463.0,
        "irx": 2463.0,
    }

    def throughput(with_dcn):
        sim, macs, _ = build_world(
            channels, losses, {"dcn_tx"} if with_dcn else set()
        )
        saturate(macs["itx"], "irx")
        saturate(macs["dcn_tx"], "dcn_rx")
        sim.run(3.0)
        base = macs["dcn_rx"].stats.delivered
        sim.run(8.0)
        return (macs["dcn_rx"].stats.delivered - base) / 5.0

    blocked = throughput(with_dcn=False)
    relaxed = throughput(with_dcn=True)
    assert relaxed > blocked * 1.5
    assert relaxed > 200.0  # near the saturated single-link rate


def test_describe_mentions_parameters():
    policy = DcnCcaPolicy(AdjustorConfig(t_init_s=2.0, t_update_s=5.0))
    text = policy.describe()
    assert "2" in text and "5" in text and "DCN" in text


def test_history_available_after_attach():
    sim, macs, policies = build_world(
        {"dcn": 2460.0, "peer_tx": 2460.0, "peer_rx": 2460.0},
        {("peer_tx", "dcn"): 50.0, ("peer_tx", "peer_rx"): 45.0},
        {"dcn"},
    )
    saturate(macs["peer_tx"], "peer_rx")
    sim.run(5.0)
    history = policies["dcn"].history()
    assert history[0][1] == -77.0
    assert len(history) >= 2


def test_detach_stops_periodic_timers_and_sim_drains():
    """Without detach the Case-II timer re-arms forever; a detached DCN
    policy must let run_until_idle terminate."""
    sim, macs, policies = build_world(
        {"dcn": 2460.0, "peer_tx": 2460.0, "peer_rx": 2460.0},
        {("peer_tx", "dcn"): 50.0, ("peer_tx", "peer_rx"): 45.0},
        {"dcn"},
    )
    source = saturate(macs["peer_tx"], "peer_rx")
    sim.run(5.0)
    source.stop()
    policies["dcn"].detach()
    sim.run_until_idle(max_time=100.0)
    # The queue really drained before the safety horizon (run_until_idle
    # advances the clock to max_time on a successful drain, so the
    # meaningful signal is the empty queue, not the clock).
    assert sim.pending_events == 0
    # Threshold remains queryable after detach.
    assert policies["dcn"].threshold_dbm() == pytest.approx(-50.0, abs=0.5)


def test_detach_is_idempotent_and_safe_before_attach():
    policy = DcnCcaPolicy()
    policy.detach()  # never attached: must be a no-op
    sim, macs, _ = build_world({"a": 2460.0}, {}, set())
    policy.attach(macs["a"])
    policy.detach()
    policy.detach()
    sim.run_until_idle(max_time=50.0)
    assert sim.pending_events == 0


def test_detach_during_init_finishes_initialization():
    sim, macs, _ = build_world({"a": 2460.0}, {}, set())
    policy = DcnCcaPolicy(AdjustorConfig(t_init_s=10.0))
    policy.attach(macs["a"])
    sim.run(1.0)
    assert policy.adjustor.initializing
    policy.detach()
    assert not policy.adjustor.initializing
    sim.run_until_idle(max_time=50.0)
    assert sim.pending_events == 0


def test_drained_dcn_deployment_terminates():
    """Regression: a Deployment full of DCN policies can quiesce and then
    run_until_idle returns (PR 5 documented this as a caveat — the
    periodic timers used to re-arm unconditionally)."""
    from repro.net.deployment import Deployment
    from repro.net.topology import fixed_power, one_region_topology
    from repro.phy.spectrum import EVALUATION_BAND, ChannelPlan

    plan = ChannelPlan.inclusive(EVALUATION_BAND, 5.0)
    rng = RngStreams(3).stream("topology")
    specs = one_region_topology(plan, rng, power=fixed_power(0.0))
    deployment = Deployment(
        specs, seed=3, policy_factory=lambda label, node: DcnCcaPolicy()
    )
    deployment.start_traffic()
    deployment.sim.run(2.0)
    deployment.quiesce()
    deployment.sim.run_until_idle(max_time=1000.0)
    assert deployment.sim.pending_events == 0


def test_late_attach_anchors_at_boot_time():
    """A node booting mid-run (late joiner) must behave like a t = 0 boot
    shifted by its attach time: all internal scheduling is relative, and
    the adjustor history starts at the attach time, not at t = 0."""
    sim, macs, _ = build_world({"a": 2460.0}, {}, set())
    sim.run(2.5)
    policy = DcnCcaPolicy(AdjustorConfig(t_init_s=1.0, t_update_s=3.0))
    policy.attach(macs["a"])
    history = policy.history()
    assert history[0] == (pytest.approx(2.5), -77.0)
    assert policy.adjustor.initializing
    sim.run(3.0)  # 0.5 s after attach: still initializing
    assert policy.adjustor.initializing
    sim.run(4.0)  # 1.5 s after attach: T_I = 1 s has elapsed
    assert not policy.adjustor.initializing
