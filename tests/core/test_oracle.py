"""Unit tests for the oracle CCA policy (Section VII-C upper bound)."""

import pytest

from repro.core.oracle import OracleCcaPolicy
from repro.mac.mac import Mac
from repro.phy.fading import NoFading
from repro.phy.frame import Frame
from repro.phy.medium import Medium
from repro.phy.propagation import FixedRssMatrix
from repro.phy.radio import Radio
from repro.sim.rng import RngStreams
from repro.sim.simulator import Simulator


def build(channels, losses):
    sim = Simulator()
    rng = RngStreams(12)
    matrix = FixedRssMatrix(default_loss_db=200.0)
    positions = {name: (i, 0) for i, name in enumerate(channels)}
    for (tx, rx), loss in losses.items():
        matrix.set_loss(positions[tx], positions[rx], loss)
    medium = Medium(sim, matrix, fading=NoFading(), rng=rng)
    policy = OracleCcaPolicy()
    macs = {}
    for name, channel in channels.items():
        radio = Radio(sim, medium, name, positions[name], channel, 0.0, rng=rng)
        macs[name] = Mac(
            sim, radio, rng,
            cca_policy=policy if name == "probe" else None,
        )
    return sim, macs, policy


def test_idle_by_default():
    sim, macs, policy = build({"probe": 2460.0}, {})
    assert policy.threshold_dbm() == float("inf")


def test_unattached_policy_asserts():
    policy = OracleCcaPolicy()
    with pytest.raises(AssertionError):
        policy.threshold_dbm()


def test_defers_to_audible_co_channel():
    sim, macs, policy = build(
        {"probe": 2460.0, "co": 2460.0}, {("co", "probe"): 60.0}
    )
    seen = {}
    macs["co"].radio.transmit(Frame("co", None, 100), lambda t: None)
    sim.schedule(0.001, lambda: seen.update(th=policy.threshold_dbm()))
    sim.run(1.0)
    assert seen["th"] == float("-inf")


def test_ignores_co_channel_below_protect_floor():
    sim, macs, policy = build(
        {"probe": 2460.0, "co": 2460.0}, {("co", "probe"): 97.0}
    )
    seen = {}
    macs["co"].radio.transmit(Frame("co", None, 100), lambda t: None)
    sim.schedule(0.001, lambda: seen.update(th=policy.threshold_dbm()))
    sim.run(1.0)
    assert seen["th"] == float("inf")


def test_ignores_inter_channel_of_any_strength():
    sim, macs, policy = build(
        {"probe": 2460.0, "nb": 2463.0}, {("nb", "probe"): 25.0}
    )
    seen = {}
    macs["nb"].radio.transmit(Frame("nb", None, 100), lambda t: None)
    sim.schedule(0.001, lambda: seen.update(th=policy.threshold_dbm()))
    sim.run(1.0)
    assert seen["th"] == float("inf")


def test_describe():
    assert "oracle" in OracleCcaPolicy().describe()
