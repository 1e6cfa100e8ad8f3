"""Tests for the CCA mode-2 carrier-sense policy (Section VII-C)."""

import pytest

from repro.core.carrier_sense import CarrierSenseCcaPolicy
from repro.mac.mac import Mac
from repro.phy.fading import NoFading
from repro.phy.frame import Frame
from repro.phy.medium import Medium
from repro.phy.propagation import FixedRssMatrix
from repro.phy.radio import Radio
from repro.sim.rng import RngStreams
from repro.sim.simulator import Simulator


def build(channels, losses, policy=None):
    sim = Simulator()
    rng = RngStreams(4)
    matrix = FixedRssMatrix(default_loss_db=200.0)
    positions = {name: (i, 0) for i, name in enumerate(channels)}
    for (tx, rx), loss in losses.items():
        matrix.set_loss(positions[tx], positions[rx], loss)
    medium = Medium(sim, matrix, fading=NoFading(), rng=rng)
    macs = {}
    for name, channel in channels.items():
        radio = Radio(sim, medium, name, positions[name], channel, 0.0, rng=rng)
        cca = policy if name == "probe" and policy is not None else None
        macs[name] = Mac(sim, radio, rng, cca_policy=cca)
    return sim, macs


def test_idle_when_nothing_on_air():
    policy = CarrierSenseCcaPolicy()
    sim, macs = build({"probe": 2460.0}, {}, policy)
    assert policy.threshold_dbm() == float("inf")


def test_busy_during_strong_co_channel_signal():
    policy = CarrierSenseCcaPolicy()
    sim, macs = build(
        {"probe": 2460.0, "co": 2460.0},
        {("co", "probe"): 50.0},
        policy,
    )
    observed = {}
    macs["co"].radio.transmit(Frame("co", None, 100), lambda tx: None)
    sim.schedule(0.001, lambda: observed.update(th=policy.threshold_dbm()))
    sim.run(1.0)
    assert observed["th"] == float("-inf")
    assert policy.threshold_dbm() == float("inf")  # signal over


def test_ignores_inter_channel_signal_however_strong():
    policy = CarrierSenseCcaPolicy()
    sim, macs = build(
        {"probe": 2460.0, "neighbour": 2463.0},
        {("neighbour", "probe"): 30.0},  # blisteringly strong leakage
        policy,
    )
    observed = {}
    macs["neighbour"].radio.transmit(Frame("n", None, 100), lambda tx: None)
    sim.schedule(0.001, lambda: observed.update(th=policy.threshold_dbm()))
    sim.run(1.0)
    assert observed["th"] == float("inf")


def test_misses_co_channel_signal_below_floor():
    """The realism gap vs the oracle: undetectable co-channel signals."""
    policy = CarrierSenseCcaPolicy()
    sim, macs = build(
        {"probe": 2460.0, "weak": 2460.0},
        {("weak", "probe"): 96.0},  # -96 dBm, below the correlator floor
        policy,
    )
    observed = {}
    macs["weak"].radio.transmit(Frame("w", None, 100), lambda tx: None)
    sim.schedule(0.001, lambda: observed.update(th=policy.threshold_dbm()))
    sim.run(1.0)
    assert observed["th"] == float("inf")


def test_misses_co_channel_buried_under_interference():
    policy = CarrierSenseCcaPolicy(detection_sinr_db=-1.0)
    sim, macs = build(
        {"probe": 2460.0, "co": 2460.0, "jam": 2461.0},
        {("co", "probe"): 70.0, ("jam", "probe"): 40.0},
        policy,
    )
    observed = {}
    macs["jam"].radio.transmit(Frame("j", None, 100), lambda tx: None)
    sim.schedule(
        0.0005, lambda: macs["co"].radio.transmit(Frame("c", None, 60), lambda tx: None)
    )
    # jam leaks -42 dBm in-channel; co arrives at -70 -> SINR ~ -28 dB
    sim.schedule(0.001, lambda: observed.update(th=policy.threshold_dbm()))
    sim.run(1.0)
    assert observed["th"] == float("inf")


def test_mode3_energy_backstop():
    policy = CarrierSenseCcaPolicy(energy_threshold_dbm=-50.0)
    sim, macs = build(
        {"probe": 2460.0, "neighbour": 2463.0},
        {("neighbour", "probe"): 30.0},
        policy,
    )
    observed = {}
    macs["neighbour"].radio.transmit(Frame("n", None, 100), lambda tx: None)
    # leakage through the sensing mask: -30 - 26 = -56 < -50 -> still idle;
    # but the MAC compares sensed power against the returned threshold.
    sim.schedule(0.001, lambda: observed.update(th=policy.threshold_dbm()))
    sim.run(1.0)
    assert observed["th"] == -50.0


def test_describe():
    assert "mode2" in CarrierSenseCcaPolicy().describe()
    assert "mode3" in CarrierSenseCcaPolicy(energy_threshold_dbm=-60).describe()
