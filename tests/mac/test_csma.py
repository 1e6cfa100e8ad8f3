"""Tests for the unslotted CSMA/CA engine and MAC behaviour."""

import pytest

from repro.mac.cca import DisabledCca, FixedCcaThreshold
from repro.mac.mac import Mac
from repro.mac.params import MacParams
from repro.phy.fading import NoFading
from repro.phy.frame import Frame
from repro.phy.medium import Medium
from repro.phy.propagation import FixedRssMatrix
from repro.phy.radio import Radio
from repro.sim.rng import RngStreams
from repro.sim.simulator import Simulator


def make_pair(loss_db=50.0, mac_params=None, cca=None, n_extra=0):
    sim = Simulator()
    rng = RngStreams(5)
    matrix = FixedRssMatrix(default_loss_db=200.0)
    positions = {"tx": (0, 0), "rx": (1, 0)}
    for k in range(n_extra):
        positions[f"x{k}"] = (2 + k, 0)
    for a in positions:
        for b in positions:
            if a != b:
                matrix.set_loss(positions[a], positions[b], loss_db)
    medium = Medium(sim, matrix, fading=NoFading(), rng=rng)
    radios = {
        name: Radio(sim, medium, name, pos, 2460.0, 0.0, rng=rng)
        for name, pos in positions.items()
    }
    macs = {
        name: Mac(
            sim,
            radio,
            rng,
            params=mac_params,
            cca_policy=cca() if cca else FixedCcaThreshold(-77.0),
        )
        for name, radio in radios.items()
    }
    return sim, macs


def test_single_frame_delivered():
    sim, macs = make_pair()
    macs["tx"].send(Frame("tx", "rx", 60))
    sim.run(1.0)
    assert macs["tx"].stats.sent == 1
    assert macs["rx"].stats.delivered == 1


def test_frames_not_for_us_are_snooped_not_delivered():
    sim, macs = make_pair(n_extra=1)
    macs["tx"].send(Frame("tx", "x0", 60))
    sim.run(1.0)
    assert macs["rx"].stats.delivered == 0
    assert macs["rx"].stats.snooped == 1


def test_broadcast_delivered_to_all():
    sim, macs = make_pair(n_extra=1)
    macs["tx"].send(Frame("tx", None, 60))
    sim.run(1.0)
    assert macs["rx"].stats.delivered == 1
    assert macs["x0"].stats.delivered == 1


def test_queue_limit_drops():
    sim, macs = make_pair(mac_params=MacParams(queue_limit=2))
    accepted = [macs["tx"].send(Frame("tx", "rx", 60)) for _ in range(5)]
    assert accepted.count(True) <= 3  # 2 in queue + possibly 1 in flight
    assert macs["tx"].stats.queue_drops >= 2


def test_queue_drains_in_order():
    sim, macs = make_pair()
    order = []
    macs["rx"].add_receive_listener(lambda rec: order.append(rec.frame.sequence))
    for _ in range(3):
        macs["tx"].send(Frame("tx", "rx", 20))
    sim.run(1.0)
    assert order == [1, 2, 3]


def test_busy_channel_defers_transmission():
    sim, macs = make_pair(n_extra=1)
    # x0 blasts continuously with CSMA disabled; tx should defer.
    blaster = macs["x0"]
    blaster.params = MacParams(csma_enabled=False)

    def refill():
        if blaster.queue_length < 2:
            blaster.send(Frame("x0", None, 100))

    blaster.add_idle_listener(refill)
    for _ in range(3):
        blaster.send(Frame("x0", None, 100))
    macs["tx"].send(Frame("tx", "rx", 60))
    sim.run(0.02)
    # With the channel saturated at -50 dBm, tx's CCAs all read busy.
    assert macs["tx"].stats.cca_busy == macs["tx"].stats.cca_attempts
    assert macs["tx"].stats.cca_busy >= 1


def test_access_failure_after_max_backoffs():
    sim, macs = make_pair(n_extra=1)
    blaster = macs["x0"]
    blaster.params = MacParams(csma_enabled=False)

    def refill():
        if blaster.queue_length < 2:
            blaster.send(Frame("x0", None, 100))

    blaster.add_idle_listener(refill)
    for _ in range(3):
        blaster.send(Frame("x0", None, 100))
    macs["tx"].send(Frame("tx", "rx", 60))
    sim.run(1.0)
    assert macs["tx"].stats.access_failures == 1
    assert macs["tx"].stats.sent == 0


def test_csma_disabled_sends_immediately():
    sim, macs = make_pair(mac_params=MacParams(csma_enabled=False))
    macs["tx"].send(Frame("tx", "rx", 60))
    sim.run(0.01)
    assert macs["tx"].stats.sent == 1
    assert macs["tx"].stats.cca_attempts == 0


def test_disabled_cca_policy_never_busy():
    sim, macs = make_pair(cca=DisabledCca, n_extra=1)
    blaster = macs["x0"]
    blaster.params = MacParams(csma_enabled=False)
    for _ in range(3):
        blaster.send(Frame("x0", None, 100))
    macs["tx"].send(Frame("tx", "rx", 60))
    sim.run(1.0)
    assert macs["tx"].stats.sent == 1
    assert macs["tx"].stats.cca_busy == 0


def test_idle_listener_fires_when_queue_drains():
    sim, macs = make_pair()
    drained = []
    macs["tx"].add_idle_listener(lambda: drained.append(sim.now))
    macs["tx"].send(Frame("tx", "rx", 60))
    sim.run(1.0)
    assert len(drained) == 1


def test_params_validation():
    with pytest.raises(ValueError):
        MacParams(mac_min_be=6, mac_max_be=5)
    with pytest.raises(ValueError):
        MacParams(max_csma_backoffs=-1)
    with pytest.raises(ValueError):
        MacParams(queue_limit=0)


def test_stats_snapshot_and_since():
    sim, macs = make_pair()
    macs["tx"].send(Frame("tx", "rx", 60))
    sim.run(1.0)
    snap = macs["tx"].stats.snapshot()
    macs["tx"].send(Frame("tx", "rx", 60))
    sim.run(2.0)
    delta = macs["tx"].stats.since(snap)
    assert delta.sent == 1
    assert macs["tx"].stats.sent == 2
