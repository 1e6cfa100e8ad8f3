"""Failure-injection tests: DCN's behaviour when the network changes.

The updating phase exists for exactly these events:

- a *weak* co-channel transmitter appears -> Case I (Eq. 3) must lower the
  threshold immediately to protect it;
- that transmitter dies -> Case II (Eq. 4) must relax the threshold back
  up within ~T_U, restoring the forfeited concurrency.
"""

import pytest

from repro.core.adjustor import AdjustorConfig
from repro.core.dcn import DcnCcaPolicy
from repro.mac.cca import FixedCcaThreshold
from repro.mac.mac import Mac
from repro.net.traffic import SaturatedSource
from repro.phy.fading import NoFading
from repro.phy.medium import Medium
from repro.phy.propagation import FixedRssMatrix
from repro.phy.radio import Radio
from repro.sim.rng import RngStreams
from repro.sim.simulator import Simulator


class _Shim:
    def __init__(self, mac):
        self.mac = mac
        self.name = mac.name
        self.sim = mac.sim


def build_world():
    """One DCN node, a strong co-channel pair and a weak co-channel pair."""
    sim = Simulator()
    rng = RngStreams(17)
    matrix = FixedRssMatrix(default_loss_db=200.0)
    positions = {
        "dcn": (0, 0),
        "strong_tx": (1, 0),
        "strong_rx": (2, 0),
        "weak_tx": (3, 0),
        "weak_rx": (4, 0),
    }
    matrix.set_loss(positions["strong_tx"], positions["dcn"], 50.0)
    matrix.set_loss(positions["strong_tx"], positions["strong_rx"], 45.0)
    matrix.set_loss(positions["weak_tx"], positions["dcn"], 72.0)
    matrix.set_loss(positions["weak_tx"], positions["weak_rx"], 45.0)
    medium = Medium(sim, matrix, fading=NoFading(), rng=rng)
    policy = DcnCcaPolicy(AdjustorConfig(t_init_s=0.5, t_update_s=1.0))
    macs = {}
    for name, pos in positions.items():
        radio = Radio(sim, medium, name, pos, 2460.0, 0.0, rng=rng)
        macs[name] = Mac(
            sim, radio, rng,
            cca_policy=policy if name == "dcn" else FixedCcaThreshold(-77.0),
        )
    return sim, macs, policy


def test_weak_joiner_lowers_threshold_then_death_relaxes_it():
    sim, macs, policy = build_world()
    strong = SaturatedSource(_Shim(macs["strong_tx"]), "strong_rx")
    strong.start()
    # Phase 1: only the strong transmitter -> threshold settles near -50.
    sim.run(3.0)
    settled = policy.threshold_dbm()
    assert settled == pytest.approx(-50.0, abs=1.0)

    # Phase 2: a weak transmitter joins -> Case I protects it immediately.
    weak = SaturatedSource(_Shim(macs["weak_tx"]), "weak_rx")
    weak.start()
    sim.run(4.0)
    lowered = policy.threshold_dbm()
    assert lowered == pytest.approx(-72.0, abs=1.0)

    # Phase 3: the weak transmitter dies -> Case II relaxes within ~T_U.
    weak.stop()
    sim.run(sim.now + 3.0)
    relaxed = policy.threshold_dbm()
    assert relaxed == pytest.approx(-50.0, abs=1.0)


def test_total_silence_keeps_threshold_stable():
    """With *no* co-channel traffic at all after a death, the window is
    empty and Case II must not move the threshold."""
    sim, macs, policy = build_world()
    strong = SaturatedSource(_Shim(macs["strong_tx"]), "strong_rx")
    strong.start()
    sim.run(3.0)
    before = policy.threshold_dbm()
    strong.stop()
    sim.run(sim.now + 5.0)
    assert policy.threshold_dbm() == pytest.approx(before)


def test_threshold_history_tracks_all_three_phases():
    sim, macs, policy = build_world()
    strong = SaturatedSource(_Shim(macs["strong_tx"]), "strong_rx")
    strong.start()
    sim.run(3.0)
    weak = SaturatedSource(_Shim(macs["weak_tx"]), "weak_rx")
    weak.start()
    sim.run(4.0)
    weak.stop()
    sim.run(sim.now + 3.0)
    values = [v for _, v in policy.history()]
    # default -> ~-50 (Eq.2/CaseII) -> ~-72 (Case I) -> ~-50 (Case II)
    assert values[0] == -77.0
    assert min(values) <= -71.0
    assert values[-1] == pytest.approx(-50.0, abs=1.0)
