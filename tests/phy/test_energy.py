"""Unit and integration tests for the energy model."""

import pytest
from hypothesis import given, strategies as st

from repro.phy.energy import DEFAULT_ENERGY_MODEL, EnergyAccumulator, EnergyModel


def test_tx_current_interpolation():
    model = EnergyModel()
    assert model.tx_current_ma(0.0) == pytest.approx(17.4)
    assert model.tx_current_ma(-25.0) == pytest.approx(8.5)
    assert model.tx_current_ma(-40.0) == pytest.approx(8.5)  # clamped
    assert model.tx_current_ma(5.0) == pytest.approx(17.4)  # clamped
    mid = model.tx_current_ma(-2.0)  # between (-3, 15.2) and (-1, 16.5)
    assert 15.2 < mid < 16.5


def test_energy_arithmetic():
    model = EnergyModel()
    # 1 s of RX at 18.8 mA and 3 V = 56.4 mJ
    assert model.rx_energy_j(1.0) == pytest.approx(0.0564)
    # 1 s of TX at 0 dBm = 52.2 mJ
    assert model.tx_energy_j(1.0, 0.0) == pytest.approx(0.0522)
    assert model.sensing_energy_j(1000) == pytest.approx(1000 * 2.4e-6)


def test_accumulator_tracks_states():
    acc = EnergyAccumulator()
    acc.transition("tx", 1.0)
    acc.transition("idle", 3.0)
    durations = acc.durations(10.0)
    assert durations["tx"] == pytest.approx(2.0)
    assert durations["idle"] == pytest.approx(8.0)


def test_accumulator_energy_breakdown():
    acc = EnergyAccumulator(tx_power_dbm=0.0)
    acc.transition("tx", 0.0)
    acc.transition("idle", 1.0)
    acc.note_sense_sample()
    breakdown = acc.breakdown_j(2.0)
    assert breakdown["tx"] == pytest.approx(0.0522)
    assert breakdown["listen"] == pytest.approx(0.0564)
    assert breakdown["sensing"] == pytest.approx(2.4e-6)
    assert acc.energy_j(2.0) == pytest.approx(sum(breakdown.values()))


def test_accumulator_rejects_time_reversal():
    acc = EnergyAccumulator()
    acc.transition("tx", 5.0)
    with pytest.raises(ValueError):
        acc.transition("idle", 4.0)


def test_radio_accrues_tx_energy():
    from repro.phy.fading import NoFading
    from repro.phy.frame import Frame
    from repro.phy.medium import Medium
    from repro.phy.propagation import FixedRssMatrix
    from repro.phy.radio import Radio
    from repro.sim.rng import RngStreams
    from repro.sim.simulator import Simulator

    sim = Simulator()
    medium = Medium(sim, FixedRssMatrix(), fading=NoFading(), rng=RngStreams(1))
    radio = Radio(sim, medium, "a", (0, 0), 2460.0, 0.0)
    frame = Frame("a", None, 60)
    radio.transmit(frame, lambda tx: None)
    sim.run(1.0)
    durations = radio.energy.durations(sim.now)
    assert durations["tx"] == pytest.approx(frame.airtime_s)
    assert durations["idle"] == pytest.approx(1.0 - frame.airtime_s)


def test_dcn_sensing_samples_counted():
    from repro.core.dcn import DcnCcaPolicy
    from repro.core.adjustor import AdjustorConfig
    from repro.mac.mac import Mac
    from repro.phy.fading import NoFading
    from repro.phy.medium import Medium
    from repro.phy.propagation import FixedRssMatrix
    from repro.phy.radio import Radio
    from repro.sim.rng import RngStreams
    from repro.sim.simulator import Simulator

    sim = Simulator()
    rng = RngStreams(1)
    medium = Medium(sim, FixedRssMatrix(), fading=NoFading(), rng=rng)
    radio = Radio(sim, medium, "a", (0, 0), 2460.0, 0.0, rng=rng)
    Mac(sim, radio, rng,
        cca_policy=DcnCcaPolicy(AdjustorConfig(t_init_s=0.5)))
    sim.run(2.0)
    # ~0.5 s of 1 ms sampling, then the sampler stops
    assert 450 <= radio.energy.sense_samples <= 510


@given(
    st.lists(
        st.tuples(st.sampled_from(["tx", "idle"]), st.floats(0.001, 1.0)),
        min_size=1,
        max_size=30,
    )
)
def test_energy_monotone_in_time(steps):
    acc = EnergyAccumulator()
    now = 0.0
    previous = 0.0
    for state, dt in steps:
        now += dt
        acc.transition(state, now)
        current = acc.energy_j(now)
        assert current >= previous - 1e-12
        previous = current
