"""Property-style tests for CSMA/CA timing invariants."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.mac.cca import FixedCcaThreshold
from repro.mac.mac import Mac
from repro.mac.params import MacParams
from repro.phy.constants import (
    CCA_DURATION_S,
    TURNAROUND_TIME_S,
    UNIT_BACKOFF_PERIOD_S,
)
from repro.phy.fading import NoFading
from repro.phy.frame import Frame, frame_airtime_s
from repro.phy.medium import Medium
from repro.phy.propagation import FixedRssMatrix
from repro.phy.radio import Radio
from repro.sim.rng import RngStreams
from repro.sim.simulator import Simulator
from repro.sim.trace import Trace


def build_single(seed, params=None, trace=None):
    sim = Simulator(trace=trace)
    if trace is not None:
        trace.bind_clock(lambda: sim.now)
    rng = RngStreams(seed)
    medium = Medium(
        sim, FixedRssMatrix(default_loss_db=50.0), fading=NoFading(), rng=rng
    )
    tx = Radio(sim, medium, "tx", (0, 0), 2460.0, 0.0, rng=rng)
    rx = Radio(sim, medium, "rx", (1, 0), 2460.0, 0.0, rng=rng)
    mac = Mac(sim, tx, rng, params=params,
              cca_policy=FixedCcaThreshold(-77.0))
    return sim, mac, rx


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_first_transmission_time_within_csma_bounds(seed):
    """First TX must start after cca+turnaround and within the maximum
    initial backoff window."""
    trace = Trace()
    sim, mac, _ = build_single(seed, trace=trace)
    mac.send(Frame("tx", "rx", 60))
    sim.run(1.0)
    tx_start = trace.of_kind("tx_start")[0].time
    min_start = CCA_DURATION_S + TURNAROUND_TIME_S
    max_start = (
        (2**3 - 1) * UNIT_BACKOFF_PERIOD_S + CCA_DURATION_S + TURNAROUND_TIME_S
    )
    assert min_start - 1e-12 <= tx_start <= max_start + 1e-12


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_saturated_single_sender_throughput_bounded_by_capacity(seed):
    """Delivered rate can never exceed 1/airtime, and a clean saturated
    link must achieve at least half of it."""
    sim, mac, rx = build_single(seed)
    from repro.net.traffic import SaturatedSource

    class _Shim:
        def __init__(self, mac):
            self.mac = mac
            self.name = mac.name
            self.sim = mac.sim

    rx_mac = Mac(sim, rx, RngStreams(seed + 1))
    SaturatedSource(_Shim(mac), "rx").start()
    sim.run(2.0)
    rate = rx_mac.stats.delivered / 2.0
    capacity = 1.0 / frame_airtime_s(60)
    assert rate <= capacity
    assert rate >= 0.5 * capacity


def test_transmissions_of_one_mac_never_overlap():
    trace = Trace()
    sim, mac, _ = build_single(3, trace=trace)
    from repro.net.traffic import SaturatedSource

    class _Shim:
        def __init__(self, mac):
            self.mac = mac
            self.name = mac.name
            self.sim = mac.sim

    SaturatedSource(_Shim(mac), "rx").start()
    sim.run(1.0)
    starts = [r.time for r in trace.of_kind("tx_start")]
    airtime = frame_airtime_s(60)
    for first, second in zip(starts, starts[1:]):
        assert second >= first + airtime - 1e-12


def test_backoff_grows_with_busy_channel():
    """With an always-busy CCA the attempts must spread out over growing
    backoff windows before the access failure."""
    trace = Trace()
    sim, mac, _ = build_single(5, trace=trace)
    mac.cca_policy = FixedCcaThreshold(-200.0)  # noise floor > threshold
    mac.send(Frame("tx", "rx", 60))
    sim.run(2.0)
    assert mac.stats.access_failures == 1
    assert mac.stats.cca_attempts == 5  # NB = 0..4
    busy_events = trace.of_kind("cca_busy")
    assert len(busy_events) == 5
