"""Unit tests for the runtime invariant layer, including fault injection.

A correctness layer that has never caught anything is indistinguishable
from one that cannot — every invariant here is exercised twice: once on
healthy state (passes) and once on deliberately corrupted state (raises
:class:`InvariantViolation` with a useful report).
"""

import math
from types import SimpleNamespace

import pytest

from repro.check.faults import (
    corrupt_bit_counter,
    corrupt_sense_accumulator,
    negate_sense_accumulator,
)
from repro.check.invariants import (
    CheckConfig,
    InvariantChecker,
    InvariantViolation,
)
from repro.phy.fading import NoFading
from repro.phy.frame import Frame
from repro.phy.medium import Medium
from repro.phy.propagation import FixedRssMatrix
from repro.phy.radio import Radio
from repro.sim.events import EventQueue
from repro.sim.rng import RngStreams
from repro.sim.simulator import Simulator


# ----------------------------------------------------------------------
# Config and the simulator argument.


def test_config_validation():
    with pytest.raises(ValueError):
        CheckConfig(resample_every=0)
    with pytest.raises(ValueError):
        CheckConfig(queue_audit_every=0)


def test_simulator_checks_argument():
    assert Simulator().checks is None
    checker = InvariantChecker()
    assert Simulator(checks=checker).checks is checker


# ----------------------------------------------------------------------
# Kernel hooks.


def test_event_monotonicity_pass_and_fail():
    checker = InvariantChecker()
    event = SimpleNamespace(time=1.0)
    checker.on_event(event, now=1.0)  # same instant: fine
    checker.on_event(SimpleNamespace(time=2.0), now=1.5)  # future: fine
    with pytest.raises(InvariantViolation, match="monotonicity"):
        checker.on_event(SimpleNamespace(time=0.5), now=1.0)


def test_queue_audit_detects_live_counter_drift():
    checker = InvariantChecker(CheckConfig(queue_audit_every=1))
    queue = EventQueue()
    queue.push(1.0, lambda: None)
    queue.push(2.0, lambda: None)
    checker.on_event(SimpleNamespace(time=0.0), now=0.0, queue=queue)
    assert checker.counters["queue_audits"] == 1
    queue._live += 1  # simulate a counter-maintenance bug
    with pytest.raises(InvariantViolation, match="live counter"):
        checker.on_event(SimpleNamespace(time=0.0), now=0.0, queue=queue)


def test_checked_run_loop_audits_real_simulation():
    checker = InvariantChecker(CheckConfig(queue_audit_every=2))
    sim = Simulator(checks=checker)
    fired = []
    for i in range(10):
        sim.schedule(0.1 * (i + 1), lambda i=i: fired.append(i))
    sim.run(2.0)
    assert fired == list(range(10))
    assert checker.counters["events"] >= 10
    assert checker.counters["queue_audits"] >= 1


# ----------------------------------------------------------------------
# Accumulator invariants against a live two-radio medium.


def _two_radio_world():
    sim = Simulator()
    rng = RngStreams(7)
    matrix = FixedRssMatrix(default_loss_db=50.0)
    medium = Medium(sim, matrix, fading=NoFading(), rng=rng)
    a = Radio(sim, medium, "a", (0, 0), 2460.0, 0.0, rng=rng)
    b = Radio(sim, medium, "b", (1, 0), 2460.0, 0.0, rng=rng)
    return sim, medium, a, b


def test_resample_passes_on_healthy_accumulator():
    sim, medium, a, b = _two_radio_world()
    frame = Frame(source="a", destination="b", payload_bytes=20)
    medium.begin_transmission(a, frame, 2460.0, 0.0, lambda t: None)
    checker = InvariantChecker()
    checker.resample_radio(b)  # live signal present: sums must agree
    sim.run_until_idle()
    checker.resample_radio(b)  # signal gone: back to the noise floor
    assert checker.counters["accumulator_resamples"] == 2


def test_corrupted_accumulator_caught_with_divergence_report():
    """Acceptance: a deliberately corrupted accumulator is caught and the
    error names the radio, the drift and the first-divergence point."""
    sim, medium, a, b = _two_radio_world()
    frame = Frame(source="a", destination="b", payload_bytes=20)
    medium.begin_transmission(a, frame, 2460.0, 0.0, lambda t: None)
    corrupt_sense_accumulator(b, extra_mw=1e-6)
    checker = InvariantChecker()
    with pytest.raises(InvariantViolation) as excinfo:
        checker.resample_radio(b)
    message = str(excinfo.value)
    assert "'b'" in message and "drift" in message
    assert "first divergence" in message


def test_corruption_caught_mid_run_by_periodic_resample():
    """The periodic resample (not just an explicit call) must catch the
    drift as the simulation keeps running.

    The corruption is injected *between* two overlapping transmissions:
    signal removal rebuilds the sum exactly (erasing any drift), so the
    next incremental *add* is the update that must trip the resample.
    """
    checker = InvariantChecker(CheckConfig(resample_every=1))
    sim, medium, a, b = _two_radio_world()
    rng = RngStreams(8)
    c = Radio(sim, medium, "c", (2, 0), 2460.0, 0.0, rng=rng)
    sim.checks = checker

    def _tx(source):
        frame = Frame(source=source.name, destination="b", payload_bytes=20)
        medium.begin_transmission(source, frame, 2460.0, 0.0, lambda t: None)

    # A 20-byte frame lasts ~1.25 ms: corrupt and start the second
    # transmission while the first is still on the air.
    sim.schedule(0.0100, lambda: _tx(a))
    sim.schedule(0.0105, lambda: corrupt_sense_accumulator(b, 1e-6))
    sim.schedule(0.0108, lambda: _tx(c))  # overlapping add -> resample
    with pytest.raises(InvariantViolation, match="drift"):
        sim.run(1.0)


def test_negative_accumulator_caught():
    sim, medium, a, b = _two_radio_world()
    frame = Frame(source="a", destination="b", payload_bytes=20)
    medium.begin_transmission(a, frame, 2460.0, 0.0, lambda t: None)
    negate_sense_accumulator(b)
    checker = InvariantChecker()
    with pytest.raises(InvariantViolation, match="negative"):
        checker.on_accumulator_update(b)


# ----------------------------------------------------------------------
# Bit conservation.


def _fake_reception(total_bits, errored_bits, airtime_s, rate=250_000):
    reception = SimpleNamespace(
        bit_rate_bps=rate,
        radio=SimpleNamespace(name="rx"),
    )
    outcome = SimpleNamespace(
        frame=SimpleNamespace(frame_id=42),
        total_bits=total_bits,
        errored_bits=errored_bits,
        start_time=0.0,
        end_time=airtime_s,
    )
    return reception, outcome


def test_bit_conservation_pass():
    checker = InvariantChecker()
    # 0.00352 s at 250 kbps = 880 bits exactly.
    reception, outcome = _fake_reception(880, 3, 0.00352)
    checker.on_frame_complete(reception, outcome)
    assert checker.counters["frames"] == 1


def test_bit_conservation_violation_caught():
    checker = InvariantChecker()
    reception, outcome = _fake_reception(879, 0, 0.00352)
    with pytest.raises(InvariantViolation, match="bit conservation"):
        checker.on_frame_complete(reception, outcome)


def test_errored_bits_out_of_range_caught():
    checker = InvariantChecker()
    reception, outcome = _fake_reception(880, 881, 0.00352)
    with pytest.raises(InvariantViolation, match="out of range"):
        checker.on_frame_complete(reception, outcome)


def test_corrupt_bit_counter_caught_in_live_reception():
    """End-to-end: skewing a live reception's sampled-bit counter must be
    caught when the frame finalises under an armed simulator."""
    checker = InvariantChecker()
    sim, medium, a, b = _two_radio_world()
    sim.checks = checker

    def _tx():
        frame = Frame(source="a", destination="b", payload_bytes=20)
        medium.begin_transmission(a, frame, 2460.0, 0.0, lambda t: None)

    def _corrupt():
        assert b.current_reception is not None, \
            "radio should be locked on a frame"
        # Larger than the frame's bit length: the frame-timeline
        # accounting clamps small skews back to the cumulative count,
        # so only an overshoot survives to finalisation.
        corrupt_bit_counter(b.current_reception, 10_000)

    # Corrupt while the ~1.25 ms frame is still on the air.
    sim.schedule(0.0100, _tx)
    sim.schedule(0.0105, _corrupt)
    with pytest.raises(InvariantViolation, match="bit conservation"):
        sim.run(1.0)


# ----------------------------------------------------------------------
# CCA-threshold sanity.


def _fake_adjustor(margin_db=0.0, now=1.0):
    return SimpleNamespace(
        sim=SimpleNamespace(now=now),
        config=SimpleNamespace(margin_db=margin_db),
    )


def test_threshold_nan_and_inf_caught():
    checker = InvariantChecker()
    adjustor = _fake_adjustor()
    with pytest.raises(InvariantViolation, match="non-finite"):
        checker.on_adjustor_threshold(adjustor, float("nan"))
    with pytest.raises(InvariantViolation, match="non-finite"):
        checker.on_adjustor_threshold(adjustor, -math.inf)


def test_threshold_above_strongest_rssi_caught():
    checker = InvariantChecker()
    adjustor = _fake_adjustor(margin_db=2.0)
    checker.on_adjustor_rssi(adjustor, -60.0)
    checker.on_adjustor_rssi(adjustor, -50.0)  # strongest seen
    checker.on_adjustor_threshold(adjustor, -52.0)  # == ceiling: fine
    checker.on_adjustor_threshold(adjustor, -70.0)  # below: fine
    with pytest.raises(InvariantViolation, match="sanity"):
        checker.on_adjustor_threshold(adjustor, -40.0)


def test_threshold_unchecked_without_observations():
    """Before any co-channel packet there is no ceiling to enforce."""
    checker = InvariantChecker()
    checker.on_adjustor_threshold(_fake_adjustor(), -10.0)  # no raise


def test_live_adjustor_feeds_checker_hooks():
    checker = InvariantChecker()
    sim = Simulator(checks=checker)
    from repro.core.adjustor import AdjustorConfig, CcaAdjustor

    adjustor = CcaAdjustor(sim, AdjustorConfig())
    adjustor.observe_rssi(-55.0)
    adjustor.finish_initialization()
    assert checker.counters["thresholds"] == 1
    assert checker._max_rssi[id(adjustor)] == -55.0


def test_summary_reports_counts():
    checker = InvariantChecker()
    checker.on_event(SimpleNamespace(time=1.0), now=0.5)
    text = checker.summary()
    assert "invariants ok" in text and "1 events" in text
