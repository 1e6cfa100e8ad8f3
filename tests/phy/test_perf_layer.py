"""Tests for the kernel performance layer.

Three properties are load-bearing and verified here:

1. **Culling exactness** — running the same scenario on the fast path
   (:class:`~repro.phy.vectorized.VectorizedLinkCache` fan-out batches) and
   on the brute-force reference path (``Medium(reference=True)``)
   produces identical observable outcomes, bit for bit.
2. **Accumulator exactness** — the incremental power sums equal, bit for
   bit, the full mask re-evaluation of ``Radio.resample_sense_power_mw``
   and ``Radio.resample_in_channel_power_mw`` (the reference the oracle and
   the invariant layer use), over arbitrary signal start/end sequences
   (hypothesis property test).
3. **Frame-timeline bit accounting** — a completed frame samples exactly
   ``round(airtime * bit_rate)`` bits no matter how many times the
   interference environment changes mid-frame.
"""

import copy
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.phy.constants import BIT_RATE_BPS
from repro.phy.fading import FadingModel, LinkDraws, LogNormalFading, NoFading
from repro.phy.frame import Frame
from repro.phy.medium import Medium, Signal, Transmission
from repro.phy.propagation import FixedRssMatrix, LogDistancePathLoss
from repro.phy.radio import Radio
from repro.sim.rng import RngStreams
from repro.sim.simulator import Simulator


# ----------------------------------------------------------------------
# 1. Culling exactness: the fast path vs the brute-force reference path
# ----------------------------------------------------------------------
def _run_scenario(reference: bool, seed: int = 7, register_order=None):
    """A mixed-audibility scenario; returns every observable outcome.

    Two transmitters alternate frames towards a population of receivers:
    one comfortably audible, one borderline (mean below the delivery floor
    but within fading headroom, so *some* draws deliver), one hopeless
    (beyond floor + clip: the cullable case).
    """
    sim = Simulator()
    rng = RngStreams(seed)
    matrix = FixedRssMatrix(default_loss_db=60.0)
    positions = {
        "tx1": (0, 0),
        "tx2": (50, 0),
        "near": (1, 0),
        "edge": (2, 0),
        "far": (3, 0),
    }
    # tx1's links: near is clearly audible, edge is borderline
    # (-120 mean, floor -115, clip 12 -> best case -108), far is
    # unreachable under any draw (-150 + 12 < -115: culled).
    matrix.set_loss(positions["tx1"], positions["near"], 50.0)
    matrix.set_loss(positions["tx1"], positions["edge"], 120.0)
    matrix.set_loss(positions["tx1"], positions["far"], 150.0)
    # tx2 mirrors it with different pairings.
    matrix.set_loss(positions["tx2"], positions["near"], 118.0)
    matrix.set_loss(positions["tx2"], positions["edge"], 55.0)
    matrix.set_loss(positions["tx2"], positions["far"], 152.0)
    medium = Medium(
        sim,
        matrix,
        fading=LogNormalFading(sigma_db=4.0, clip_db=12.0),
        rng=rng,
        delivery_floor_dbm=-115.0,
        reference=reference,
    )
    radios = {}
    order = register_order or list(positions)
    for name in order:
        radios[name] = Radio(
            sim, medium, name, positions[name], 2460.0, 0.0, rng=rng
        )
    events = []
    for name in ("near", "edge", "far"):
        def listener(outcome, _name=name):
            events.append(
                (
                    _name,
                    outcome.frame.source,  # frame_id is a process-global counter
                    outcome.rssi_dbm,
                    outcome.crc_ok,
                    outcome.errored_bits,
                    outcome.total_bits,
                )
            )
        radios[name].add_frame_listener(listener)

    def chain(radio, remaining):
        if remaining == 0:
            return
        frame = Frame(radio.name, None, 40)
        radio.transmit(
            frame,
            lambda t: sim.schedule(1e-4, lambda: chain(radio, remaining - 1)),
        )

    sim.schedule(0.0, lambda: chain(radios["tx1"], 15))
    # Offset tx2 so the two frame streams interleave without colliding.
    sim.schedule(2e-3, lambda: chain(radios["tx2"], 15))
    sim.run_until_idle()
    # Sanity: the scenario must actually deliver frames and must include a
    # borderline receiver that is delivered only sometimes.
    delivered_to = {name for name, *_ in events}
    assert "near" in delivered_to and "edge" in delivered_to
    assert "far" not in delivered_to
    edge_count = sum(1 for name, *_ in events if name == "edge")
    assert 0 < edge_count < 30  # some draws miss the floor, some clear it
    return events


def test_culling_matches_reference_path_exactly():
    cached = _run_scenario(reference=False)
    brute = _run_scenario(reference=True)
    assert cached == brute  # identical tuples, float-exact RSSIs included


def test_results_independent_of_registration_order():
    """Per-link fading streams key on radio *names*, so shuffling the
    registration order must not move any link's draw sequence."""
    base = _run_scenario(reference=False)
    shuffled = _run_scenario(
        reference=False,
        register_order=["far", "edge", "near", "tx2", "tx1"],
    )
    assert base == shuffled


def test_culling_exact_with_different_seeds():
    for seed in (1, 2, 3):
        assert _run_scenario(False, seed=seed) == _run_scenario(True, seed=seed)


# ----------------------------------------------------------------------
# Link cache unit behaviour
# ----------------------------------------------------------------------
def _cache_rig(fading=None, floor=-115.0):
    sim = Simulator()
    matrix = FixedRssMatrix(default_loss_db=60.0)
    medium = Medium(
        sim,
        matrix,
        fading=fading if fading is not None else NoFading(),
        rng=RngStreams(1),
        delivery_floor_dbm=floor,
    )
    return sim, matrix, medium


def test_audible_set_culls_unreachable_receivers():
    sim, matrix, medium = _cache_rig()
    matrix.set_loss((0, 0), (1, 0), 50.0)
    matrix.set_loss((0, 0), (2, 0), 150.0)
    tx = Radio(sim, medium, "tx", (0, 0), 2460.0, 0.0)
    near = Radio(sim, medium, "near", (1, 0), 2460.0, 0.0)
    Radio(sim, medium, "far", (2, 0), 2460.0, 0.0)
    batch = medium._link_cache.fanout_batch(tx, 0.0, 2460.0)
    assert batch.radios == [near]
    assert batch.means[0] == pytest.approx(-50.0)


def test_audible_set_respects_fading_headroom():
    """A mean below the floor but within clip_db headroom must be kept."""
    sim, matrix, medium = _cache_rig(
        fading=LogNormalFading(sigma_db=4.0, clip_db=12.0)
    )
    matrix.set_loss((0, 0), (1, 0), 120.0)  # mean -120, best case -108
    matrix.set_loss((0, 0), (2, 0), 130.0)  # mean -130, best case -118: cull
    tx = Radio(sim, medium, "tx", (0, 0), 2460.0, 0.0)
    edge = Radio(sim, medium, "edge", (1, 0), 2460.0, 0.0)
    Radio(sim, medium, "far", (2, 0), 2460.0, 0.0)
    assert medium._link_cache.fanout_batch(tx, 0.0, 2460.0).radios == [edge]


def test_unbounded_fading_disables_culling():
    class WildFading(FadingModel):
        def sample_db(self, rng):  # pragma: no cover - never sampled here
            return 0.0

    sim, matrix, medium = _cache_rig(fading=WildFading())
    matrix.set_loss((0, 0), (1, 0), 300.0)
    tx = Radio(sim, medium, "tx", (0, 0), 2460.0, 0.0)
    far = Radio(sim, medium, "far", (1, 0), 2460.0, 0.0)
    assert math.isinf(medium.fading.max_gain_db())
    assert medium._link_cache.fanout_batch(tx, 0.0, 2460.0).radios == [far]


def _batch_columns(batch):
    return (
        batch.radios,
        batch.means.tolist(),
        batch.decode_gains,
        batch.sense_gains,
        batch.lockable,
    )


def test_late_registration_drops_batch_and_rebuild_matches_fresh_medium():
    """Registering a radio drops the cached batch; the rebuilt batch
    equals, bit for bit, the one a medium that saw every radio before
    its first transmission builds."""

    def rig():
        sim, matrix, medium = _cache_rig(
            fading=LogNormalFading(sigma_db=4.0, clip_db=12.0)
        )
        matrix.set_loss((0, 0), (1, 0), 50.0)
        matrix.set_loss((0, 0), (2, 0), 121.5)  # borderline, kept
        matrix.set_loss((0, 0), (3, 0), 300.0)  # culled
        return sim, medium

    sim, medium = rig()
    cache = medium._link_cache
    tx = Radio(sim, medium, "tx", (0, 0), 2460.0, 0.0)
    Radio(sim, medium, "rx1", (1, 0), 2460.0, 0.0)
    first = cache.fanout_batch(tx, 0.0, 2460.0)
    assert cache.fanout_batch(tx, 0.0, 2460.0) is first  # memoised
    Radio(sim, medium, "late", (2, 0), 2460.0, 0.0)
    Radio(sim, medium, "far", (3, 0), 2460.0, 0.0)
    rebuilt = cache.fanout_batch(tx, 0.0, 2460.0)
    assert rebuilt is not first
    assert rebuilt.links[0] is first.links[0]  # the link keeps its draws

    fresh_sim, fresh_medium = rig()
    fresh_tx = Radio(fresh_sim, fresh_medium, "tx", (0, 0), 2460.0, 0.0)
    for name, x in (("rx1", 1), ("late", 2), ("far", 3)):
        Radio(fresh_sim, fresh_medium, name, (x, 0), 2460.0, 0.0)
    fresh = fresh_medium._link_cache.fanout_batch(fresh_tx, 0.0, 2460.0)
    got = _batch_columns(rebuilt)
    want = _batch_columns(fresh)
    assert [radio.name for radio in got[0]] == ["rx1", "late"]
    assert [radio.name for radio in want[0]] == ["rx1", "late"]
    assert got[1:] == want[1:]


def test_register_updates_match_full_rebuild_bitwise():
    sim, matrix, medium = _cache_rig()
    matrix.set_loss((0, 0), (1, 0), 50.0)
    matrix.set_loss((0, 0), (2, 0), 55.0)
    matrix.set_loss((0, 0), (3, 0), 300.0)  # inaudible: must not be added
    tx = Radio(sim, medium, "tx", (0, 0), 2460.0, 0.0)
    Radio(sim, medium, "rx1", (1, 0), 2460.0, 0.0)
    medium._link_cache.fanout_batch(tx, 0.0, 2460.0)  # warm the cache
    Radio(sim, medium, "late", (2, 0), 2460.0, 0.0)
    Radio(sim, medium, "far", (3, 0), 2460.0, 0.0)
    registered = medium._link_cache.fanout_batch(tx, 0.0, 2460.0)
    medium.invalidate_link_cache()
    rebuilt = medium._link_cache.fanout_batch(tx, 0.0, 2460.0)
    assert registered is not rebuilt
    assert _batch_columns(registered) == _batch_columns(rebuilt)
    # Invalidation drops batches, never a link's draws.
    assert all(a is b for a, b in zip(registered.links, rebuilt.links))


def test_late_registered_radio_hears_subsequent_transmissions():
    sim, matrix, medium = _cache_rig()
    matrix.set_loss((0, 0), (1, 0), 50.0)
    matrix.set_loss((0, 0), (2, 0), 55.0)
    tx = Radio(sim, medium, "tx", (0, 0), 2460.0, 0.0)
    Radio(sim, medium, "rx1", (1, 0), 2460.0, 0.0)
    tx.transmit(Frame("tx", None, 20), lambda t: None)  # warms the cache
    sim.run_until_idle()
    late = Radio(sim, medium, "late", (2, 0), 2460.0, 0.0)
    got = []
    late.add_frame_listener(lambda outcome: got.append(outcome))
    tx.transmit(Frame("tx", None, 20), lambda t: None)
    sim.run_until_idle()
    assert len(got) == 1


def test_duplicate_registration_rejected():
    sim, _, medium = _cache_rig()
    radio = Radio(sim, medium, "tx", (0, 0), 2460.0, 0.0)
    with pytest.raises(ValueError, match="registered twice"):
        medium.register(radio)


def test_radios_snapshot_is_stable_and_refreshed():
    sim, _, medium = _cache_rig()
    a = Radio(sim, medium, "a", (0, 0), 2460.0, 0.0)
    snap = medium.radios
    assert medium.radios is snap  # no per-access copy
    b = Radio(sim, medium, "b", (1, 0), 2460.0, 0.0)
    assert medium.radios == (a, b)


def test_invalidate_link_cache_after_position_change():
    sim, matrix, medium = _cache_rig()
    matrix.set_loss((0, 0), (1, 0), 150.0)
    matrix.set_loss((0, 0), (5, 0), 50.0)
    tx = Radio(sim, medium, "tx", (0, 0), 2460.0, 0.0)
    rx = Radio(sim, medium, "rx", (1, 0), 2460.0, 0.0)
    assert medium._link_cache.fanout_batch(tx, 0.0, 2460.0).radios == []
    rx.position = (5, 0)
    medium.invalidate_link_cache()
    assert medium._link_cache.fanout_batch(tx, 0.0, 2460.0).radios == [rx]


def test_buffered_fading_draws_match_scalar_normal_calls():
    """Both entry points replay per-call ``rng.normal(0, sigma)`` draws:
    the unbuffered ``sample_db`` and the read-ahead ``sample_db_many``
    over a :class:`LinkDraws`, across its 8/32/128-draw refills."""
    import numpy as np

    fading = LogNormalFading(sigma_db=4.0, clip_db=12.0)
    rng = np.random.default_rng(99)
    link = LinkDraws(np.random.default_rng(99))
    reference = np.random.default_rng(99)
    for _ in range(3 * LogNormalFading.BUFFER_DRAWS + 7):  # cross refills
        expected = reference.normal(0.0, 4.0)
        expected = min(max(expected, -12.0), 12.0)
        assert fading.sample_db(rng) == expected
        assert fading.sample_db_many([link]) == [expected]


# ----------------------------------------------------------------------
# 2. Incremental power accumulator vs full mask re-evaluation
# ----------------------------------------------------------------------
def _bare_radio():
    sim = Simulator()
    rng = RngStreams(1)
    medium = Medium(sim, FixedRssMatrix(default_loss_db=50.0), rng=rng)
    return Radio(sim, medium, "rx", (0, 0), 2460.0, 0.0, rng=rng)


def _start(rx, signal):
    """Signal bookkeeping alone: the radio's own gains, no lock attempt."""
    rx.start_signal(signal, *rx._gains_for(signal.channel_mhz), False)


def _make_signal(rx, channel_mhz, rx_power_dbm):
    transmission = Transmission(
        source=rx,
        frame=Frame("s", None, 20),
        channel_mhz=channel_mhz,
        tx_power_dbm=0.0,
        start_time=0.0,
        end_time=1.0,
    )
    return Signal(transmission, rx_power_dbm)


def _assert_accumulators_exact(rx):
    assert rx.sensed_power_mw() == rx.resample_sense_power_mw()
    assert rx.in_channel_power_mw() == rx.resample_in_channel_power_mw()
    for signal in rx.active_signals:
        assert rx.in_channel_power_mw(
            exclude=signal
        ) == rx.resample_in_channel_power_mw(exclude=signal)


@settings(max_examples=60, deadline=None)
@given(
    spec=st.lists(
        st.tuples(
            st.integers(min_value=-6, max_value=6),  # channel offset (MHz)
            st.floats(min_value=-110.0, max_value=-20.0),  # RSS (dBm)
        ),
        min_size=0,
        max_size=24,
    ),
    data=st.data(),
)
def test_incremental_accumulator_matches_brute_force(spec, data):
    """Random add/remove/probe interleavings stay bit-equal to the full
    mask re-evaluation."""
    rx = _bare_radio()
    live = []
    for offset, power in spec:
        signal = _make_signal(rx, 2460.0 + offset, power)
        _start(rx, signal)
        live.append(signal)
        _assert_accumulators_exact(rx)
    while live:
        index = data.draw(
            st.integers(min_value=0, max_value=len(live) - 1), label="remove"
        )
        rx._remove_signal(live.pop(index))
        _assert_accumulators_exact(rx)
    assert rx.sensed_power_mw() == rx._noise_mw  # exact reset, no drift


_LAZY_SUM_OPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("start"),
            st.integers(min_value=-6, max_value=6),  # channel offset (MHz)
            st.floats(min_value=-110.0, max_value=-20.0),  # RSS (dBm)
        ),
        st.tuples(st.just("remove"), st.integers(min_value=0, max_value=63)),
        st.tuples(st.just("probe")),
    ),
    max_size=40,
)


@settings(max_examples=100, deadline=None)
@given(ops=_LAZY_SUM_OPS)
@example(
    ops=[
        ("start", 0, -50.0),
        ("start", 3, -61.5),
        ("start", -5, -44.2),
        ("remove", 1),
        ("probe",),  # straight after a removal
        ("start", 2, -70.0),
        ("remove", 0),
        ("start", -1, -35.0),  # arrives while the sum is stale
        ("probe",),
        ("remove", 0),
        ("remove", 0),
        ("remove", 0),  # down to an empty list
        ("probe",),
        ("start", 4, -80.0),
        ("probe",),
    ]
)
def test_lazy_sense_sum_is_bit_exact(ops):
    """Starts, removals and probes in any order: the sensed power a probe
    reads equals the full mask re-evaluation, bit for bit.

    Only ``probe`` steps read the radio itself, so removals leave its
    cached sum stale and later starts meet that stale sum.  Every other
    step reads a shallow copy, which refreshes the copy's cache and not
    the radio's.
    """
    rx = _bare_radio()
    live = []
    for op in ops:
        if op[0] == "start":
            signal = _make_signal(rx, 2460.0 + op[1], op[2])
            _start(rx, signal)
            live.append(signal)
        elif op[0] == "remove":
            if not live:
                continue
            rx._remove_signal(live.pop(op[1] % len(live)))
        else:
            assert rx.sensed_power_mw() == rx.resample_sense_power_mw()
        assert copy.copy(rx).sensed_power_mw() == rx.resample_sense_power_mw()
        assert rx.in_channel_power_mw() == rx.resample_in_channel_power_mw()
    assert rx.sensed_power_mw() == rx.resample_sense_power_mw()


def test_removal_rebuild_is_bitwise_equal_to_brute_force():
    """After any removal the sensed power is *bitwise* the full re-sum
    (both walk the same list in the same order)."""
    rx = _bare_radio()
    signals = [
        _make_signal(rx, 2460.0 + (i % 5), -40.0 - 7.3 * i) for i in range(12)
    ]
    for signal in signals:
        _start(rx, signal)
    for signal in signals[::2]:
        rx._remove_signal(signal)
        assert rx.sensed_power_mw() == rx.resample_sense_power_mw()


def test_gain_memo_caches_per_offset():
    rx = _bare_radio()
    first = rx._gains_for(2465.0)
    assert rx._gains_for(2465.0) is first
    assert rx._gains_for(2460.0) == (1.0, 1.0)  # co-channel: no attenuation


# ----------------------------------------------------------------------
# 3. Frame-timeline bit accounting
# ----------------------------------------------------------------------
def test_completed_frame_samples_exactly_its_bit_length():
    """Many mid-frame interference changes must not drift the sampled-bit
    total away from round(airtime * bit_rate)."""
    sim = Simulator()
    rng = RngStreams(3)
    matrix = FixedRssMatrix(default_loss_db=60.0)
    medium = Medium(sim, matrix, fading=NoFading(), rng=rng)
    tx = Radio(sim, medium, "tx", (0, 0), 2460.0, 0.0, rng=rng)
    rx = Radio(sim, medium, "rx", (1, 0), 2460.0, 0.0, rng=rng)
    # Off-channel interferer: perturbs rx's interference environment
    # (segment closures) without being lockable by rx.
    jammer = Radio(sim, medium, "jam", (2, 0), 2465.0, 0.0, rng=rng)
    matrix.set_loss((0, 0), (1, 0), 50.0)
    matrix.set_loss((2, 0), (1, 0), 70.0)

    outcomes = []
    rx.add_frame_listener(lambda outcome: outcomes.append(outcome))

    frame = Frame("tx", "rx", 100)  # long frame: ~4.3 ms on air
    tx.transmit(frame, lambda t: None)

    jam_count = [0]

    def jam():
        if sim.now >= frame.airtime_s - 5e-4:
            return
        jam_count[0] += 1
        jammer.transmit(
            Frame("jam", None, 0),
            lambda t: sim.schedule(3e-5, jam),
        )

    # Odd offset so segment boundaries land on fractional bit times.
    sim.schedule(1.37e-4, jam)
    sim.run_until_idle()

    assert jam_count[0] >= 5  # the frame really was chopped into segments
    [outcome] = outcomes
    expected_bits = round(frame.airtime_s * BIT_RATE_BPS)
    assert outcome.total_bits == expected_bits
    assert outcome.total_bits == frame.total_bits


def test_bit_accounting_with_log_distance_smoke():
    """End-to-end: clean reception over a physical path-loss model still
    accounts every on-air bit exactly once."""
    sim = Simulator()
    rng = RngStreams(4)
    medium = Medium(sim, LogDistancePathLoss(), fading=NoFading(), rng=rng)
    tx = Radio(sim, medium, "tx", (0, 0), 2460.0, 0.0, rng=rng)
    rx = Radio(sim, medium, "rx", (3, 0), 2460.0, 0.0, rng=rng)
    outcomes = []
    rx.add_frame_listener(lambda outcome: outcomes.append(outcome))
    frame = Frame("tx", "rx", 60)
    tx.transmit(frame, lambda t: None)
    sim.run_until_idle()
    [outcome] = outcomes
    assert outcome.total_bits == round(frame.airtime_s * BIT_RATE_BPS)
    assert outcome.crc_ok
