"""Property tests for the vectorized (batched) phy kernels.

Four layers of guarantees, the first three in decreasing strictness:

1. **Bit-identical batch kernels** — batched fading draws replay the
   exact same RNG stream, so they must equal the scalar draws with
   ``==``.
2. **Guard-banded batch kernels** — batched path loss goes through numpy
   SIMD transcendentals that may differ from libm by a few ulp; the
   contract is "within ``PRESELECT_GUARD_DB``" (it is only ever used to
   *preselect*, never to commit a value).
3. **Identical traces** — whole-scene runs through the medium's fast path
   must produce exactly the same trace and deliver the same frames with
   the same float-exact outcomes as the reference path, including
   fan-outs that mix 802.15.4 and 802.11b receivers.
4. **One owner per link** — a link's read-ahead fading draws carry over
   between every batch that holds it, so random transmission sequences
   with late registrations and cache invalidations keep the fast path's
   RSS equal to the reference path's.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.dot11.phy11b import Dot11Radio
from repro.phy.fading import LinkDraws, LogNormalFading, NoFading
from repro.phy.frame import Frame, reset_frame_ids
from repro.phy.medium import Medium
from repro.phy.propagation import (
    FixedRssMatrix,
    FreeSpacePathLoss,
    LogDistancePathLoss,
)
from repro.phy.radio import Radio
from repro.phy.vectorized import PRESELECT_GUARD_DB
from repro.sim.rng import RngStreams
from repro.sim.simulator import Simulator
from repro.sim.trace import Trace

finite = st.floats(
    min_value=-500.0, max_value=500.0, allow_nan=False, allow_infinity=False
)
positions = st.lists(st.tuples(finite, finite), min_size=1, max_size=40)


# ----------------------------------------------------------------------
# 1. Batched path loss: within the preselection guard of the scalar path
# ----------------------------------------------------------------------
@given(
    rx=positions,
    tx=st.tuples(finite, finite),
    power=st.floats(min_value=-25.0, max_value=5.0, allow_nan=False),
    model_kind=st.sampled_from(["free_space", "log_distance"]),
)
@settings(max_examples=60, deadline=None)
def test_batched_path_loss_within_preselection_guard(rx, tx, power, model_kind):
    model = (
        FreeSpacePathLoss() if model_kind == "free_space" else LogDistancePathLoss()
    )
    batch = model.received_power_dbm_batch(power, tx, np.asarray(rx, dtype=float))
    for i, pos in enumerate(rx):
        scalar = model.received_power_dbm(power, tx, pos)
        # The guard band is 1e-6 dB; SIMD-vs-libm disagreement must sit
        # orders of magnitude below it for the preselection to be safe.
        assert abs(batch[i] - scalar) <= 1e-9 * max(1.0, abs(scalar))
        assert abs(batch[i] - scalar) < PRESELECT_GUARD_DB


@given(
    rx=positions,
    tx=st.tuples(finite, finite),
    power=st.floats(min_value=-25.0, max_value=5.0, allow_nan=False),
)
@settings(max_examples=30, deadline=None)
def test_batched_fixed_matrix_is_bit_identical(rx, tx, power):
    """The matrix model does exact dict lookups: batch must be ``==``."""
    model = FixedRssMatrix(default_loss_db=120.0)
    for i, pos in enumerate(rx):
        if i % 2 == 0:
            model.set_loss(tx, pos, 40.0 + i)
    batch = model.received_power_dbm_batch(power, tx, np.asarray(rx, dtype=float))
    for i, pos in enumerate(rx):
        assert batch[i] == model.received_power_dbm(power, tx, pos)


# ----------------------------------------------------------------------
# 2. Batched fading draws: bit-identical stream replay
# ----------------------------------------------------------------------
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n_streams=st.integers(min_value=1, max_value=24),
    rounds=st.integers(min_value=1, max_value=4),
)
@settings(max_examples=40, deadline=None)
def test_sample_db_many_is_bit_identical_to_scalar_loop(seed, n_streams, rounds):
    """Identically seeded per-link streams: the batched draw over
    :class:`LinkDraws` must replay the unbuffered scalar per-stream
    sequence exactly."""
    model = LogNormalFading(sigma_db=4.0, clip_db=12.0)
    names = [f"fading.tx.rx{i}" for i in range(n_streams)]
    scalar_streams = [RngStreams(seed).stream(name) for name in names]
    links = [LinkDraws(RngStreams(seed).stream(name)) for name in names]
    for _ in range(rounds):
        scalar = [model.sample_db(rng) for rng in scalar_streams]
        batched = model.sample_db_many(links)
        assert batched == scalar


def test_no_fading_sample_db_many_is_zeros():
    links = [LinkDraws(RngStreams(0).stream(f"s{i}")) for i in range(5)]
    assert NoFading().sample_db_many(links) == [0.0] * 5


# ----------------------------------------------------------------------
# 3. Whole-scene trace identity: fast path vs reference path
# ----------------------------------------------------------------------
RADIO_NAMES = ("a_tx", "a_rx1", "a_rx2", "b_tx", "b_rx")


def _delivery_run(seed, *, reference, b_offset_mhz=0.0, dot11=frozenset()):
    """Two transmit chains plus receivers; network b sits ``b_offset_mhz``
    above network a (75 MHz: pre-mask audible but sub-floor post-mask).
    Radios named in ``dot11`` are false-locking 802.11b receivers, so one
    fan-out mixes both lock rules.  Returns the full trace plus every
    delivered frame as a float-exact outcome tuple."""
    reset_frame_ids()
    trace = Trace()
    sim = Simulator(trace=trace)
    rng = RngStreams(seed)
    matrix = FixedRssMatrix(default_loss_db=200.0)
    positions = {
        "a_tx": (0.0, 0.0),
        "a_rx1": (1.0, 0.0),
        "a_rx2": (2.0, 0.0),
        "b_tx": (10.0, 0.0),
        "b_rx": (11.0, 0.0),
    }
    channels = {name: 2405.0 for name in positions}
    channels["b_tx"] = channels["b_rx"] = 2405.0 + b_offset_mhz
    # Strong in-network links (high SINR, BER 0); cross-network mean RSS
    # -80 dBm: audible pre-mask (floor -115, clip 12).
    for tx in ("a_tx", "b_tx"):
        for rx in positions:
            if rx == tx:
                continue
            same = rx.startswith(tx[0])
            matrix.set_loss(
                positions[tx], positions[rx], 45.0 if same else 80.0
            )
    medium = Medium(
        sim,
        matrix,
        fading=LogNormalFading(sigma_db=4.0, clip_db=12.0),
        rng=rng,
        delivery_floor_dbm=-115.0,
        reference=reference,
    )
    radios = {
        name: (Dot11Radio if name in dot11 else Radio)(
            sim, medium, name, positions[name], channels[name], 0.0, rng=rng
        )
        for name in positions
    }
    events = []
    for name in ("a_rx1", "a_rx2", "b_rx"):
        def listener(outcome, _name=name):
            events.append(
                (
                    _name,
                    outcome.frame.source,
                    outcome.rssi_dbm,
                    outcome.crc_ok,
                    outcome.errored_bits,
                    outcome.total_bits,
                )
            )
        radios[name].add_frame_listener(listener)

    def chain(radio, remaining, gap_s):
        if remaining == 0:
            return
        frame = Frame(radio.name, None, 40)
        radio.transmit(
            frame,
            lambda t: sim.schedule(
                gap_s, lambda: chain(radio, remaining - 1, gap_s)
            ),
        )

    # Different gaps make the two chains drift against each other, so
    # frames of one network also start while the other's receivers idle.
    sim.schedule(0.0, lambda: chain(radios["a_tx"], 10, 1e-4))
    sim.schedule(1.7e-3, lambda: chain(radios["b_tx"], 10, 7e-4))
    sim.run_until_idle()
    assert any(name == "a_rx1" for name, *_ in events)
    records = [str(record) for record in trace.records]
    return records, events


def _assert_fast_matches_reference(seed, b_offset_mhz):
    fast = _delivery_run(seed, reference=False, b_offset_mhz=b_offset_mhz)
    reference = _delivery_run(seed, reference=True, b_offset_mhz=b_offset_mhz)
    assert fast == reference
    return fast


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=8, deadline=None)
def test_vectorized_cache_trace_identical_to_scalar_cache(seed):
    """Co-channel scene: the vectorized link cache's batched fan-out must
    reproduce the reference path's per-radio scan exactly."""
    _assert_fast_matches_reference(seed, 0.0)


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=8, deadline=None)
def test_sharded_scheduler_trace_identical_to_scalar_reference(seed):
    """Adjacent-channel scene (3 MHz, partial mask leakage): the whole fast
    stack (culled batched fan-out, precomputed gains, incremental
    accumulators, single event heap) against the brute-force reference."""
    _assert_fast_matches_reference(seed, 3.0)


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=8, deadline=None)
def test_band_sharding_trace_identical_on_separated_bands(seed):
    """Separated bands (75 MHz): cross-band links are audible pre-mask but
    sub-floor post-mask; the fast path keeps them exactly as the reference
    path does, and both networks still deliver."""
    _, events = _assert_fast_matches_reference(seed, 75.0)
    assert any(name == "b_rx" for name, *_ in events)


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    b_offset_mhz=st.sampled_from([0.0, 5.0, 10.0]),
    dot11=st.sets(st.sampled_from(RADIO_NAMES), min_size=1),
)
@settings(max_examples=12, deadline=None)
def test_mixed_radio_fanout_trace_identical_to_reference(
    seed, b_offset_mhz, dot11
):
    """Fan-outs that mix 802.15.4 and false-locking 802.11b receivers: each
    receiver's own lock rule must apply on the fast path exactly as on the
    reference path."""
    fast = _delivery_run(
        seed, reference=False, b_offset_mhz=b_offset_mhz, dot11=dot11
    )
    reference = _delivery_run(
        seed, reference=True, b_offset_mhz=b_offset_mhz, dot11=dot11
    )
    assert fast == reference


def test_fanout_batch_carries_each_receivers_lock_rule():
    sim = Simulator()
    rng = RngStreams(5)
    medium = Medium(sim, FixedRssMatrix(default_loss_db=60.0), rng=rng)
    tx = Radio(sim, medium, "tx", (0.0, 0.0), 2405.0, 0.0, rng=rng)
    co = Radio(sim, medium, "co", (1.0, 0.0), 2405.0, 0.0, rng=rng)
    off = Radio(sim, medium, "off", (2.0, 0.0), 2410.0, 0.0, rng=rng)
    wifi = Dot11Radio(sim, medium, "wifi", (3.0, 0.0), 2410.0, 0.0, rng=rng)
    batch = medium._link_cache.fanout_batch(tx, 0.0, 2405.0)
    assert batch.radios == [co, off, wifi]
    assert batch.lockable == [True, False, True]
    assert batch.decode_gains == [
        radio._gains_for(2405.0)[0] for radio in (co, off, wifi)
    ]


def test_fading_buffer_growth_is_bit_identical_across_paths():
    """Adaptive refill growth (8 -> 32 -> 128 draws), with one link drawn
    several times per call, must replay the unbuffered scalar stream."""
    fading = LogNormalFading(sigma_db=4.0, clip_db=12.0)
    link = LinkDraws(RngStreams(11).stream("fading.a.b"))
    reference = RngStreams(11).stream("fading.a.b")
    drawn = []
    for round_index in range(60):
        drawn.extend(fading.sample_db_many([link] * (1 + round_index % 5)))
    # 180 draws cross both growth boundaries (8, then 32, then 128).
    expected = [fading.sample_db(reference) for _ in drawn]
    assert len(drawn) > 8 + 32 + 128
    assert drawn == expected


# ----------------------------------------------------------------------
# 4. One owner per link: batches share a link's draws
# ----------------------------------------------------------------------
_SOURCES = ("s0", "s1")
_LATE = ("late0", "late1", "late2")
_RECEIVERS = ("r0", "r1", "r2") + _LATE

_OPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("tx"),
            st.sampled_from(_SOURCES),
            st.sampled_from([0.0, -9.0]),  # tx power (dBm)
            st.sampled_from([2405.0, 2410.0]),  # channel (MHz)
        ),
        st.tuples(st.just("register")),
        st.tuples(st.just("invalidate")),
    ),
    min_size=1,
    max_size=40,
)


def _rss_run(losses, ops, seed, *, reference):
    """Replays ``ops`` on one medium and returns every delivered RSS.

    ``tx`` puts one frame on the air (sources transmit at two powers and
    on two channels, so each source has up to four batches over the
    same links), ``register`` adds the next late radio, ``invalidate``
    drops the link cache.  The RSS of each delivered signal is read from
    the receivers straight after the transmission starts.
    """
    sim = Simulator()
    rng = RngStreams(seed)
    matrix = FixedRssMatrix(default_loss_db=200.0)
    names = _SOURCES + _RECEIVERS
    positions = {name: (float(i), 0.0) for i, name in enumerate(names)}
    for (tx, rx), loss in losses.items():
        matrix.set_loss(positions[tx], positions[rx], loss)
    medium = Medium(
        sim,
        matrix,
        fading=LogNormalFading(sigma_db=4.0, clip_db=12.0),
        rng=rng,
        delivery_floor_dbm=-115.0,
        reference=reference,
    )
    radios = {
        name: Radio(sim, medium, name, positions[name], 2405.0, 0.0, rng=rng)
        for name in names
        if name not in _LATE
    }
    late = list(_LATE)
    observed = []
    for op in ops:
        if op[0] == "tx":
            _, name, power, channel = op
            medium.begin_transmission(
                radios[name], Frame(name, None, 20), channel, power,
                lambda t: None,
            )
            observed.append(
                sorted(
                    (radio.name, signal.rx_power_dbm)
                    for radio in medium.radios
                    for signal in radio.active_signals
                )
            )
            sim.run_until_idle()
        elif op[0] == "register" and late:
            name = late.pop(0)
            radios[name] = Radio(
                sim, medium, name, positions[name], 2405.0, 0.0, rng=rng
            )
        elif op[0] == "invalidate":
            medium.invalidate_link_cache()
    return observed


@given(
    losses=st.fixed_dictionaries(
        {
            (tx, rx): st.floats(min_value=40.0, max_value=140.0)
            for tx in _SOURCES
            for rx in _SOURCES + _RECEIVERS
            if tx != rx
        }
    ),
    ops=_OPS,
    seed=st.integers(min_value=0, max_value=10_000),
)
@example(
    # s1 -> r1 is culled at -9 dBm (-128 dBm mean + 12 dB clip < -115 dBm
    # floor) but audible at 0 dBm: neither path may draw for it while
    # culled, or its stream runs ahead on one of them.
    losses={
        (tx, rx): 119.0 if (tx, rx) == ("s1", "r1") else 40.0
        for tx in _SOURCES
        for rx in _SOURCES + _RECEIVERS
        if tx != rx
    },
    ops=[("tx", "s1", -9.0, 2405.0), ("tx", "s1", 0.0, 2405.0)],
    seed=913,
)
@settings(max_examples=60, deadline=None)
def test_links_shared_across_batches_replay_reference_draws(losses, ops, seed):
    """Each link's draws continue across every batch that holds it (two tx
    powers, two channels, rebuilds after late registrations and
    invalidations), so the fast path's RSS equals the reference path's,
    which draws each link's stream one value at a time — for every frame
    on which the link is not culled, on both paths."""
    fast = _rss_run(losses, ops, seed, reference=False)
    reference = _rss_run(losses, ops, seed, reference=True)
    assert fast == reference
