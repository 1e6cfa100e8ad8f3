"""Micro-benchmarks for the simulation substrate itself.

These are classic performance benchmarks (unlike the exhibit benches,
which wrap whole experiments): event-queue throughput, medium fan-out and
a saturated two-link simulation — the knobs that dominate experiment wall
time.
"""

from repro.mac.cca import FixedCcaThreshold
from repro.mac.mac import Mac
from repro.net.traffic import SaturatedSource
from repro.phy.fading import NoFading
from repro.phy.frame import Frame
from repro.phy.medium import Medium
from repro.phy.propagation import FixedRssMatrix
from repro.phy.radio import Radio
from repro.sim.rng import RngStreams
from repro.sim.simulator import Simulator


def test_event_queue_throughput(benchmark):
    """Schedule-and-run 50k self-rescheduling events."""

    def run():
        sim = Simulator()
        count = [0]

        def tick():
            count[0] += 1
            if count[0] < 50_000:
                sim.schedule(1e-5, tick)

        sim.schedule(0.0, tick)
        sim.run_until_idle()
        return count[0]

    assert benchmark(run) == 50_000


def test_medium_fanout(benchmark):
    """One transmitter fanning frames out to 30 receivers."""
    sim = Simulator()
    rng = RngStreams(1)
    medium = Medium(
        sim, FixedRssMatrix(default_loss_db=50.0), fading=NoFading(), rng=rng
    )
    tx = Radio(sim, medium, "tx", (0, 0), 2460.0, 0.0, rng=rng)
    receivers = [
        Radio(sim, medium, f"rx{i}", (1 + i, 0), 2460.0, 0.0, rng=rng)
        for i in range(30)
    ]

    def run():
        for _ in range(100):
            frame = Frame("tx", None, 60)
            tx.transmit(frame, lambda t: None)
            sim.run(sim.now + frame.airtime_s + 1e-6)
        return receivers[0].sim.now

    benchmark.pedantic(run, rounds=1, iterations=1)


def test_cca_probe_incremental(benchmark):
    """The O(1) sensing-path probe with 20 active signals."""
    from repro.perf.bench import _cca_rig

    rx = _cca_rig(n_signals=20)

    def run():
        acc = 0.0
        for _ in range(10_000):
            acc += rx.sensed_power_mw()
        return acc

    assert benchmark(run) > 0.0


def test_cca_probe_brute_force(benchmark):
    """The pre-optimisation full re-summation, for the speedup headline."""
    from repro.perf.bench import _cca_rig, brute_force_sensed_power_mw

    rx = _cca_rig(n_signals=20)

    def run():
        acc = 0.0
        for _ in range(10_000):
            acc += brute_force_sensed_power_mw(rx)
        return acc

    assert benchmark(run) > 0.0


def test_medium_fanout_with_culling(benchmark):
    """Fan-out over a mostly-inaudible population: the link cache culls
    270 of 300 receivers, so cost tracks the 30 audible ones."""
    sim = Simulator()
    rng = RngStreams(1)
    matrix = FixedRssMatrix(default_loss_db=160.0)  # default: far below floor
    for i in range(30):
        matrix.set_loss((0, 0), (1 + i, 0), 50.0)
    medium = Medium(sim, matrix, fading=NoFading(), rng=rng)
    tx = Radio(sim, medium, "tx", (0, 0), 2460.0, 0.0, rng=rng)
    for i in range(300):
        Radio(sim, medium, f"rx{i}", (1 + i, 0), 2460.0, 0.0, rng=rng)

    def run():
        for _ in range(100):
            frame = Frame("tx", None, 60)
            tx.transmit(frame, lambda t: None)
            sim.run(sim.now + frame.airtime_s + 1e-6)
        return sim.now

    benchmark.pedantic(run, rounds=1, iterations=1)


def test_event_cancel_churn(benchmark):
    """Push/cancel-90% batches: exercises lazy-cancellation compaction."""
    from repro.sim.events import EventQueue

    def run():
        queue = EventQueue()
        for batch in range(200):
            events = [queue.push(batch + i * 1e-6, lambda: None)
                      for i in range(100)]
            for event in events[10:]:
                queue.cancel(event)
        popped = 0
        while queue:
            queue.pop()
            popped += 1
        return popped

    assert benchmark(run) == 200 * 10


def test_saturated_two_link_simulation(benchmark):
    """One simulated second of two saturated CSMA links."""

    def run():
        sim = Simulator()
        rng = RngStreams(2)
        medium = Medium(
            sim, FixedRssMatrix(default_loss_db=50.0), fading=NoFading(), rng=rng
        )
        macs = {}
        for i, name in enumerate(("a.s", "a.r", "b.s", "b.r")):
            radio = Radio(sim, medium, name, (i, 0), 2460.0, 0.0, rng=rng)
            macs[name] = Mac(
                sim, radio, rng,
                cca_policy=FixedCcaThreshold(-77.0),
            )

        class _Shim:
            def __init__(self, mac):
                self.mac = mac
                self.name = mac.name
                self.sim = mac.sim

        SaturatedSource(_Shim(macs["a.s"]), "a.r").start()
        SaturatedSource(_Shim(macs["b.s"]), "b.r").start()
        sim.run(1.0)
        return macs["a.r"].stats.delivered + macs["b.r"].stats.delivered

    delivered = benchmark.pedantic(run, rounds=1, iterations=1)
    assert delivered > 100
