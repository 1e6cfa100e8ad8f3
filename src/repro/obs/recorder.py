"""The per-simulator telemetry recorder.

One :class:`Observability` instance serves one :class:`~repro.sim.
simulator.Simulator` (pass it as ``Simulator(obs=...)`` or
``Deployment(obs=...)``).  It owns

- a :class:`~repro.obs.metrics.MetricsRegistry` (counters, gauges,
  histograms, time series),
- a bounded :class:`~repro.obs.spans.SpanLog`, and
- an optional streaming :class:`~repro.obs.sinks.Sink`.

Model layers call the ``on_*`` hooks guarded by ``if sim.obs is not
None:`` — the disabled path costs one attribute load and an ``is None``
test per hook site, the same discipline as ``trace.enabled``.  obs is off
in every ``perfbench`` workload, so that cost sits inside every gated
timing; ``benchmarks/bench_obs.py`` measures the on/off ratio.
Nothing here draws randomness or perturbs event ordering beyond appending
sampler events to the queue, so enabling observability leaves fixed-seed
results byte-identical.

Gauge sampling runs as a periodic sim event (``sample_interval_s``); the
sampler re-arms itself only while other events remain pending, so
``run_until_idle`` still terminates.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Optional

from .metrics import MetricsRegistry
from .sinks import Sink
from .spans import Span, SpanLog

if TYPE_CHECKING:  # pragma: no cover
    from ..mac.mac import Mac
    from ..phy.radio import Radio
    from ..sim.simulator import Simulator

__all__ = ["Observability"]


class Observability:
    """Telemetry recorder for one simulator.

    Parameters
    ----------
    sample_interval_s:
        Period of the gauge sampler (sim seconds).  ``None`` disables
        periodic sampling — event-driven metrics and spans still record,
        which is the cheap profile campaign snapshots use.
    max_spans / max_points / max_hist_samples:
        Bounds of the in-memory stores (oldest entries dropped).
    sink:
        Optional streaming sink receiving every span/point as a record.
    run_id:
        Index of this recorder within an ambient session (one exhibit may
        build several deployments); becomes the ``pid`` of the exported
        timeline and the ``run`` field of sink records.
    """

    def __init__(
        self,
        sample_interval_s: Optional[float] = 0.01,
        max_spans: int = 200_000,
        max_points: int = 65_536,
        max_hist_samples: int = 100_000,
        sink: Optional[Sink] = None,
        run_id: int = 0,
    ) -> None:
        if sample_interval_s is not None and sample_interval_s <= 0:
            raise ValueError("sample_interval_s must be > 0 (or None)")
        self.sample_interval_s = sample_interval_s
        self.registry = MetricsRegistry(
            max_points=max_points, max_hist_samples=max_hist_samples
        )
        self.spans = SpanLog(max_spans=max_spans)
        self.sink = sink
        self.run_id = run_id
        self.sim: Optional["Simulator"] = None
        self.start_time = 0.0
        self.end_time: Optional[float] = None
        self.macs: List["Mac"] = []
        #: node name -> centre frequency (MHz), from radio registration.
        self.node_channels: Dict[str, float] = {}
        self.samples_taken = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def bind(self, sim: "Simulator") -> None:
        """Attach to a simulator (called by ``Simulator.__init__``)."""
        if self.sim is not None:
            raise ValueError(
                "an Observability instance serves exactly one simulator; "
                "create one per run (ObsSession does this automatically)"
            )
        self.sim = sim
        self.start_time = sim.now
        # Scheduler health gauges: live (non-cancelled) events and the
        # cumulative compaction count, both from EventQueue bookkeeping.
        queue = sim.event_queue
        self.registry.gauge("event_queue.live",
                            lambda q=queue: float(q.live))
        self.registry.gauge("event_queue.compactions",
                            lambda q=queue: float(q.compactions))
        if self.sample_interval_s is not None:
            sim.schedule(self.sample_interval_s, self._tick, tag="obs.sample")

    def _tick(self) -> None:
        sim = self.sim
        assert sim is not None
        for series, value in self.registry.sample_gauges(sim.now):
            if self.sink is not None:
                self._emit_point(series.name, dict(series.labels),
                                 sim.now, value)
        self.samples_taken += 1
        # Re-arm only while the model still has work: a sampler that kept
        # itself alive unconditionally would make run_until_idle spin
        # forever.
        if sim.pending_events:
            sim.schedule(self.sample_interval_s, self._tick, tag="obs.sample")

    def finalize(self) -> None:
        """Freeze the observation window and flush counters to the sink."""
        if self.sim is not None:
            self.end_time = self.sim.now
        if self.sink is not None:
            for counter in self.registry.counters():
                self.sink.emit({
                    "kind": "counter",
                    "run": self.run_id,
                    "name": counter.name,
                    "labels": dict(counter.labels),
                    "v": counter.value,
                })

    @property
    def duration_s(self) -> float:
        """Observed sim-time window (bind to finalize, or to now)."""
        if self.end_time is not None:
            return self.end_time - self.start_time
        if self.sim is not None:
            return self.sim.now - self.start_time
        return 0.0

    # ------------------------------------------------------------------
    # Registration (model construction time — never hot)
    # ------------------------------------------------------------------
    def register_mac(self, mac: "Mac") -> None:
        self.macs.append(mac)
        self.registry.gauge(
            "queue_depth", lambda m=mac: float(m.queue_length), node=mac.name
        )
        self.registry.gauge(
            "cca_threshold_dbm",
            lambda m=mac: m.cca_policy.threshold_dbm(),
            node=mac.name,
        )

    def register_radio(self, radio: "Radio") -> None:
        self.node_channels[radio.name] = radio.channel_mhz

    # ------------------------------------------------------------------
    # Event-driven hooks (hot when enabled; call sites guard on None)
    # ------------------------------------------------------------------
    def span(self, kind: str, node: str, start: float, end: float,
             **args: Any) -> None:
        self.spans.record(Span(kind, node, start, end, args or None))
        if self.sink is not None:
            record = {"kind": "span", "run": self.run_id, "span": kind,
                      "node": node, "t0": start, "t1": end}
            if args:
                record["args"] = args
            self.sink.emit(record)

    def on_transmission(self, source: str, channel_mhz: float,
                        airtime_s: float) -> None:
        """Medium fan-out hook: per-channel and per-node airtime fill."""
        registry = self.registry
        registry.counter("tx.frames", channel=channel_mhz).inc()
        registry.counter("tx.airtime_s", channel=channel_mhz).inc(airtime_s)
        registry.counter("node.tx.frames", node=source).inc()
        registry.counter("node.tx.airtime_s", node=source).inc(airtime_s)

    def on_cca(self, node: str, backoff_start: float, backoff_s: float,
               cca_s: float, busy: bool) -> None:
        """CSMA hook: one completed backoff + CCA measurement window."""
        cca_start = backoff_start + backoff_s
        self.span("backoff", node, backoff_start, cca_start)
        self.span("cca", node, cca_start, cca_start + cca_s, busy=busy)
        self.registry.histogram("mac.backoff_s", node=node).observe(backoff_s)
        self.registry.counter(
            "mac.cca_busy" if busy else "mac.cca_idle", node=node
        ).inc()

    def on_tx(self, node: str, start: float, end: float,
              frame_id: int) -> None:
        self.span("tx", node, start, end, frame=frame_id)

    def on_rx(self, node: str, start: float, end: float, frame_id: int,
              crc_ok: bool, rssi_dbm: float) -> None:
        self.span("rx", node, start, end, frame=frame_id, crc=crc_ok)
        self.registry.histogram("rx.rssi_dbm", node=node).observe(rssi_dbm)

    def on_rx_abort(self, node: str, start: float, end: float) -> None:
        self.span("rx", node, start, end, aborted=True)

    def on_threshold(self, node: str, value_dbm: float) -> None:
        """Adjustor hook: exact CCA-threshold trajectory (event-driven,
        distinct from the sampled ``cca_threshold_dbm`` gauge series)."""
        now = self.sim.now if self.sim is not None else 0.0
        self.registry.timeseries(
            "adjustor.threshold_dbm", node=node
        ).append(now, value_dbm)
        if self.sink is not None:
            self._emit_point("adjustor.threshold_dbm", {"node": node},
                             now, value_dbm)

    # ------------------------------------------------------------------
    # Routing hooks (repro.net.routing; same guard discipline)
    # ------------------------------------------------------------------
    def on_route_created(self, node: str) -> None:
        self.registry.counter("route.created", node=node).inc()

    def on_route_forwarded(self, node: str) -> None:
        self.registry.counter("route.forwarded", node=node).inc()

    def on_route_dropped(self, node: str, reason: str) -> None:
        self.registry.counter("route.dropped", node=node, reason=reason).inc()

    def on_route_delivered(self, origin: str, sink: str, created_s: float,
                           now: float, hops: int) -> None:
        """One report arrived at its final destination: a ``route`` span
        covering the whole creation-to-delivery interval, plus delay and
        hop-count distributions keyed by the delivering sink."""
        registry = self.registry
        registry.counter("route.delivered", node=sink).inc()
        registry.histogram("route.delay_s", node=sink).observe(now - created_s)
        registry.histogram("route.hops", node=sink).observe(float(hops))
        self.span("route", sink, created_s, now, origin=origin, hops=hops)

    def on_route_joined(self, node: str, join_time_s: float, parent: str,
                        hop_count: int) -> None:
        """First successful tree join of ``node``: a ``join`` span from
        the observation start to the join instant (the join-time metric),
        plus the network-wide join-time distribution."""
        self.registry.counter("route.join_time_s", node=node).inc(join_time_s)
        self.registry.histogram("route.join_time_s").observe(join_time_s)
        self.span("join", node, self.start_time, join_time_s,
                  parent=parent, hop=hop_count)

    # ------------------------------------------------------------------
    def _emit_point(self, name: str, labels: Dict[str, str], time: float,
                    value: float) -> None:
        assert self.sink is not None
        self.sink.emit({"kind": "point", "run": self.run_id, "name": name,
                        "labels": labels, "t": time, "v": value})
