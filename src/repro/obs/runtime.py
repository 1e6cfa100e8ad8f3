"""The obs session: one telemetry recorder per simulator.

An :class:`ObsSession` is an ambient :class:`~repro.sim.session.Session`:
every :class:`~repro.sim.simulator.Simulator` built while it is active
— by a :class:`~repro.net.deployment.Deployment` or directly, like the
802.11b two-link rig — gets a fresh :class:`~repro.obs.recorder.
Observability` from the session when the caller passed no ``obs=``
recorder (one exhibit may build several rigs, e.g. one per CFD point).
Leaving the session finalizes the recorders; :meth:`ObsSession.snapshot`
aggregates them.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from ..sim.session import Session
from .metrics import metric_key as _metric_key
from .recorder import Observability
from .sinks import SCHEMA_VERSION, Sink

__all__ = ["ObsSession"]


def _quantile(ordered: List[float], q: float) -> float:
    rank = -int(-q * len(ordered) // 1)
    return ordered[min(len(ordered), max(1, rank)) - 1]


class ObsSession(Session):
    """One observed run: a recorder per simulator plus aggregation.

    Parameters
    ----------
    sample_interval_s:
        Gauge-sampler period handed to each recorder; ``None`` keeps only
        event-driven telemetry (the cheap profile campaign jobs use).
    sink:
        Optional shared :class:`~repro.obs.sinks.Sink`; recorders stream
        into it with distinct ``run`` ids, in construction order.
    """

    def __init__(
        self,
        sample_interval_s: Optional[float] = 0.01,
        sink: Optional[Sink] = None,
    ) -> None:
        self.sample_interval_s = sample_interval_s
        self.sink = sink
        #: Recorders of the simulators created inside the session, in
        #: construction order.
        self.recorders: List[Observability] = []

    # ------------------------------------------------------------------
    def make_observability(self) -> Observability:
        """Build and register the recorder for one simulator."""
        recorder = Observability(
            sample_interval_s=self.sample_interval_s,
            sink=self.sink,
            run_id=len(self.recorders),
        )
        self.recorders.append(recorder)
        return recorder

    def join(self, sim: Any) -> None:
        if sim.obs is None:
            sim.obs = self.make_observability()

    def close(self) -> None:
        for recorder in self.recorders:
            recorder.finalize()

    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """Aggregate the session's metrics into one JSON-safe dict.

        Counters sum across recorders; histogram samples are pooled so
        quantiles stay exact over the stored observations.  This is the
        shape the campaign executor rolls into the result cache.
        """
        counters: Dict[str, float] = {}
        pooled: Dict[str, List[float]] = {}
        stats: Dict[str, Dict[str, float]] = {}
        spans = 0
        sim_time = 0.0
        for recorder in self.recorders:
            spans += len(recorder.spans)
            sim_time += recorder.duration_s
            for counter in recorder.registry.counters():
                key = _metric_key(counter.name, counter.labels)
                counters[key] = counters.get(key, 0.0) + counter.value
            for hist in recorder.registry.histograms():
                key = _metric_key(hist.name, hist.labels)
                agg = stats.setdefault(
                    key, {"count": 0, "total": 0.0,
                          "min": float("inf"), "max": float("-inf")}
                )
                agg["count"] += hist.count
                agg["total"] += hist.total
                if hist.min is not None:
                    agg["min"] = min(agg["min"], hist.min)
                if hist.max is not None:
                    agg["max"] = max(agg["max"], hist.max)
                # Pool the stored samples across recorders: nearest-rank
                # quantiles cannot be merged from per-recorder quantiles.
                pooled.setdefault(key, []).extend(hist._samples)
        histograms: Dict[str, Dict[str, float]] = {}
        for key, agg in stats.items():
            count = agg["count"]
            summary: Dict[str, Any] = {
                "count": count,
                "mean": agg["total"] / count if count else 0.0,
                "min": agg["min"] if count else None,
                "max": agg["max"] if count else None,
            }
            samples = sorted(pooled.get(key, ()))
            if samples:
                summary["p50"] = _quantile(samples, 0.50)
                summary["p95"] = _quantile(samples, 0.95)
                summary["p99"] = _quantile(samples, 0.99)
            histograms[key] = summary
        return {
            "schema": SCHEMA_VERSION,
            "runs": len(self.recorders),
            "sim_time_s": sim_time,
            "spans": spans,
            "counters": counters,
            "histograms": histograms,
        }
