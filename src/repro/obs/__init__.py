"""``repro.obs`` — the observability subsystem.

Everything the other PR-era subsystems (campaign, perf, check) report
about *outcomes*, this package reports about *behaviour over time*:

- :mod:`repro.obs.metrics` — ``Counter``/``Gauge``/``Histogram``/
  ``TimeSeries`` in a labelled :class:`MetricsRegistry`;
- :mod:`repro.obs.spans` — completed tx/rx/backoff/CCA intervals;
- :mod:`repro.obs.recorder` — :class:`Observability`, the per-simulator
  recorder the model layers feed through ``sim.obs`` hooks;
- :mod:`repro.obs.sinks` — bounded memory buffer and streaming JSONL
  writer under a versioned schema, plus the run manifest;
- :mod:`repro.obs.runtime` — the ambient :class:`ObsSession` that lets
  ``repro obs ...`` instrument unmodified exhibits: every simulator
  built inside it gets a recorder, with or without a ``Deployment``;
- :mod:`repro.obs.timeline` — Chrome ``trace_event`` export (Perfetto);
- :mod:`repro.obs.summary` — per-node/per-channel metric tables;
- :mod:`repro.obs.exposition` — Prometheus text-format rendering of a
  registry (the campaign server's ``GET /metrics``) and worker-snapshot
  merging;
- :mod:`repro.obs.tracectx` — cross-process trace propagation
  (campaign → job → span) and the merged per-campaign Chrome trace;
- :mod:`repro.obs.top` — the live ANSI dashboard (``repro obs top``)
  over a running campaign server.

Enable per run with ``Deployment(obs=Observability())`` or ambiently::

    with ObsSession() as session:
        fig04.run(seed=1, fast=True)
    print(session.snapshot())

Disabled (the default) the instrumentation costs one ``is None`` test per
hook site, and enabling it never changes fixed-seed results.
"""

from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    TimeSeries,
    metric_key,
    registry_snapshot,
)
from .exposition import (
    merge_worker_snapshot,
    parse_prometheus,
    render_prometheus,
    validate_prometheus,
)
from .recorder import Observability
from .runtime import ObsSession
from .sinks import (
    SCHEMA_VERSION,
    JsonlSink,
    MemorySink,
    RotatingJsonlSink,
    Sink,
    read_jsonl,
    run_manifest,
)
from .spans import Span, SpanLog
from .summary import channel_table, node_table, summary_tables
from .timeline import trace_events, write_trace
from .tracectx import SpanRecorder, TraceContext, campaign_trace

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "TimeSeries",
    "MetricsRegistry",
    "metric_key",
    "registry_snapshot",
    "Span",
    "SpanLog",
    "Observability",
    "ObsSession",
    "SCHEMA_VERSION",
    "Sink",
    "MemorySink",
    "JsonlSink",
    "RotatingJsonlSink",
    "run_manifest",
    "read_jsonl",
    "trace_events",
    "write_trace",
    "node_table",
    "channel_table",
    "summary_tables",
    "render_prometheus",
    "parse_prometheus",
    "validate_prometheus",
    "merge_worker_snapshot",
    "TraceContext",
    "SpanRecorder",
    "campaign_trace",
]
