"""Human-readable metric summaries: per-node and per-channel tables.

The ``repro obs summary`` CLI renders one node table and one channel
table per recorder (one recorder per simulator the exhibit built) using
the same :class:`~repro.experiments.results.ResultTable` shape as the
paper exhibits, so output stays diff-friendly and plotting-free.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

from ..experiments.results import ResultTable
from .recorder import Observability

__all__ = ["node_table", "channel_table", "routing_table", "summary_tables",
           "events_summary"]


def _by_label(metrics, label: str) -> Dict[str, object]:
    """Index an iterable of labelled metrics by one label's value."""
    indexed: Dict[str, object] = {}
    for metric in metrics:
        value = dict(metric.labels).get(label)
        if value is not None:
            indexed[value] = metric
    return indexed


def _fmt_threshold(value: Optional[float]) -> Optional[float]:
    if value is None or not math.isfinite(value):
        return None
    return value


def node_table(recorder: Observability, title: str = "per-node metrics") -> ResultTable:
    """One row per registered MAC: traffic, medium access, adaptation."""
    table = ResultTable(title=title)
    backoffs = _by_label(recorder.registry.histograms("mac.backoff_s"), "node")
    airtimes = _by_label(recorder.registry.counters("node.tx.airtime_s"), "node")
    thresholds = _by_label(
        recorder.registry.series("adjustor.threshold_dbm"), "node"
    )
    duration = recorder.duration_s
    for mac in recorder.macs:
        name = mac.name
        stats = mac.stats
        backoff = backoffs.get(name)
        airtime = airtimes.get(name)
        airtime_s = airtime.value if airtime is not None else 0.0
        series = thresholds.get(name)
        threshold = None
        if series is not None and series.last() is not None:
            threshold = series.last()[1]
        else:
            threshold = mac.cca_policy.threshold_dbm()
        table.add_row(
            node=name,
            ch=recorder.node_channels.get(name),
            sent=stats.sent,
            delivered=stats.delivered,
            crc_fail=stats.crc_failures,
            cca_busy_pct=100.0 * stats.cca_busy_ratio,
            backoff_p50_ms=(backoff.p50 * 1e3
                            if backoff is not None and backoff.p50 is not None
                            else None),
            backoff_p95_ms=(backoff.p95 * 1e3
                            if backoff is not None and backoff.p95 is not None
                            else None),
            airtime_pct=(100.0 * airtime_s / duration if duration > 0 else 0.0),
            thresh_dbm=_fmt_threshold(threshold),
        )
    if recorder.spans.dropped:
        table.add_note(f"{recorder.spans.dropped} oldest spans dropped "
                       f"(log bounded at {recorder.spans.max_spans})")
    return table


def channel_table(recorder: Observability,
                  title: str = "per-channel metrics") -> ResultTable:
    """One row per centre frequency: frame count, airtime, utilization."""
    table = ResultTable(title=title)
    frames = _by_label(recorder.registry.counters("tx.frames"), "channel")
    airtimes = _by_label(recorder.registry.counters("tx.airtime_s"), "channel")
    duration = recorder.duration_s
    channels: List[Tuple[float, str]] = sorted(
        (float(key), key) for key in set(frames) | set(airtimes)
    )
    for _sort_key, key in channels:
        frame_counter = frames.get(key)
        airtime_counter = airtimes.get(key)
        airtime_s = airtime_counter.value if airtime_counter is not None else 0.0
        table.add_row(
            channel_mhz=float(key),
            frames=int(frame_counter.value) if frame_counter is not None else 0,
            airtime_s=airtime_s,
            utilization_pct=(100.0 * airtime_s / duration
                             if duration > 0 else 0.0),
        )
    nodes = sorted(
        name for name, _ in _iter_channel_nodes(recorder)
    )
    if nodes:
        table.add_note(f"window: {duration:.3f} s sim time, "
                       f"{len(nodes)} radios")
    return table


def _iter_channel_nodes(recorder: Observability):
    return recorder.node_channels.items()


def routing_table(recorder: Observability,
                  title: str = "routing metrics") -> Optional[ResultTable]:
    """One row per node that touched the routing layer.

    Returns ``None`` when the run recorded no routing metrics at all
    (non-routing exhibits keep their two-table summary unchanged).
    """
    created = _by_label(recorder.registry.counters("route.created"), "node")
    forwarded = _by_label(
        recorder.registry.counters("route.forwarded"), "node")
    delivered = _by_label(
        recorder.registry.counters("route.delivered"), "node")
    delays = _by_label(recorder.registry.histograms("route.delay_s"), "node")
    hops = _by_label(recorder.registry.histograms("route.hops"), "node")
    joins = _by_label(
        recorder.registry.counters("route.join_time_s"), "node")
    dropped: Dict[str, float] = {}
    for counter in recorder.registry.counters("route.dropped"):
        node = dict(counter.labels).get("node")
        if node is not None:
            dropped[node] = dropped.get(node, 0.0) + counter.value
    nodes = sorted(
        set(created) | set(forwarded) | set(delivered) | set(joins)
        | set(dropped)
    )
    if not nodes:
        return None
    table = ResultTable(title=title)
    for name in nodes:
        delay = delays.get(name)
        hop = hops.get(name)
        join = joins.get(name)
        table.add_row(
            node=name,
            created=int(created[name].value) if name in created else 0,
            fwd=int(forwarded[name].value) if name in forwarded else 0,
            delivered=int(delivered[name].value) if name in delivered else 0,
            dropped=int(dropped.get(name, 0)),
            delay_p50_ms=(delay.p50 * 1e3
                          if delay is not None and delay.p50 is not None
                          else None),
            delay_p95_ms=(delay.p95 * 1e3
                          if delay is not None and delay.p95 is not None
                          else None),
            hops_mean=(hop.mean if hop is not None and hop.count else None),
            join_s=(join.value if join is not None else None),
        )
    overall = next(
        (h for h in recorder.registry.histograms("route.join_time_s")
         if not h.labels), None)
    if overall is not None and overall.count:
        table.add_note(
            f"join time: mean {overall.mean:.3f} s, "
            f"max {overall.max:.3f} s over {overall.count} nodes"
        )
    return table


def events_summary(records: List[Dict[str, object]],
                   title: str = "server events summary") -> ResultTable:
    """Per-exhibit roll-up of a campaign server's events JSONL.

    ``records`` are the dicts the server's rotating ``/events`` sink
    writes (``kind == "event"``; job records carry ``event == "job"``).
    One row per exhibit: job count, successes, cache hits, and latency
    quantiles over the *executed* (non-cache) jobs — which makes
    ``repro obs summary <state_dir>/events.jsonl`` the post-hoc
    counterpart of the live ``repro obs top`` view.
    """
    per: Dict[str, Dict[str, List[float]]] = {}
    campaigns: set = set()
    for record in records:
        if record.get("kind") not in (None, "event"):
            continue
        if record.get("campaign") is not None:
            campaigns.add(record["campaign"])
        if record.get("event") != "job":
            continue
        exhibit = str(record.get("exhibit_id", "?"))
        bucket = per.setdefault(
            exhibit, {"ok": [], "cache": [], "elapsed": []})
        bucket["ok"].append(1.0 if record.get("ok") else 0.0)
        cached = bool(record.get("from_cache"))
        bucket["cache"].append(1.0 if cached else 0.0)
        if not cached:
            bucket["elapsed"].append(float(record.get("elapsed_s", 0.0)))
    table = ResultTable(title=title)
    for exhibit in sorted(per):
        bucket = per[exhibit]
        executed = sorted(bucket["elapsed"])

        def quantile(q: float) -> Optional[float]:
            if not executed:
                return None
            rank = -int(-q * len(executed) // 1)
            return executed[min(len(executed), max(1, rank)) - 1]

        table.add_row(
            exhibit=exhibit,
            jobs=len(bucket["ok"]),
            ok=int(sum(bucket["ok"])),
            cache_hits=int(sum(bucket["cache"])),
            executed=len(executed),
            p50_s=quantile(0.50),
            p95_s=quantile(0.95),
        )
    table.add_note(f"{len(records)} records, "
                   f"{len(campaigns)} campaign(s)")
    return table


def summary_tables(recorders: List[Observability],
                   exhibit: Optional[str] = None) -> List[ResultTable]:
    """Node + channel tables for every recorder of a session."""
    tables: List[ResultTable] = []
    multiple = len(recorders) > 1
    for recorder in recorders:
        suffix = f" — run {recorder.run_id}" if multiple else ""
        prefix = f"{exhibit}: " if exhibit else ""
        tables.append(node_table(
            recorder, title=f"{prefix}per-node metrics{suffix}"))
        tables.append(channel_table(
            recorder, title=f"{prefix}per-channel metrics{suffix}"))
        routing = routing_table(
            recorder, title=f"{prefix}routing metrics{suffix}")
        if routing is not None:
            tables.append(routing)
    return tables
