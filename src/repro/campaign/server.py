"""Campaign-as-a-service: a long-running asyncio experiment server.

Promotes :func:`repro.campaign.executor.run_campaign` from a one-shot
batch call into a service: clients submit campaigns over HTTP/JSON, a
shared worker pool executes the jobs through the *same* worker
entrypoint (:func:`repro.campaign.executor.execute_payload`), results
land in the shared content-addressed cache, and progress streams back as
NDJSON.  Everything is stdlib — ``asyncio`` + a deliberately small
HTTP/1.1 front end — so the server runs wherever the repro does.

Endpoints
---------
- ``POST /campaigns`` — submit ``{"ids": [...], "seeds": [...],
  "fast": true, "params": {...}, "timeout_s": ..., "retries": ...,
  "obs": false}``; returns ``{"id": ..., "state": "queued", ...}``.
- ``GET /campaigns`` — summaries of every known campaign.
- ``GET /campaigns/<id>`` — state, counters and (when done) the result:
  per-job ``ResultTable`` JSON strings **byte-identical** to a one-shot
  ``repro campaign run`` of the same specs, plus aggregated tables.
- ``GET /campaigns/<id>/events`` — NDJSON progress stream (replays the
  retained history, then live events until the campaign finishes).
- ``GET /metrics`` — Prometheus text exposition of the server-lifetime
  registry: cache hit/miss/eviction, queue depth, jobs
  in-flight/completed/failed, per-exhibit wall-time summaries,
  coalescing counters, and ``worker_*`` series merged from the obs
  snapshots worker processes ship home on ``JobOutcome.metrics``.
- ``GET /campaigns/<id>/trace`` — the merged Chrome ``trace_event``
  timeline of one campaign: server-side spans (submit, cache-probe,
  queue-wait, execute) as a parent track, worker wall + sim spans below
  (see :mod:`repro.obs.tracectx`; ``repro obs timeline --campaign``).
- ``GET /debug/profile`` — the :class:`~repro.perf.profiler.
  FlightRecorder` ring: periodic CPU/RSS/GC snapshots of the server
  process.
- ``GET /healthz``, ``GET /`` — liveness and server info.
- ``POST /shutdown`` — graceful drain: stop accepting, finish
  outstanding campaigns, then exit.

Every ``/events`` record is additionally fanned out into a rotating
JSONL sink (``<state_dir>/events.jsonl``), so ``repro obs summary`` can
post-process a server run after the fact.

Crash safety
------------
Submissions are journalled to a sharded JSONL queue
(:class:`repro.campaign.queue.CampaignQueue`) before the client sees an
id; job completions are journalled *after* their table enters the shared
cache.  A killed server therefore restarts, replays the journal,
re-admits every campaign that never reached ``done`` and serves the
already-finished jobs from cache — the aggregate result is identical to
an uninterrupted run.

Determinism
-----------
A job executes as the same pure payload dict whether it arrived through
``run_campaign`` or over HTTP, in a pool process whose only input is the
spec — so a submitted campaign's tables are byte-identical to the
one-shot CLI, and identical campaigns submitted concurrently coalesce
onto one execution (single-flight) without changing anyone's bytes.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import multiprocessing
import threading
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from ..obs.exposition import merge_worker_snapshot, render_prometheus
from ..obs.metrics import MetricsRegistry
from ..obs.sinks import RotatingJsonlSink, run_manifest
from ..obs.tracectx import SpanRecorder, campaign_trace
from ..perf.profiler import FlightRecorder
from .cache import DEFAULT_CACHE_DIR, ResultCache
from .executor import CampaignResult, JobOutcome, Runner, execute_payload
from .jobs import JobSpec, expand_jobs
from .progress import CampaignStats
from .queue import CampaignQueue

__all__ = ["CampaignServer", "ServerConfig", "DEFAULT_PORT",
           "DEFAULT_STATE_DIR"]

DEFAULT_PORT = 8642
DEFAULT_STATE_DIR = ".repro-server"

#: Events retained per campaign for late ``/events`` subscribers.
_MAX_EVENTS = 10_000


@dataclass(frozen=True)
class ServerConfig:
    """Static configuration of one :class:`CampaignServer`."""

    host: str = "127.0.0.1"
    port: int = DEFAULT_PORT
    state_dir: str = DEFAULT_STATE_DIR
    cache_dir: Optional[str] = None  # None -> shared DEFAULT_CACHE_DIR
    #: Worker processes; ``0`` runs jobs on asyncio's thread pool instead
    #: (no process isolation and no SIGALRM timeouts — the executor's
    #: non-main-thread fallback applies; used by tests and tiny setups).
    jobs: int = 2
    retries: int = 2
    backoff_s: float = 0.5
    timeout_s: Optional[float] = None
    cache_max_bytes: Optional[int] = None
    queue_shards: int = 4
    #: Rotation budget of the server-side ``/events`` JSONL sink
    #: (``<state_dir>/events.jsonl``): active-file size and backup count.
    events_max_bytes: int = 4 * 2 ** 20
    events_backups: int = 4
    #: Flight-recorder sampling period (``GET /debug/profile``).
    profile_interval_s: float = 5.0
    #: Per-job cap on sim spans exported into the campaign trace.
    trace_sim_spans: int = 4000


@dataclass
class _Campaign:
    """Live server-side state of one submitted campaign."""

    campaign_id: str
    payload: Dict[str, Any]
    specs: List[JobSpec]
    state: str = "queued"  # queued | running | done
    submitted_at: float = field(default_factory=time.time)
    resumed: bool = False
    stats: CampaignStats = field(default_factory=CampaignStats)
    outcomes: Dict[Tuple[str, int], JobOutcome] = field(default_factory=dict)
    events: List[Dict[str, Any]] = field(default_factory=list)
    result: Optional[Dict[str, Any]] = None
    changed: Optional[asyncio.Condition] = None  # created on the loop
    #: Server-side wall spans (submit / cache_probe / queue_wait /
    #: execute) — the parent track of the merged campaign trace.
    trace: SpanRecorder = field(default_factory=SpanRecorder)
    #: Per-job worker trace exports, keyed by ``JobSpec.label``.
    job_traces: Dict[str, Dict[str, Any]] = field(default_factory=dict)

    def summary(self) -> Dict[str, Any]:
        return {
            "id": self.campaign_id,
            "state": self.state,
            "resumed": self.resumed,
            "submitted_at": self.submitted_at,
            "total": self.stats.total,
            "done": self.stats.done,
            "completed": self.stats.completed,
            "failed": self.stats.failed,
            "cache_hits": self.stats.cache_hits,
            "cache_misses": self.stats.cache_misses,
            "retries": self.stats.retries,
            "elapsed_s": round(self.stats.elapsed_s(), 6),
        }


def _campaign_digest(payload: Dict[str, Any]) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:8]


class CampaignServer:
    """The long-running experiment server (one instance, one loop)."""

    def __init__(self, config: ServerConfig = ServerConfig(), *,
                 runner: Optional[Runner] = None,
                 known_ids: Optional[List[str]] = None) -> None:
        self.config = config
        self.runner = runner  # injectable for tests; must be picklable
        self._known_ids = known_ids
        self.metrics = MetricsRegistry()
        self.cache = ResultCache(
            config.cache_dir or DEFAULT_CACHE_DIR,
            max_bytes=config.cache_max_bytes,
            metrics=self.metrics,
        )
        self.queue = CampaignQueue(
            Path(config.state_dir) / "queue", shards=config.queue_shards
        )
        self.started_at = time.time()
        #: Server-lifetime ``/events`` fan-out (rotating, manifest-led).
        self.events_sink = RotatingJsonlSink(
            Path(config.state_dir) / "events.jsonl",
            max_bytes=config.events_max_bytes,
            backups=config.events_backups,
            manifest=run_manifest(role="campaign-server"),
        )
        self.jobs_in_flight = 0
        self.flight = FlightRecorder(
            interval_s=config.profile_interval_s,
            sample_fn=lambda: {
                "jobs_in_flight": self.jobs_in_flight,
                "campaigns": len(self._campaigns),
            },
        )
        # Pre-register the headline counters so /metrics exposes every
        # key series from the first scrape (at 0), not only after its
        # first increment — dashboards and the CI assertions key on the
        # names being present.
        for name in (
            "server.campaigns.submitted", "server.campaigns.completed",
            "server.jobs.completed", "server.jobs.failed",
            "server.jobs.retried", "server.jobs.coalesced",
            "server.events.sink_errors",
            "campaign.cache.hits", "campaign.cache.misses",
            "campaign.cache.puts", "campaign.cache.evictions",
        ):
            self.metrics.counter(name)
        # Live service gauges: registered once, read at scrape time.
        self.metrics.gauge("server.jobs.in_flight",
                           lambda: float(self.jobs_in_flight))
        self.metrics.gauge("server.uptime_s",
                           lambda: time.time() - self.started_at)
        self.metrics.gauge(
            "server.campaigns.running",
            lambda: float(sum(1 for c in self._campaigns.values()
                              if c.state == "running")),
        )
        self.metrics.gauge(
            "server.queue.depth",
            lambda: float(sum(max(0, c.stats.total - c.stats.done)
                              for c in self._campaigns.values()
                              if c.state != "done")),
        )
        self.port: Optional[int] = None  # actual bound port once ready
        self.ready = threading.Event()
        #: Optional callback invoked with the server once it is bound
        #: (the CLI prints the listening banner through this).
        self.announce = None
        self._campaigns: Dict[str, _Campaign] = {}
        self._tasks: Dict[str, asyncio.Task] = {}
        self._inflight: Dict[str, asyncio.Future] = {}
        self._seq = 0
        self._draining = False
        self._stopped: Optional[asyncio.Event] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._pool: Optional[ProcessPoolExecutor] = None
        self._server: Optional[asyncio.base_events.Server] = None

    # ------------------------------------------------------------------
    # Lifecycle.

    def run(self) -> None:
        """Blocking entry point: start, serve until drained, clean up."""
        asyncio.run(self._main())

    async def _main(self) -> None:
        await self.start()
        assert self._stopped is not None
        try:
            await self._stopped.wait()
        finally:
            await self._close()

    async def start(self) -> None:
        """Bind, recover the journal, and begin accepting submissions."""
        self._loop = asyncio.get_running_loop()
        self._stopped = asyncio.Event()
        if self.config.jobs > 0:
            # Spawned (not forked) workers: a forked pool child would
            # inherit the listening socket, and after a SIGKILL of the
            # server the orphaned workers would keep the port bound —
            # the restarted server could never come back up.
            self._pool = ProcessPoolExecutor(
                max_workers=self.config.jobs,
                mp_context=multiprocessing.get_context("spawn"),
            )
        self._server = await asyncio.start_server(
            self._handle_client, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        try:
            import signal as _signal

            for signum in (_signal.SIGINT, _signal.SIGTERM):
                self._loop.add_signal_handler(signum, self.request_shutdown)
        except (NotImplementedError, RuntimeError, ValueError):
            pass  # non-main-thread loop (tests) or platform without signals
        # Re-admit campaigns the previous process never finished.  Their
        # completed jobs are in the shared cache, so the re-run serves
        # them as hits and only the interrupted tail is recomputed.
        for queued in self.queue.recover():
            try:
                self._admit(queued.campaign_id, queued.payload,
                            journal=False, resumed=True)
            except Exception:
                # A journalled payload that no longer expands (exhibit
                # renamed, corrupted record) must not block the server.
                self._count("server.campaigns.recovery_failed")
                continue
            self._count("server.campaigns.recovered")
        self.flight.start()
        self.ready.set()
        if self.announce is not None:
            self.announce(self)

    def request_shutdown(self) -> None:
        """Thread-safe graceful-drain trigger (signal handlers, tests)."""
        if self._loop is None:
            return
        try:
            self._loop.call_soon_threadsafe(
                lambda: self._loop and
                self._loop.create_task(self.shutdown())
            )
        except RuntimeError:
            pass  # loop already closed: the server is gone, nothing to do

    async def shutdown(self) -> None:
        """Drain: refuse new work, finish outstanding campaigns, stop."""
        if self._draining:
            return
        self._draining = True
        outstanding = [t for t in self._tasks.values() if not t.done()]
        if outstanding:
            await asyncio.wait(outstanding)
        if self._stopped is not None:
            self._stopped.set()

    async def _close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._pool is not None:
            self._pool.shutdown(wait=True)
        self.flight.stop()
        self.events_sink.close()
        self.ready.clear()

    def _count(self, name: str, amount: float = 1.0) -> None:
        self.metrics.counter(name).inc(amount)

    # ------------------------------------------------------------------
    # Campaign admission and execution.

    def _registry_ids(self) -> List[str]:
        if self._known_ids is not None:
            return list(self._known_ids)
        from ..experiments.registry import REGISTRY

        return list(REGISTRY)

    def _expand(self, payload: Dict[str, Any]) -> List[JobSpec]:
        ids = payload.get("ids")
        if ids is not None and (
            not isinstance(ids, list)
            or not all(isinstance(i, str) for i in ids)
        ):
            raise ValueError("'ids' must be a list of exhibit id strings")
        seeds = payload.get("seeds", [1])
        if (not isinstance(seeds, list) or not seeds
                or not all(isinstance(s, int) for s in seeds)):
            raise ValueError("'seeds' must be a non-empty list of ints")
        params = payload.get("params")
        if params is not None and not isinstance(params, dict):
            raise ValueError("'params' must be an object")
        return expand_jobs(ids, seeds, bool(payload.get("fast", True)),
                           self._registry_ids(), params)

    def _admit(self, campaign_id: Optional[str], payload: Dict[str, Any],
               *, journal: bool = True, resumed: bool = False) -> _Campaign:
        """Validate, journal and schedule one campaign (loop thread)."""
        specs = self._expand(payload)
        if campaign_id is None:
            self._seq += 1
            campaign_id = f"c{self._seq:04d}-{_campaign_digest(payload)}"
        else:
            # Recovered ids look like c0007-...: keep the sequence ahead
            # of them so new ids never collide.
            try:
                self._seq = max(self._seq, int(campaign_id[1:5]))
            except ValueError:
                pass
        rec = _Campaign(campaign_id, payload, specs, resumed=resumed)
        rec.stats.total = len(specs)
        rec.changed = asyncio.Condition()
        self._campaigns[campaign_id] = rec
        if journal:
            self.queue.record_submit(campaign_id, payload)
        self._count("server.campaigns.submitted")
        rec.trace.add("submit", rec.submitted_at, time.time())
        self._emit(rec, {"event": "submitted", "id": campaign_id,
                         "jobs": len(specs), "resumed": resumed})
        self._tasks[campaign_id] = asyncio.get_running_loop().create_task(
            self._run_campaign(rec)
        )
        return rec

    def _emit(self, rec: _Campaign, event: Dict[str, Any]) -> None:
        event.setdefault("ts", round(time.time(), 3))
        event["seq"] = len(rec.events)
        if len(rec.events) < _MAX_EVENTS:
            rec.events.append(event)
        try:
            self.events_sink.emit(
                {"kind": "event", "campaign": rec.campaign_id, **event})
        except Exception:
            # Telemetry fan-out must never fail a campaign: a full disk
            # or closed sink only bumps a counter the scrape can see.
            self._count("server.events.sink_errors")
        assert rec.changed is not None

        async def _notify() -> None:
            async with rec.changed:  # type: ignore[union-attr]
                rec.changed.notify_all()  # type: ignore[union-attr]

        asyncio.get_running_loop().create_task(_notify())

    async def _run_campaign(self, rec: _Campaign) -> None:
        rec.state = "running"
        self._emit(rec, {"event": "started", "id": rec.campaign_id})
        # The pool already bounds the processes actually computing; the
        # semaphore only bounds how much work one campaign parks in the
        # pool's queue at a time, so concurrent campaigns interleave.
        width = max(1, self.config.jobs or 4)
        semaphore = asyncio.Semaphore(width)

        async def one(spec: JobSpec) -> None:
            enqueued = time.time()
            async with semaphore:
                acquired = time.time()
                rec.trace.add("queue_wait", enqueued, acquired,
                              job=spec.label)
                self.metrics.histogram(
                    "server.job.queue_wait_s", exhibit=spec.exhibit_id
                ).observe(acquired - enqueued)
                outcome = await self._execute_spec(rec, spec)
            if not outcome.from_cache:
                # Cache hits are ~free and would drown the signal; the
                # per-exhibit latency summary tracks real executions.
                self.metrics.histogram(
                    "server.job.elapsed_s", exhibit=spec.exhibit_id
                ).observe(outcome.elapsed_s)
            rec.outcomes[spec.key] = outcome
            rec.stats.record(spec.key, outcome.elapsed_s, ok=outcome.ok,
                             from_cache=outcome.from_cache,
                             retries=max(0, outcome.attempts - 1))
            self.queue.record_job(
                rec.campaign_id, spec.exhibit_id, spec.seed,
                ok=outcome.ok, from_cache=outcome.from_cache,
                elapsed_s=outcome.elapsed_s,
            )
            self._count("server.jobs.completed" if outcome.ok
                        else "server.jobs.failed")
            event: Dict[str, Any] = {
                "event": "job", "id": rec.campaign_id,
                "exhibit_id": spec.exhibit_id, "seed": spec.seed,
                "ok": outcome.ok, "from_cache": outcome.from_cache,
                "elapsed_s": round(outcome.elapsed_s, 6),
                "done": rec.stats.done, "total": rec.stats.total,
            }
            if outcome.error:
                event["error"] = outcome.error.strip().splitlines()[-1]
            self._emit(rec, event)

        await asyncio.gather(*(one(spec) for spec in rec.specs))
        rec.result = self._build_result(rec)
        rec.state = "done"
        self.queue.record_done(rec.campaign_id)
        self._count("server.campaigns.completed")
        self._emit(rec, {
            "event": "done", "id": rec.campaign_id,
            "ok": rec.stats.failed == 0,
            "completed": rec.stats.completed, "failed": rec.stats.failed,
            "cache_hits": rec.stats.cache_hits,
            "elapsed_s": round(rec.stats.elapsed_s(), 6),
        })

    def _build_result(self, rec: _Campaign) -> Dict[str, Any]:
        """Fold outcomes into the response payload, in spec order.

        The per-job ``ResultTable`` JSON strings are produced by the same
        ``to_json`` used by ``repro campaign run`` and the determinism
        oracle, so a client can byte-compare them against a one-shot run.
        """
        result = CampaignResult(stats=rec.stats)
        for spec in rec.specs:
            result.outcomes[spec.key] = rec.outcomes[spec.key]
        tables = {
            spec.label: outcome.table.to_json()
            for spec in rec.specs
            for outcome in (rec.outcomes[spec.key],)
            if outcome.table is not None
        }
        aggregated = {
            eid: table.to_json()
            for eid, table in result.aggregated().items()
        }
        failures = [
            {"spec": str(o.spec), "attempts": o.attempts, "error": o.error}
            for o in result.failures()
        ]
        return {"tables": tables, "aggregated": aggregated,
                "failures": failures}

    async def _execute_spec(self, rec: _Campaign,
                            spec: JobSpec) -> JobOutcome:
        """One job: cache, single-flight coalescing, retries, pool."""
        with rec.trace.span("cache_probe", job=spec.label):
            entry = self.cache.get(spec)
        if entry is not None:
            return JobOutcome(spec, entry.table, None, attempts=0,
                              elapsed_s=entry.elapsed_s, from_cache=True,
                              metrics=entry.metrics)
        key = spec.cache_key(self.cache.version)
        while (leader := self._inflight.get(key)) is not None:
            # An identical job (same exhibit/seed/profile/params/version)
            # is already computing — likely the same campaign submitted
            # by a second client.  Wait for the leader, then take the
            # result from the shared cache instead of recomputing.
            self._count("server.jobs.coalesced")
            await asyncio.shield(leader)
            entry = self.cache.get(spec)
            if entry is not None:
                return JobOutcome(spec, entry.table, None, attempts=0,
                                  elapsed_s=entry.elapsed_s,
                                  from_cache=True, metrics=entry.metrics)
            # Leader failed (or the entry was evicted): try to lead.
        assert self._loop is not None
        future = self._loop.create_future()
        self._inflight[key] = future
        try:
            attempts = 0
            elapsed = 0.0
            while True:
                attempts += 1
                raw = await self._dispatch(rec, spec)
                elapsed += raw["elapsed_s"]
                if raw.get("trace"):
                    rec.job_traces[spec.label] = raw["trace"]
                if raw["ok"]:
                    table_dict = raw["table"]
                    from ..experiments.results import ResultTable

                    table = ResultTable.from_dict(table_dict)
                    metrics = raw.get("metrics")
                    if metrics:
                        # Fresh execution only (cache hits replay stored
                        # snapshots and would double-count): fold the
                        # worker's obs totals into worker.* series.
                        merge_worker_snapshot(self.metrics, metrics)
                    self.cache.put(spec, table, raw["elapsed_s"],
                                   metrics=metrics)
                    return JobOutcome(spec, table, None, attempts, elapsed,
                                      metrics=metrics)
                if attempts > self.config.retries:
                    return JobOutcome(spec, None, raw["error"], attempts,
                                      elapsed)
                self._count("server.jobs.retried")
                await asyncio.sleep(
                    self.config.backoff_s * (2 ** (attempts - 1))
                )
        finally:
            self._inflight.pop(key, None)
            future.set_result(None)

    async def _dispatch(self, rec: _Campaign,
                        spec: JobSpec) -> Dict[str, Any]:
        """Ship one payload to the worker pool (or the thread fallback).

        The payload carries the job's :class:`TraceContext` so the worker
        stamps its spans with the campaign/job identity, and ``obs`` when
        the submission asked for it — in which case the worker's metric
        snapshot rides back on the result for the ``worker.*`` merge.
        """
        payload: Dict[str, Any] = {
            "spec": spec.to_dict(), "timeout_s": self.config.timeout_s,
            "trace": {"campaign": rec.campaign_id, "job": spec.label},
            "trace_sim_spans": self.config.trace_sim_spans,
        }
        if rec.payload.get("obs"):
            payload["obs"] = True
        assert self._loop is not None
        self.jobs_in_flight += 1
        t0 = time.time()
        try:
            return await self._loop.run_in_executor(
                self._pool, execute_payload, payload, self.runner
            )
        except Exception:  # broken pool / unpicklable runner
            return {"ok": False, "error": traceback.format_exc(limit=4),
                    "elapsed_s": 0.0}
        finally:
            self.jobs_in_flight -= 1
            rec.trace.add("execute", t0, time.time(), job=spec.label)

    # ------------------------------------------------------------------
    # HTTP front end.

    async def _handle_client(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        try:
            request = await asyncio.wait_for(reader.readline(), timeout=30)
            parts = request.decode("latin-1").split()
            if len(parts) < 2:
                return
            method, target = parts[0].upper(), parts[1]
            headers: Dict[str, str] = {}
            while True:
                line = await asyncio.wait_for(reader.readline(), timeout=30)
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _, value = line.decode("latin-1").partition(":")
                headers[name.strip().lower()] = value.strip()
            length = int(headers.get("content-length", "0") or 0)
            body = await reader.readexactly(length) if length else b""
            await self._route(method, target, body, writer)
        except (asyncio.IncompleteReadError, asyncio.TimeoutError,
                ConnectionError):
            pass
        except Exception:
            try:
                self._respond(writer, 500, {
                    "error": traceback.format_exc(limit=4)
                })
            except Exception:
                pass
        finally:
            try:
                if not writer.is_closing():
                    await writer.drain()
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, RuntimeError):
                pass

    async def _route(self, method: str, target: str, body: bytes,
                     writer: asyncio.StreamWriter) -> None:
        path = target.split("?", 1)[0].rstrip("/") or "/"
        if method == "GET" and path in ("/", "/healthz"):
            self._respond(writer, 200, self.info())
        elif method == "POST" and path == "/campaigns":
            await self._post_campaign(body, writer)
        elif method == "GET" and path == "/campaigns":
            self._respond(writer, 200, {
                "campaigns": [c.summary()
                              for c in self._campaigns.values()],
            })
        elif method == "GET" and path == "/metrics":
            self._respond_text(writer, 200, render_prometheus(self.metrics))
        elif method == "GET" and path == "/debug/profile":
            self._respond(writer, 200, self.flight.report())
        elif method == "POST" and path == "/shutdown":
            outstanding = sum(
                1 for c in self._campaigns.values() if c.state != "done"
            )
            self._respond(writer, 202, {
                "state": "draining", "outstanding": outstanding,
            })
            assert self._loop is not None
            self._loop.create_task(self.shutdown())
        elif path.startswith("/campaigns/"):
            rest = path[len("/campaigns/"):]
            if method == "GET" and rest.endswith("/events"):
                await self._stream_events(rest[: -len("/events")].rstrip("/"),
                                          writer)
            elif method == "GET" and rest.endswith("/trace"):
                cid = rest[: -len("/trace")].rstrip("/")
                rec = self._campaigns.get(cid)
                if rec is None:
                    self._respond(writer, 404,
                                  {"error": f"unknown campaign {cid!r}"})
                else:
                    self._respond(writer, 200, campaign_trace(
                        rec.campaign_id, rec.trace.spans, rec.job_traces,
                        metadata={"state": rec.state,
                                  "jobs": len(rec.specs)},
                    ))
            elif method == "GET":
                rec = self._campaigns.get(rest)
                if rec is None:
                    self._respond(writer, 404,
                                  {"error": f"unknown campaign {rest!r}"})
                else:
                    doc = rec.summary()
                    doc["result"] = rec.result
                    self._respond(writer, 200, doc)
            else:
                self._respond(writer, 405, {"error": "method not allowed"})
        else:
            self._respond(writer, 404, {"error": f"no route {path!r}"})

    async def _post_campaign(self, body: bytes,
                             writer: asyncio.StreamWriter) -> None:
        if self._draining:
            self._respond(writer, 503, {"error": "server is draining"})
            return
        try:
            payload = json.loads(body.decode("utf-8")) if body else {}
            if not isinstance(payload, dict):
                raise ValueError("submission must be a JSON object")
            rec = self._admit(None, payload)
        except (ValueError, KeyError) as exc:
            self._respond(writer, 400, {"error": str(exc)})
            return
        doc = rec.summary()
        doc["jobs"] = len(rec.specs)
        self._respond(writer, 200, doc)

    async def _stream_events(self, campaign_id: str,
                             writer: asyncio.StreamWriter) -> None:
        rec = self._campaigns.get(campaign_id)
        if rec is None:
            self._respond(writer, 404,
                          {"error": f"unknown campaign {campaign_id!r}"})
            return
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/x-ndjson\r\n"
            b"Cache-Control: no-store\r\n"
            b"Connection: close\r\n\r\n"
        )
        await writer.drain()
        cursor = 0
        assert rec.changed is not None
        while True:
            while cursor < len(rec.events):
                line = json.dumps(rec.events[cursor],
                                  separators=(",", ":")) + "\n"
                writer.write(line.encode("utf-8"))
                cursor += 1
            await writer.drain()
            # Events appended while drain() was awaited must still go
            # out, so only stop once the cursor has caught up too.
            if rec.state == "done" and cursor >= len(rec.events):
                return
            async with rec.changed:
                if cursor >= len(rec.events) and rec.state != "done":
                    await rec.changed.wait()

    _REASONS = {200: "OK", 202: "Accepted", 400: "Bad Request",
                404: "Not Found", 405: "Method Not Allowed",
                500: "Internal Server Error",
                503: "Service Unavailable"}

    def _respond(self, writer: asyncio.StreamWriter, status: int,
                 obj: Dict[str, Any]) -> None:
        self._write_response(
            writer, status, json.dumps(obj, sort_keys=True).encode("utf-8"),
            "application/json",
        )

    def _respond_text(self, writer: asyncio.StreamWriter, status: int,
                      text: str) -> None:
        """Plain-text response — the Prometheus exposition content type."""
        self._write_response(
            writer, status, text.encode("utf-8"),
            "text/plain; version=0.0.4; charset=utf-8",
        )

    def _write_response(self, writer: asyncio.StreamWriter, status: int,
                        body: bytes, content_type: str) -> None:
        head = (
            f"HTTP/1.1 {status} {self._REASONS.get(status, 'Unknown')}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n"
        )
        writer.write(head.encode("latin-1") + body)

    # ------------------------------------------------------------------
    def info(self) -> Dict[str, Any]:
        from .. import __version__

        return {
            "server": "repro-campaign",
            "version": __version__,
            "uptime_s": round(time.time() - self.started_at, 3),
            "draining": self._draining,
            "jobs": self.config.jobs,
            "campaigns": len(self._campaigns),
            "running": sum(1 for c in self._campaigns.values()
                           if c.state == "running"),
            "jobs_in_flight": self.jobs_in_flight,
            "events_jsonl": str(self.events_sink.path),
            "queue": self.queue.status(),
        }
