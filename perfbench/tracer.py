"""Span tracing installed from outside the program.

A :class:`Tracer` replaces chosen methods of the program's classes with
timing wrappers for the length of one instrumented repetition, then puts
the originals back.  Nothing under ``src/`` knows it is being traced.

Each wrapped call becomes a span (name, start, end, parent).  Spans are
kept in memory, up to ``span_cap`` of them, and written out at the end;
calls beyond the cap still count towards the aggregates.  Self time is a
span's duration minus the time its wrapped children covered, accumulated
per name and per phase (``setup``, ``first_tx``, ``steady``, ``jobs``), so
the self times of all spans in a phase add up to the time the phase spent
inside wrapped code.

Wrappers are installed before any world is built: some callers look a
method up once at construction and would otherwise keep the original.
"""

from __future__ import annotations

import json
import time
import weakref
from array import array
from typing import Callable, Dict, List, Optional

__all__ = ["Tracer", "install_layers", "LAYER_SPANS"]

#: Span names that belong to a layer of the program (their self time is
#: attributed work); every other span is a container such as an exhibit job.
LAYER_SPANS = (
    "rng.construct",
    "linkcache.build",
    "linkcache.hit",
    "fading.draw",
    "medium.begin_tx",
    "radio.signal_end",
    "radio.cca_probe",
    "reception.finalize",
    "sim.run",
    "dcn.adjustor",
    "routing.router",
    "deployment.build",
)


class Tracer:
    """Timing wrappers, span storage and per-phase self-time tables."""

    def __init__(self, span_cap: int = 100_000) -> None:
        self.span_cap = span_cap
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        #: phase -> per-name self seconds (indexed like ``names``).
        self.self_s: Dict[str, List[float]] = {}
        #: phase -> per-name call counts.
        self.phase_calls: Dict[str, List[int]] = {}
        #: Plain counters fed by wrappers (signals, crc_ok, draws, ...),
        #: per phase.
        self.counters: Dict[str, Dict[str, int]] = {}
        self._acc: List[List] = [[], [], {}]
        self._child: List[float] = []
        self._open: List[int] = []
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.dropped_spans = 0
        self.phase_marks: List[tuple] = []
        self._patches: List[tuple] = []
        self.set_phase("setup")

    # ------------------------------------------------------------------
    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            for table in self.self_s.values():
                table.append(0.0)
            for table in self.phase_calls.values():
                table.append(0)
        return nid

    def set_phase(self, phase: str) -> None:
        """Attribute spans that end from now on to ``phase``."""
        if phase not in self.self_s:
            self.self_s[phase] = [0.0] * len(self.names)
            self.phase_calls[phase] = [0] * len(self.names)
            self.counters[phase] = {}
        acc = self._acc
        acc[0] = self.self_s[phase]
        acc[1] = self.phase_calls[phase]
        acc[2] = self.counters[phase]
        self.phase_marks.append((phase, time.perf_counter()))

    def bump(self, counter: str, by: int = 1) -> None:
        table = self._acc[2]
        table[counter] = table.get(counter, 0) + by

    # ------------------------------------------------------------------
    def _make_timed(self, orig: Callable, nid: int,
                    after: Optional[Callable] = None) -> Callable:
        clock = time.perf_counter
        child = self._child
        open_ = self._open
        acc = self._acc
        names_a = self.span_name
        starts = self.span_start
        ends = self.span_end
        parents = self.span_parent
        cap = self.span_cap
        tracer = self

        def wrapper(*args, **kwargs):
            idx = len(starts)
            if idx < cap:
                names_a.append(nid)
                parents.append(open_[-1] if open_ else -1)
                starts.append(0.0)
                ends.append(0.0)
            else:
                idx = -1
                tracer.dropped_spans += 1
            open_.append(idx)
            child.append(0.0)
            t0 = clock()
            try:
                result = orig(*args, **kwargs)
            finally:
                t1 = clock()
                dur = t1 - t0
                acc[0][nid] += dur - child.pop()
                acc[1][nid] += 1
                if child:
                    child[-1] += dur
                open_.pop()
                if idx >= 0:
                    starts[idx] = t0
                    ends[idx] = t1
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = orig
        return wrapper

    def _patch(self, owner, attr: str, wrapper: Callable) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def wrap(self, owner, attr: str, name: str,
             after: Optional[Callable] = None) -> bool:
        """Time ``owner.attr`` as span ``name``; False when it is absent.

        Only an attribute defined on ``owner`` itself is wrapped, so a
        subclass override and its base are wrapped separately.
        """
        orig = owner.__dict__.get(attr)
        if orig is None or not callable(orig):
            return False
        self._patch(owner, attr, self._make_timed(orig, self._id(name), after))
        return True

    def wrap_tree(self, base, attr: str, name: str,
                  after: Optional[Callable] = None) -> None:
        """Wrap ``attr`` on ``base`` and on every subclass overriding it."""
        for cls in _class_tree(base):
            self.wrap(cls, attr, name, after)

    def count_tree(self, base, attr: str, counter: str) -> None:
        """:meth:`count` on ``base`` and on every subclass overriding it."""
        for cls in _class_tree(base):
            self.count(cls, attr, counter)

    def count(self, owner, attr: str, counter: str,
              skip_none: bool = False) -> bool:
        """Count calls of ``owner.attr`` without timing them."""
        orig = owner.__dict__.get(attr)
        if orig is None:
            return False
        acc = self._acc

        if skip_none:
            def wrapper(*args, **kwargs):
                result = orig(*args, **kwargs)
                if result is not None:
                    table = acc[2]
                    table[counter] = table.get(counter, 0) + 1
                return result
        else:
            def wrapper(*args, **kwargs):
                table = acc[2]
                table[counter] = table.get(counter, 0) + 1
                return orig(*args, **kwargs)

        wrapper.__wrapped__ = orig
        self._patch(owner, attr, wrapper)
        return True

    def container(self, name: str):
        """Context manager timing a container span (e.g. one exhibit job)."""
        return _Container(self, self._id(name))

    def restore(self) -> None:
        """Put every original method back (reverse order of patching)."""
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    def self_time(self, name: str, phases=None) -> float:
        nid = self._ids.get(name)
        if nid is None:
            return 0.0
        tables = self.self_s if phases is None else {
            p: self.self_s[p] for p in phases if p in self.self_s
        }
        return sum(table[nid] for table in tables.values())

    def call_count(self, name: str, phases=None) -> int:
        nid = self._ids.get(name)
        if nid is None:
            return 0
        tables = self.phase_calls if phases is None else {
            p: self.phase_calls[p] for p in phases if p in self.phase_calls
        }
        return sum(table[nid] for table in tables.values())

    def counter(self, name: str, phases=None) -> int:
        tables = self.counters if phases is None else {
            p: self.counters[p] for p in phases if p in self.counters
        }
        return sum(table.get(name, 0) for table in tables.values())

    def layer_self_s(self, phases=None) -> float:
        """Self time summed over every layer span (containers excluded)."""
        return sum(self.self_time(name, phases) for name in LAYER_SPANS)

    def self_table(self) -> Dict[str, Dict[str, float]]:
        """``{phase: {span name: self seconds}}`` for every non-zero cell."""
        return {
            phase: {
                name: table[nid]
                for nid, name in enumerate(self.names)
                if table[nid]
            }
            for phase, table in self.self_s.items()
        }

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def write_spans(self, path: str) -> None:
        """All stored spans as parallel arrays (times relative to the first
        phase mark, in seconds)."""
        origin = self.phase_marks[0][1]
        doc = {
            "names": self.names,
            "name": self.span_name.tolist(),
            "start": [t - origin for t in self.span_start],
            "end": [t - origin for t in self.span_end],
            "parent": self.span_parent.tolist(),
            "dropped": self.dropped_spans,
            "phases": [[p, t - origin] for p, t in self.phase_marks],
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, separators=(",", ":"))

    def write_chrome_trace(self, path: str, max_events: int = 50_000) -> None:
        """The first ``max_events`` spans as a Chrome ``trace_event`` file
        (complete events, microseconds), loadable in Perfetto or
        ``chrome://tracing``."""
        origin = self.phase_marks[0][1]
        events = [
            {"name": "process_name", "ph": "M", "pid": 1, "tid": 1,
             "args": {"name": "perfbench traced repetition"}},
        ]
        for phase, t in self.phase_marks:
            events.append({"name": f"phase:{phase}", "ph": "i", "s": "g",
                           "pid": 1, "tid": 1, "ts": (t - origin) * 1e6})
        for i in range(min(len(self.span_start), max_events)):
            start = self.span_start[i]
            end = self.span_end[i]
            if end <= 0.0:
                continue  # still open when the repetition ended
            events.append({
                "name": self.names[self.span_name[i]],
                "ph": "X", "pid": 1, "tid": 1,
                "ts": (start - origin) * 1e6,
                "dur": (end - start) * 1e6,
                "args": {"parent": self.span_parent[i]},
            })
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"},
                      handle, separators=(",", ":"))


class _Container:
    def __init__(self, tracer: Tracer, nid: int) -> None:
        def body(fn):
            return fn()

        self._call = tracer._make_timed(body, nid)

    def run(self, fn: Callable):
        return self._call(fn)


# ----------------------------------------------------------------------
# Layer wrappers
# ----------------------------------------------------------------------
def install_layers(tracer: Tracer, full: bool) -> None:
    """Wrap the program's layer boundaries.

    ``full=False`` installs only what the exact counts need (delivered
    signals, dispatched events, finalized receptions), for the count pass
    of an end-to-end run; ``full=True`` adds every timing span of the
    per-layer table.  Either way the counts land in the same counters.
    """
    from repro.phy.radio import Radio
    from repro.phy.reception import Reception
    from repro.sim.events import EventQueue

    tracer.count(EventQueue, "pop_due", "sim.events", skip_none=True)
    if not full:
        tracer.count_tree(Radio, "on_signal_end", "radio.signal_ends")
        tracer.count(Reception, "finalize", "reception.finalized")
        return

    from repro.core.adjustor import CcaAdjustor
    from repro.net.deployment import Deployment
    from repro.net.routing.forwarding import Router
    from repro.phy.fading import FadingModel
    from repro.phy.medium import Medium
    from repro.phy.vectorized import VectorizedLinkCache
    from repro.sim.rng import RngStreams
    from repro.sim.simulator import Simulator

    bump = tracer.bump
    tracer.count(EventQueue, "push", "sim.schedules")

    # sim.rng -- generators created: growth of the stream cache when the
    # cache is visible, else the number of names requested.
    def _rng_wrapper(orig, many):
        timed = tracer._make_timed(orig, tracer._id("rng.construct"))

        def wrapper(self, arg):
            cache = getattr(self, "_streams", None)
            before = len(cache) if cache is not None else 0
            result = timed(self, arg)
            if cache is not None:
                bump("rng.streams_created", len(cache) - before)
            else:
                bump("rng.streams_created", len(arg) if many else 1)
            return result

        wrapper.__wrapped__ = orig
        return wrapper

    for attr, many in (("stream", False), ("stream_many", True)):
        orig = RngStreams.__dict__.get(attr)
        if orig is not None:
            tracer._patch(RngStreams, attr, _rng_wrapper(orig, many))

    # phy.vectorized -- the first fanout_batch per (cache, source, power,
    # channel) builds the link state; later calls are cache hits.
    orig_batch = VectorizedLinkCache.__dict__.get("fanout_batch")
    if orig_batch is not None:
        build = tracer._make_timed(orig_batch, tracer._id("linkcache.build"))
        hit = tracer._make_timed(orig_batch, tracer._id("linkcache.hit"))
        # Keyed weakly on the source radio: while it lives, so do its
        # medium and link cache, so their ids cannot be reused by a later
        # world of the same process.
        seen: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()

        def fanout_batch(self, source, tx_power_dbm, channel_mhz):
            keys = seen.get(source)
            if keys is None:
                keys = seen[source] = set()
            key = (id(self), tx_power_dbm, channel_mhz)
            if key in keys:
                return hit(self, source, tx_power_dbm, channel_mhz)
            keys.add(key)
            bump("linkcache.builds")
            return build(self, source, tx_power_dbm, channel_mhz)

        fanout_batch.__wrapped__ = orig_batch
        tracer._patch(VectorizedLinkCache, "fanout_batch", fanout_batch)

    # phy.fading -- a draw is counted once, at the outermost fading call
    # (the base sample_db_many loops over sample_db).
    depth = [0]

    def _draws(n):
        def after(args, result):
            if depth[0] == 1:
                bump("fading.draws", n(result))
        return after

    def _nesting(name, many):
        def wrap_one(cls):
            orig = cls.__dict__.get(name)
            if orig is None:
                return
            timed = tracer._make_timed(
                orig, tracer._id("fading.draw"),
                _draws(len if many else (lambda result: 1)),
            )

            def wrapper(*args, **kwargs):
                depth[0] += 1
                try:
                    return timed(*args, **kwargs)
                finally:
                    depth[0] -= 1

            wrapper.__wrapped__ = orig
            tracer._patch(cls, name, wrapper)
        return wrap_one

    for cls in _class_tree(FadingModel):
        _nesting("sample_db_many", True)(cls)
        _nesting("sample_db", False)(cls)

    # phy.medium / phy.radio / phy.reception
    tracer.wrap(Medium, "begin_transmission", "medium.begin_tx")
    tracer.wrap_tree(Radio, "on_signal_end", "radio.signal_end",
                     after=lambda args, result: bump("radio.signal_ends"))
    tracer.wrap_tree(Radio, "cca_busy", "radio.cca_probe")
    tracer.wrap(Reception, "finalize", "reception.finalize",
                after=lambda args, result: (
                    bump("reception.finalized"),
                    bump("reception.crc_ok", 1 if result.crc_ok else 0),
                ))

    # sim kernel
    tracer.wrap(Simulator, "run", "sim.run")
    tracer.wrap(Simulator, "run_until_idle", "sim.run")

    # core (DCN)
    for attr in ("threshold_dbm", "observe_rssi", "observe_sense",
                 "finish_initialization", "periodic_update"):
        tracer.wrap(CcaAdjustor, attr, "dcn.adjustor")

    # net.routing
    tracer.wrap(Router, "send_report", "routing.router",
                after=lambda args, result: bump("routing.reports"))
    for attr in ("next_hop", "submit_control", "on_joined",
                 "on_neighbors_lost", "start", "stop"):
        tracer.wrap(Router, attr, "routing.router")

    # net.deployment
    tracer.wrap(Deployment, "__init__", "deployment.build")


def _class_tree(base) -> List[type]:
    """``base`` and all its subclasses, each once."""
    seen: List[type] = []
    todo = [base]
    while todo:
        cls = todo.pop()
        if cls not in seen:
            seen.append(cls)
            todo.extend(cls.__subclasses__())
    return seen
