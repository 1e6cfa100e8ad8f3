"""``python -m repro obs`` subcommands.

::

    repro obs summary fig04 --fast          # per-node/per-channel tables
    repro obs summary server/events.jsonl   # post-hoc server-run roll-up
    repro obs timeline fig04 -o out.json    # Chrome trace_event export
    repro obs timeline --campaign c0001-… --url http://…  # merged
                                            # server+worker campaign trace
    repro obs export fig04 -o run.jsonl     # streaming JSONL record dump
    repro obs tail run.jsonl [-n 20] [--kind span]
    repro obs top --url http://127.0.0.1:8642   # live server dashboard

``summary``/``timeline``/``export`` re-run the named exhibit under an
ambient :class:`~repro.obs.runtime.ObsSession` (exhibits construct their
simulators internally, so this is the only hook point that needs no
figure-module changes).  ``tail`` is offline: it inspects a JSONL file a
previous ``export`` produced — including one still being written.
``summary`` of a ``.jsonl`` path is likewise offline: it rolls up the
campaign server's rotating events sink instead of running anything.
"""

from __future__ import annotations

import json
import sys
from typing import Optional, Tuple

from .runtime import ObsSession
from .sinks import JsonlSink, Sink, read_jsonl, run_manifest
from .timeline import write_trace

__all__ = ["observe_exhibit", "cmd_summary", "cmd_timeline", "cmd_export",
           "cmd_tail", "cmd_top"]


def observe_exhibit(
    experiment_id: str,
    seed: int = 1,
    fast: bool = True,
    sample_interval_s: Optional[float] = 0.01,
    sink: Optional[Sink] = None,
) -> Tuple[ObsSession, object]:
    """Run one registered exhibit under an ambient obs session.

    Returns ``(session, result_table)``; the session's recorders are
    finalised (observation windows frozen, counters flushed to the sink).
    """
    from ..experiments.registry import get

    experiment = get(experiment_id)
    with ObsSession(sample_interval_s=sample_interval_s, sink=sink) as session:
        table = experiment.run(seed=seed, fast=fast)
    return session, table


def cmd_summary(args) -> int:
    from .summary import summary_tables

    if args.experiment.endswith(".jsonl"):
        # Offline mode: roll up a server events export instead of
        # running an exhibit (the argument is a path, not an id).
        from .summary import events_summary

        try:
            records = read_jsonl(args.experiment)
        except OSError as exc:
            print(f"cannot read {args.experiment}: {exc}", file=sys.stderr)
            return 2
        if not records:
            print(f"{args.experiment}: no records", file=sys.stderr)
            return 1
        print(events_summary(
            records, title=f"{args.experiment}: server events summary"
        ).to_text("{:.4g}"))
        return 0
    try:
        session, _table = observe_exhibit(
            args.experiment, seed=args.seed, fast=args.fast,
            sample_interval_s=args.sample_interval,
        )
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    if not session.recorders:
        print(f"{args.experiment} built no simulators; nothing to summarise",
              file=sys.stderr)
        return 1
    for table in summary_tables(session.recorders, exhibit=args.experiment):
        print(table.to_text("{:.4g}"))
        print()
    snap = session.snapshot()
    print(f"{args.experiment}: {snap['runs']} run(s), "
          f"{snap['spans']} spans, {snap['sim_time_s']:.3f} s sim time")
    return 0


def cmd_timeline(args) -> int:
    if getattr(args, "campaign", None):
        # Server mode: fetch the merged campaign trace (server spans +
        # per-job worker/sim tracks) instead of running anything locally.
        from .top import fetch_json

        url = args.url.rstrip("/")
        try:
            doc = fetch_json(f"{url}/campaigns/{args.campaign}/trace")
        except OSError as exc:
            print(f"cannot fetch campaign trace from {url}: {exc}",
                  file=sys.stderr)
            return 2
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
            handle.write("\n")
        print(f"wrote {len(doc.get('traceEvents', []))} trace events for "
              f"campaign {args.campaign} to {args.out} "
              f"(open at https://ui.perfetto.dev)")
        return 0
    if args.experiment is None:
        print("give an exhibit id, or --campaign with --url", file=sys.stderr)
        return 2
    try:
        session, _table = observe_exhibit(
            args.experiment, seed=args.seed, fast=args.fast,
            sample_interval_s=args.sample_interval,
        )
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    if not session.recorders:
        print(f"{args.experiment} built no simulators; nothing to export",
              file=sys.stderr)
        return 1
    manifest = run_manifest(exhibit=args.experiment, seed=args.seed,
                            profile="fast" if args.fast else "full")
    count = write_trace(args.out, session.recorders, metadata=manifest)
    print(f"wrote {count} trace events for {len(session.recorders)} run(s) "
          f"to {args.out} (open at https://ui.perfetto.dev)")
    return 0


def cmd_export(args) -> int:
    with JsonlSink(args.out) as sink:
        sink.emit(run_manifest(exhibit=args.experiment, seed=args.seed,
                               profile="fast" if args.fast else "full"))
        try:
            session, _table = observe_exhibit(
                args.experiment, seed=args.seed, fast=args.fast,
                sample_interval_s=args.sample_interval, sink=sink,
            )
        except KeyError as exc:
            print(exc.args[0], file=sys.stderr)
            return 2
        emitted = sink.emitted
    print(f"wrote {emitted} records for {len(session.recorders)} run(s) "
          f"to {args.out}")
    return 0


def cmd_top(args) -> int:
    from .top import run_top

    return run_top(args.url, interval_s=args.interval, once=args.once,
                   width=args.width)


def cmd_tail(args) -> int:
    if args.lines < 1:
        print(f"-n must be >= 1, got {args.lines}", file=sys.stderr)
        return 2
    try:
        records = read_jsonl(args.path, last=args.lines, kind=args.kind)
    except OSError as exc:
        print(f"cannot read {args.path}: {exc}", file=sys.stderr)
        return 2
    for record in records:
        print(json.dumps(record, sort_keys=True, separators=(",", ":")))
    return 0
