"""Command-line interface.

::

    python -m repro list                       # all reproducible exhibits
    python -m repro run fig19 --fast --seed 2  # run one exhibit
    python -m repro report [--fast] [--seeds 1,2 --jobs 4]
                                               # regenerate EXPERIMENTS.md
    python -m repro campaign run --fast --seeds 1,2,3 --jobs 4
                                               # batch-run exhibits x seeds
    python -m repro campaign status            # result-cache inventory
    python -m repro campaign clean             # drop the result cache
    python -m repro serve --port 8642 --jobs 4 # long-running campaign
                                               # server (HTTP/JSON, shared
                                               # crash-safe result cache)
    python -m repro submit --ids fig04 --seeds 1,2 --stream
                                               # submit a campaign to a
                                               # running server and stream
                                               # NDJSON progress events
    python -m repro perf profile fig19 --fast  # cProfile top-N hotspots
    python -m repro check diff fig04 --fast    # fast path vs reference
                                               # path, trace-diffed
    python -m repro check determinism fig04 --fast --jobs 2
                                               # same-seed replay + serial
                                               # vs parallel campaign
    python -m repro obs summary fig04 --fast   # per-node/per-channel metrics
    python -m repro obs timeline fig04 -o out.json
                                               # Chrome trace_event export
                                               # (open at ui.perfetto.dev)
    python -m repro obs export fig04 -o run.jsonl
                                               # streaming JSONL telemetry
    python -m repro obs tail run.jsonl -n 20   # inspect an export
    python -m repro obs top --url http://127.0.0.1:8642
                                               # live dashboard over a
                                               # running campaign server
                                               # (polls /metrics + events)
    python -m repro obs timeline --campaign c0001-... --url http://...
                                               # merged server+worker
                                               # Chrome trace of a campaign
    python -m repro obs summary .repro-server/events.jsonl
                                               # post-hoc roll-up of a
                                               # server's events sink
"""

from __future__ import annotations

import argparse
import json
import sys

from .experiments import report as report_module
from .experiments.registry import REGISTRY, get
from .experiments.report import parse_seeds


def _cmd_list(_args) -> int:
    width = max(len(eid) for eid in REGISTRY)
    for eid, experiment in REGISTRY.items():
        print(f"{eid:<{width}}  {experiment.paper_exhibit:<14} {experiment.description}")
    return 0


def _cmd_run(args) -> int:
    try:
        experiment = get(args.experiment)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    table = experiment.run(seed=args.seed, fast=args.fast)
    print(table.to_text("{:.4g}"))
    if args.csv:
        print()
        print(table.to_csv())
    if args.chart:
        columns = table.columns()
        numeric = [
            c for c in columns
            if any(isinstance(row.get(c), (int, float)) for row in table.rows)
        ]
        if numeric:
            # Chart the dominant numeric column (largest magnitude): for
            # throughput exhibits that is the packets/s series.
            def peak(column):
                return max(
                    (abs(row[column]) for row in table.rows
                     if isinstance(row.get(column), (int, float))),
                    default=0.0,
                )

            best = max(numeric, key=peak)
            print()
            print(table.to_bar_chart(columns[0], best))
    return 0


def _cmd_report(args) -> int:
    argv = []
    if args.fast:
        argv.append("--fast")
    argv.extend(["--seed", str(args.seed), "--out", args.out])
    if args.seeds:
        argv.extend(["--seeds", ",".join(str(s) for s in args.seeds)])
    argv.extend(["--jobs", str(args.jobs)])
    if args.no_cache:
        argv.append("--no-cache")
    if args.cache_dir:
        argv.extend(["--cache-dir", args.cache_dir])
    if args.obs:
        argv.append("--obs")
    return report_module.main(argv)


def _campaign_cache(args):
    from .campaign import DEFAULT_CACHE_DIR, ResultCache

    return ResultCache(args.cache_dir or DEFAULT_CACHE_DIR)


def _cmd_campaign_run(args) -> int:
    from .campaign import ProgressPrinter, expand_jobs, run_campaign

    try:
        specs = expand_jobs(args.ids or None, args.seeds, args.fast,
                            list(REGISTRY))
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    result = run_campaign(
        specs,
        jobs=args.jobs,
        cache=False if args.no_cache else _campaign_cache(args),
        timeout_s=args.timeout,
        retries=args.retries,
        progress=ProgressPrinter(enabled=not args.quiet),
        obs=args.obs,
    )
    if args.aggregate:
        for eid, table in result.aggregated().items():
            print(table.to_text("{:.4g}"))
            print()
    # The final summary line is emitted by ProgressPrinter.finish()
    # (unconditionally, even under --quiet), so it is not repeated here.
    for failure in result.failures():
        print(f"FAILED {failure.spec} after {failure.attempts} attempts:\n"
              f"{failure.error}", file=sys.stderr)
    return 0 if result.ok else 1


def _cmd_campaign_status(args) -> int:
    status = _campaign_cache(args).status()
    print(f"cache root        : {status['root']}")
    print(f"repro version     : {status['version']}")
    print(f"entries           : {status['entries']} "
          f"({status['current_version_entries']} at current version)")
    print(f"size              : {status['bytes'] / 1024:.1f} KiB")
    if status["by_exhibit"]:
        width = max(len(eid) for eid in status["by_exhibit"])
        for eid, count in status["by_exhibit"].items():
            print(f"  {eid:<{width}}  {count} seed(s)")
    return 0


def _cmd_campaign_clean(args) -> int:
    removed = _campaign_cache(args).clear()
    print(f"removed {removed} cache entr{'y' if removed == 1 else 'ies'}")
    return 0


def _cmd_serve(args) -> int:
    from .campaign.server import CampaignServer, ServerConfig

    config = ServerConfig(
        host=args.host,
        port=args.port,
        state_dir=args.state_dir,
        cache_dir=args.cache_dir,
        jobs=args.jobs,
        retries=args.retries,
        timeout_s=args.timeout,
        cache_max_bytes=(int(args.cache_max_mb * 2 ** 20)
                         if args.cache_max_mb else None),
        queue_shards=args.queue_shards,
        events_max_bytes=int(args.events_max_mb * 2 ** 20),
        profile_interval_s=args.profile_interval,
    )
    server = CampaignServer(config)

    def announce(bound: CampaignServer) -> None:
        print(
            f"repro campaign server on http://{config.host}:{bound.port} "
            f"(jobs={config.jobs}, state={config.state_dir}, "
            f"cache={config.cache_dir or 'default'})",
            file=sys.stderr, flush=True,
        )

    server.announce = announce
    server.run()
    print("repro campaign server: drained and stopped", file=sys.stderr)
    return 0


def _parse_params(pairs):
    params = {}
    for pair in pairs or []:
        key, sep, raw = pair.partition("=")
        if not sep or not key:
            raise SystemExit(f"--param needs key=value, got {pair!r}")
        try:
            import json as _json

            params[key] = _json.loads(raw)
        except ValueError:
            params[key] = raw  # bare string value
    return params


def _cmd_submit(args) -> int:
    from .campaign.client import CampaignClient, ServerError
    from .experiments.results import ResultTable

    client = CampaignClient(args.url, timeout_s=args.http_timeout)
    try:
        doc = client.submit(
            ids=args.ids or None,
            seeds=args.seeds,
            fast=args.fast,
            params=_parse_params(args.param),
            obs=args.obs,
        )
        campaign_id = doc["id"]
        print(f"submitted {campaign_id}: {doc['total']} job(s)")
        if args.no_wait:
            return 0
        if args.stream:
            for event in client.stream_events(campaign_id):
                print(json.dumps(event, sort_keys=True))
            doc = client.campaign(campaign_id)
        else:
            doc = client.wait(campaign_id, timeout_s=args.wait_timeout)
    except ServerError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except (ConnectionError, OSError) as exc:
        print(f"cannot reach {args.url}: {exc}", file=sys.stderr)
        return 2
    result = doc.get("result") or {}
    print(
        f"campaign {doc['id']}: {doc['completed']}/{doc['total']} ok, "
        f"{doc['failed']} failed, cache {doc['cache_hits']} hit / "
        f"{doc['cache_misses']} miss, {doc['elapsed_s']:.1f}s"
    )
    if args.aggregate:
        for eid in sorted(result.get("aggregated", {})):
            print()
            print(ResultTable.from_json(
                result["aggregated"][eid]).to_text("{:.4g}"))
    for failure in result.get("failures", []):
        print(f"FAILED {failure['spec']} after {failure['attempts']} "
              f"attempts:\n{failure['error']}", file=sys.stderr)
    return 0 if doc["failed"] == 0 else 1


def _cmd_perf_profile(args) -> int:
    from .perf import profile_exhibit, profile_scene

    if (args.experiment is None) == (args.scene is None):
        print("give either an exhibit id or --scene N", file=sys.stderr)
        return 2
    try:
        if args.scene is not None:
            report = profile_scene(
                args.scene,
                sim_s=args.sim_s,
                seed=args.seed,
                top=args.top,
                sort=args.sort,
                out=args.out,
                json_out=args.json,
            )
        else:
            report = profile_exhibit(
                args.experiment,
                seed=args.seed,
                fast=args.fast,
                top=args.top,
                sort=args.sort,
                out=args.out,
                json_out=args.json,
            )
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    print(report, end="")
    return 0


def _cmd_check_diff(args) -> int:
    from .check.oracle import diff_exhibit

    try:
        report = diff_exhibit(
            args.experiment,
            seed=args.seed,
            fast=args.fast,
            invariants=not args.no_invariants,
        )
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    print(report.describe())
    return 0 if report.ok else 1


def _cmd_check_determinism(args) -> int:
    from .check.determinism import check_determinism

    try:
        report = check_determinism(
            args.experiment,
            seed=args.seed,
            fast=args.fast,
            jobs=args.jobs,
        )
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    print(report.describe())
    return 0 if report.ok else 1


def _cmd_obs_summary(args) -> int:
    from .obs.cli import cmd_summary

    return cmd_summary(args)


def _cmd_obs_timeline(args) -> int:
    from .obs.cli import cmd_timeline

    return cmd_timeline(args)


def _cmd_obs_export(args) -> int:
    from .obs.cli import cmd_export

    return cmd_export(args)


def _cmd_obs_tail(args) -> int:
    from .obs.cli import cmd_tail

    return cmd_tail(args)


def _cmd_obs_top(args) -> int:
    from .obs.cli import cmd_top

    return cmd_top(args)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Design of Non-orthogonal Multi-channel "
        "Sensor Networks' (ICDCS 2010)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list reproducible exhibits").set_defaults(
        func=_cmd_list
    )

    run_parser = sub.add_parser("run", help="run one exhibit")
    run_parser.add_argument("experiment", help="exhibit id, e.g. fig19")
    run_parser.add_argument("--seed", type=int, default=1)
    run_parser.add_argument("--fast", action="store_true")
    run_parser.add_argument("--csv", action="store_true", help="also print CSV")
    run_parser.add_argument(
        "--chart", action="store_true", help="also print an ASCII bar chart"
    )
    run_parser.set_defaults(func=_cmd_run)

    report_parser = sub.add_parser("report", help="regenerate EXPERIMENTS.md")
    report_parser.add_argument("--seed", type=int, default=1)
    report_parser.add_argument("--seeds", type=parse_seeds, default=None,
                               help="multi-seed report: comma list (1,2,3) "
                                    "or range (1-5); tables become "
                                    "mean ± 95%% CI")
    report_parser.add_argument("--jobs", type=int, default=1,
                               help="parallel worker processes")
    report_parser.add_argument("--fast", action="store_true")
    report_parser.add_argument("--no-cache", action="store_true",
                               help="bypass the result cache")
    report_parser.add_argument("--cache-dir", default=None)
    report_parser.add_argument("--out", default="EXPERIMENTS.md")
    report_parser.add_argument("--obs", action="store_true",
                               help="capture per-job telemetry snapshots "
                                    "(adds a footer column)")
    report_parser.set_defaults(func=_cmd_report)

    campaign_parser = sub.add_parser(
        "campaign", help="batch-run exhibits x seeds (parallel, cached)"
    )
    campaign_sub = campaign_parser.add_subparsers(
        dest="campaign_command", required=True
    )

    c_run = campaign_sub.add_parser("run", help="run a campaign")
    c_run.add_argument("--ids", nargs="*", default=None,
                       help="exhibit ids (default: all registered)")
    c_run.add_argument("--seeds", type=parse_seeds, default=[1],
                       help="comma list (1,2,3) or range (1-5); default 1")
    c_run.add_argument("--jobs", type=int, default=1,
                       help="parallel worker processes")
    c_run.add_argument("--fast", action="store_true")
    c_run.add_argument("--timeout", type=float, default=None,
                       help="per-job wall-clock budget in seconds")
    c_run.add_argument("--retries", type=int, default=2,
                       help="retry attempts per failed job (default 2)")
    c_run.add_argument("--no-cache", action="store_true")
    c_run.add_argument("--cache-dir", default=None)
    c_run.add_argument("--aggregate", action="store_true",
                       help="print per-exhibit mean ± CI tables")
    c_run.add_argument("--quiet", action="store_true",
                       help="suppress the live progress line")
    c_run.add_argument("--obs", action="store_true",
                       help="capture per-job telemetry snapshots into the "
                            "result cache")
    c_run.set_defaults(func=_cmd_campaign_run)

    c_status = campaign_sub.add_parser("status", help="result-cache inventory")
    c_status.add_argument("--cache-dir", default=None)
    c_status.set_defaults(func=_cmd_campaign_status)

    c_clean = campaign_sub.add_parser("clean", help="drop the result cache")
    c_clean.add_argument("--cache-dir", default=None)
    c_clean.set_defaults(func=_cmd_campaign_clean)

    serve_parser = sub.add_parser(
        "serve", help="run the long-running campaign server (HTTP/JSON)"
    )
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument("--port", type=int, default=8642)
    serve_parser.add_argument("--jobs", type=int, default=2,
                              help="worker processes (0 = in-process "
                                   "threads, no per-job timeouts)")
    serve_parser.add_argument("--state-dir", default=".repro-server",
                              help="queue journal directory "
                                   "(default .repro-server)")
    serve_parser.add_argument("--cache-dir", default=None,
                              help="shared result cache (default "
                                   ".repro-cache, shared with one-shot "
                                   "campaign runs)")
    serve_parser.add_argument("--cache-max-mb", type=float, default=None,
                              help="LRU size budget for the shared cache")
    serve_parser.add_argument("--timeout", type=float, default=None,
                              help="per-job wall-clock budget in seconds")
    serve_parser.add_argument("--retries", type=int, default=2)
    serve_parser.add_argument("--queue-shards", type=int, default=4,
                              help="journal shard files (default 4)")
    serve_parser.add_argument("--events-max-mb", type=float, default=4.0,
                              help="rotate the server events JSONL past "
                                   "this size (default 4)")
    serve_parser.add_argument("--profile-interval", type=float, default=5.0,
                              help="flight-recorder sampling period in "
                                   "seconds (/debug/profile; default 5)")
    serve_parser.set_defaults(func=_cmd_serve)

    submit_parser = sub.add_parser(
        "submit", help="submit a campaign to a running server"
    )
    submit_parser.add_argument("--url", default="http://127.0.0.1:8642")
    submit_parser.add_argument("--ids", nargs="*", default=None,
                               help="exhibit ids (default: all registered)")
    submit_parser.add_argument("--seeds", type=parse_seeds, default=[1],
                               help="comma list (1,2,3) or range (1-5)")
    submit_parser.add_argument("--fast", action="store_true")
    submit_parser.add_argument("--param", action="append", default=None,
                               metavar="KEY=VALUE",
                               help="extra exhibit parameter (repeatable; "
                                    "value parsed as JSON, else string)")
    submit_parser.add_argument("--obs", action="store_true",
                               help="run jobs under worker observability "
                                    "(metrics + sim spans ship back into "
                                    "the server's /metrics and trace)")
    submit_parser.add_argument("--stream", action="store_true",
                               help="stream NDJSON progress events")
    submit_parser.add_argument("--no-wait", action="store_true",
                               help="submit and exit without waiting")
    submit_parser.add_argument("--aggregate", action="store_true",
                               help="print per-exhibit mean ± CI tables")
    submit_parser.add_argument("--wait-timeout", type=float, default=None,
                               help="give up polling after this many seconds")
    submit_parser.add_argument("--http-timeout", type=float, default=600.0,
                               help="per-request socket timeout "
                                    "(default 600)")
    submit_parser.set_defaults(func=_cmd_submit)

    perf_parser = sub.add_parser(
        "perf", help="cProfile an exhibit or a synthetic scene"
    )
    perf_sub = perf_parser.add_subparsers(dest="perf_command", required=True)

    p_profile = perf_sub.add_parser(
        "profile",
        help="run one exhibit (or a synthetic --scene) under cProfile",
    )
    p_profile.add_argument("experiment", nargs="?", default=None,
                           help="exhibit id, e.g. fig19 (omit with --scene)")
    p_profile.add_argument("--scene", type=int, default=None, metavar="N",
                           help="profile a synthetic N-mote dense scene "
                                "instead of an exhibit")
    p_profile.add_argument("--sim-s", type=float, default=0.02,
                           help="simulated seconds for --scene "
                                "(default 0.02)")
    p_profile.add_argument("--seed", type=int, default=1)
    p_profile.add_argument("--fast", action="store_true")
    p_profile.add_argument("--top", type=int, default=20,
                           help="number of hotspots to print (default 20)")
    p_profile.add_argument("--sort", choices=("tottime", "cumtime", "ncalls"),
                           default="tottime")
    p_profile.add_argument("--out", default=None,
                           help="also dump raw pstats to this path")
    p_profile.add_argument("--json", default=None, metavar="PATH",
                           help="also write a structured top-N snapshot "
                                "(diffable across PRs) to this path")
    p_profile.set_defaults(func=_cmd_perf_profile)

    check_parser = sub.add_parser(
        "check", help="correctness oracles (diff, determinism)"
    )
    check_sub = check_parser.add_subparsers(dest="check_command", required=True)

    k_diff = check_sub.add_parser(
        "diff",
        help="run one exhibit on the fast path and on the brute-force "
             "reference path, then diff the traces event by event",
    )
    k_diff.add_argument("experiment", help="exhibit id, e.g. fig04")
    k_diff.add_argument("--seed", type=int, default=1)
    k_diff.add_argument("--fast", action="store_true")
    k_diff.add_argument("--no-invariants", action="store_true",
                        help="skip runtime invariant checking during the "
                             "two runs")
    k_diff.set_defaults(func=_cmd_check_diff)

    k_det = check_sub.add_parser(
        "determinism",
        help="replay one exhibit twice with the same seed, and run it "
             "serial vs parallel through the campaign engine; all result "
             "JSON must be byte-identical",
    )
    k_det.add_argument("experiment", help="exhibit id, e.g. fig04")
    k_det.add_argument("--seed", type=int, default=1)
    k_det.add_argument("--fast", action="store_true")
    k_det.add_argument("--jobs", type=int, default=2,
                       help="parallel worker count for the campaign leg "
                            "(default 2)")
    k_det.set_defaults(func=_cmd_check_determinism)

    obs_parser = sub.add_parser(
        "obs", help="run telemetry: metric summaries, timelines, exports"
    )
    obs_sub = obs_parser.add_subparsers(dest="obs_command", required=True)

    def _obs_run_args(p) -> None:
        p.add_argument("experiment", help="exhibit id, e.g. fig04")
        p.add_argument("--seed", type=int, default=1)
        p.add_argument("--fast", action="store_true")
        p.add_argument("--sample-interval", type=float, default=0.01,
                       help="gauge sampling period in sim seconds "
                            "(default 0.01)")

    o_summary = obs_sub.add_parser(
        "summary", help="run one exhibit and print per-node/per-channel "
                        "metric tables — or, given a *.jsonl path, roll "
                        "up a campaign server's events export offline"
    )
    _obs_run_args(o_summary)
    o_summary.set_defaults(func=_cmd_obs_summary)

    o_timeline = obs_sub.add_parser(
        "timeline", help="run one exhibit and export a Chrome trace_event "
                         "timeline (open at ui.perfetto.dev); with "
                         "--campaign, fetch the merged server+worker trace "
                         "of a server campaign instead"
    )
    o_timeline.add_argument("experiment", nargs="?", default=None,
                            help="exhibit id, e.g. fig04 (omit with "
                                 "--campaign)")
    o_timeline.add_argument("--seed", type=int, default=1)
    o_timeline.add_argument("--fast", action="store_true")
    o_timeline.add_argument("--sample-interval", type=float, default=0.01,
                            help="gauge sampling period in sim seconds "
                                 "(default 0.01)")
    o_timeline.add_argument("--campaign", default=None, metavar="ID",
                            help="fetch this campaign's merged trace from "
                                 "a running server (--url)")
    o_timeline.add_argument("--url", default="http://127.0.0.1:8642",
                            help="campaign server base URL "
                                 "(with --campaign)")
    o_timeline.add_argument("-o", "--out", default="timeline.json")
    o_timeline.set_defaults(func=_cmd_obs_timeline)

    o_export = obs_sub.add_parser(
        "export", help="run one exhibit and stream telemetry records to a "
                       "JSONL file (manifest first)"
    )
    _obs_run_args(o_export)
    o_export.add_argument("-o", "--out", default="obs.jsonl")
    o_export.set_defaults(func=_cmd_obs_export)

    o_tail = obs_sub.add_parser(
        "tail", help="print the trailing records of a JSONL export"
    )
    o_tail.add_argument("path", help="JSONL file written by 'obs export'")
    o_tail.add_argument("-n", "--lines", type=int, default=10)
    o_tail.add_argument("--kind", default=None,
                        help="only records of this kind "
                             "(manifest/span/point/counter)")
    o_tail.set_defaults(func=_cmd_obs_tail)

    o_top = obs_sub.add_parser(
        "top", help="live ANSI dashboard over a running campaign server "
                    "(polls /metrics and the newest campaign's events)"
    )
    o_top.add_argument("--url", default="http://127.0.0.1:8642",
                       help="campaign server base URL")
    o_top.add_argument("--interval", type=float, default=2.0,
                       help="poll period in seconds (default 2)")
    o_top.add_argument("--once", action="store_true",
                       help="render a single frame and exit (no ANSI "
                            "clear; scriptable)")
    o_top.add_argument("--width", type=int, default=78,
                       help="frame width in columns (default 78)")
    o_top.set_defaults(func=_cmd_obs_top)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
