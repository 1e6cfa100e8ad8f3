"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload scene_50k --seed 1 --seconds 5 --trace 0

One process runs one workload, with no threads:

1. untraced repetitions, until ``--seconds`` of set-up plus timed work has
   accumulated (at least ``min_reps``); they give the end-to-end metrics;
2. one instrumented repetition: with ``--trace 0`` it only counts
   delivered signals, dispatched events and finalized receptions (the
   denominator of ``steady_us_per_signal``); with ``--trace 1`` it wraps
   every layer boundary and gives the per-layer metrics.

Every repetition checks the program's outputs and fingerprints each
operation (exact counts and result digests).  An operation fails when it
raises, fails its check, or its fingerprint differs from the first
repetition of this run or from an earlier run of the same source tree and
seed (kept in ``.perfbench-out/ledger.json``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See
``perfbench/README.md`` for the workloads and every metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

#: The seed claims are measured on, and the held-out seed a claim must
#: also hold on.
DEFAULT_SEED = 1
HELD_OUT_SEED = 7

#: Upper bound on untraced repetitions, whatever ``--seconds`` asks for.
MAX_REPS = 5

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "first_tx_s": "s",
    "steady_us_per_signal": "us",
    "peak_rss_mb": "MB",
}


def _parse(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _source_digest() -> str:
    """sha256 over the program and benchmark sources: the ledger's notion
    of "the same commit"."""
    digest = hashlib.sha256()
    for base in (SRC, ROOT / "perfbench"):
        for path in sorted(base.rglob("*.py")):
            digest.update(str(path.relative_to(ROOT)).encode("utf-8"))
            digest.update(path.read_bytes())
    return digest.hexdigest()


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


# ----------------------------------------------------------------------
# Determinism: within the run and against the ledger
# ----------------------------------------------------------------------
def _compare(reference: Dict[str, Any], other: Dict[str, Any]) -> List[str]:
    """Fields present in both fingerprints whose values differ."""
    return [k for k in reference if k in other and reference[k] != other[k]]


def _check_repeats(reps) -> None:
    """Fail every operation whose fingerprint differs from repetition 0."""
    first = {op.name: op.fingerprint for op in reps[0].ops}
    for rep in reps[1:]:
        for op in rep.ops:
            diff = _compare(first.get(op.name, {}), op.fingerprint)
            if diff:
                op.fail(f"nondeterministic within the run: {', '.join(diff)}")


def _check_ledger(key: str, reps) -> None:
    """Compare fingerprints with earlier runs of this source tree and seed,
    then merge this run's fingerprints into the ledger."""
    path = OUT / "ledger.json"
    try:
        ledger = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        ledger = {}
    entry = ledger.setdefault(key, {})
    for rep in reps:
        for op in rep.ops:
            if not op.ok:
                continue
            known = entry.setdefault(op.name, {})
            diff = _compare(known, op.fingerprint)
            if diff:
                op.fail(f"differs from an earlier run: {', '.join(diff)}")
            else:
                known.update(op.fingerprint)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(ledger, indent=1, sort_keys=True), encoding="utf-8")
    os.replace(tmp, path)


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def _total(rep, view: str) -> float:
    times = getattr(rep, view)
    return times.get("setup", 0.0) + times.get("wall", 0.0)


def _e2e_metrics(setup, reps, tracer, rss_mb, workload) -> Dict[str, float]:
    signals = tracer.counter("radio.signal_ends", [workload.phases["steady"]])
    # A window that raised leaves its keys unset; it is already a failed
    # operation, so it reads as 0 here.
    steady = _median([rep.scaled.get("steady", 0.0) for rep in reps])
    return {
        "setup_s": _median(setup),
        "wall_s": _median([rep.scaled.get("wall", 0.0) for rep in reps]),
        "first_tx_s": _median([rep.scaled.get("first", 0.0) for rep in reps]),
        "steady_us_per_signal": steady / signals * 1e6 if signals else 0.0,
        "peak_rss_mb": rss_mb,
    }


def _layer_metrics(reps, tr, rep, workload, failed_share) -> Dict[str, float]:
    from tracer import LAYER_SPANS
    from workloads import EXHIBITS

    def share(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    wall = sum(rep.phase_s.values())
    first_phase = workload.phases["first"]
    steady_phase = workload.phases["steady"]
    signals = tr.counter("radio.signal_ends")
    transmissions = tr.call_count("medium.begin_tx")
    finalized = tr.counter("reception.finalized")
    mac = rep.mac
    first_self = {n: tr.self_time(n, [first_phase]) for n in LAYER_SPANS}
    lazy = first_self.pop("rng.construct") + first_self.pop("linkcache.build")
    untraced_wall = _median([r.raw.get("wall", 0.0) for r in reps])
    metrics = {
        "rng.streams_created": tr.counter("rng.streams_created"),
        "rng.construct_s": tr.self_time("rng.construct"),
        "linkcache.builds": tr.counter("linkcache.builds"),
        "linkcache.build_s": tr.self_time("linkcache.build"),
        "linkcache.hit_s": tr.self_time("linkcache.hit"),
        "fading.draws": tr.counter("fading.draws"),
        "fading.draw_s": tr.self_time("fading.draw"),
        "medium.transmissions": transmissions,
        "medium.begin_tx_self_s": tr.self_time("medium.begin_tx"),
        "medium.signals_per_tx": share(signals, transmissions),
        "radio.signal_ends": signals,
        "radio.signal_end_s": tr.self_time("radio.signal_end"),
        "radio.cca_probes": tr.call_count("radio.cca_probe"),
        "radio.cca_probe_s": tr.self_time("radio.cca_probe"),
        "reception.finalized": finalized,
        "reception.crc_ok_ratio": share(tr.counter("reception.crc_ok"), finalized),
        "sim.events": tr.counter("sim.events"),
        "sim.schedules": tr.counter("sim.schedules"),
        "sim.run_self_s": tr.self_time("sim.run"),
        "mac.sent": mac["sent"],
        "mac.cca_busy_ratio": share(mac["cca_busy"], mac["cca_attempts"]),
        "mac.access_failures": mac["access_failures"],
        "mac.prr": share(mac["delivered"], mac["sent"]),
        "dcn.adjustor_calls": tr.call_count("dcn.adjustor"),
        "dcn.adjustor_share": share(tr.self_time("dcn.adjustor"), wall),
        "routing.reports": tr.counter("routing.reports"),
        "routing.router_share": share(tr.self_time("routing.router"), wall),
        "deployment.builds": tr.call_count("deployment.build"),
        "deployment.build_s": tr.self_time("deployment.build"),
    }
    for eid in EXHIBITS:
        job = _median([r.job_s[eid] for r in reps if eid in r.job_s])
        metrics[f"exhibit.{eid}.wall_share"] = share(job, untraced_wall)
    metrics.update({
        "first_tx.lazy_build_share": share(lazy, rep.phase_s.get(first_phase, 0.0)),
        "first_tx.max_other_layer_share": share(
            max(first_self.values()), rep.phase_s.get(first_phase, 0.0)
        ),
        "steady.signal_end_share": share(
            tr.self_time("radio.signal_end", [steady_phase]),
            rep.phase_s.get(steady_phase, 0.0),
        ),
        "trace.overhead_ratio": share(
            _total(rep, "scaled"), _median([_total(r, "scaled") for r in reps])
        ),
        "trace.unattributed_share": share(wall - tr.layer_self_s(), wall),
        "failed_ops": failed_share,
    })
    return metrics


def _layer_unit(name: str) -> str:
    if name == "medium.signals_per_tx":
        return "signals/tx"
    if name.endswith(("_share", "_ratio", ".prr", "failed_ops")):
        return "ratio"
    if name.endswith("_s"):
        return "s"
    return "count"


# ----------------------------------------------------------------------
def main(argv: List[str]) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tracer as tracing
    import workloads
    from hostclock import HostClock

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; known: "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    host = HostClock()
    workload = workloads.make_workload(args.workload, host)

    setup = list(workload.prepare())
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: imported repro from {repro.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    reps = []
    measured = 0.0
    while len(reps) < MAX_REPS and (
        len(reps) < workload.min_reps or measured < args.seconds
    ):
        rep = workload.rep(args.seed)
        reps.append(rep)
        measured += _total(rep, "raw")
        if "setup" in rep.scaled:
            setup.append(rep.scaled["setup"])
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    full = args.trace == 1
    tracer = tracing.Tracer()
    tracing.install_layers(tracer, full=full)
    try:
        traced = workload.rep(args.seed, tracer=tracer)
    finally:
        tracer.restore()
    if not full and "setup" in traced.scaled:
        # Count-only wrappers never fire during set-up.
        setup.append(traced.scaled["setup"])

    all_reps = reps + [traced]
    _check_repeats(all_reps)
    OUT.mkdir(exist_ok=True)
    _check_ledger(f"{_source_digest()}:{args.workload}:{args.seed}", all_reps)
    ops = [op for r in all_reps for op in r.ops]
    failed = [op for op in ops if not op.ok]

    if full:
        values = _layer_metrics(reps, tracer, traced, workload,
                                len(failed) / len(ops))
        metrics = {name: {"value": value, "unit": _layer_unit(name)}
                   for name, value in values.items()}
        stem = OUT / args.workload
        tracer.write_spans(f"{stem}-spans.json")
        tracer.write_chrome_trace(f"{stem}-trace.json")
    else:
        values = _e2e_metrics(setup, reps, tracer, rss_mb, workload)
        metrics = {name: {"value": value, "unit": E2E_UNITS[name]}
                   for name, value in values.items()}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "host_scale": host.scale(),
        "host_segments": host.segments,
        "setup_samples_s": setup,
        "reps": [{"raw": r.raw, "scaled": r.scaled, "job_s": r.job_s}
                 for r in reps],
        "instrumented": {"raw": traced.raw, "scaled": traced.scaled,
                         "phase_s": traced.phase_s,
                         "self_s": tracer.self_table(),
                         "counters": tracer.counters,
                         "dropped_spans": tracer.dropped_spans},
        "ops": [{"name": op.name, "ok": op.ok, "error": op.error,
                 "fingerprint": op.fingerprint} for op in ops],
        "metrics": metrics,
    }
    (OUT / f"{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8"
    )

    for op in failed:
        print(f"FAILED {op.name}: {op.error}")
    for name, metric in metrics.items():
        print(f"{name:<34} {metric['value']:>16.6g} {metric['unit']}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
