"""Generate EXPERIMENTS.md: paper-vs-measured for every exhibit.

Usage::

    python -m repro.experiments.report [--fast] [--seeds 1,2,3] [--jobs N]

Runs every registered experiment through the campaign engine
(:mod:`repro.campaign` — parallel workers, result cache, retries),
aggregates multi-seed runs into mean ± 95 % CI tables, and renders a
Markdown report pairing each exhibit's paper claim with the measured
table.  A run-summary footer records per-exhibit wall time and cache
status; re-generation is incremental thanks to the on-disk cache.
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, Optional, Sequence

from .registry import REGISTRY
from .results import ResultTable

__all__ = ["PAPER_CLAIMS", "render_report", "obs_summary_cell", "main"]

#: What the paper reports for each exhibit — the comparison column.
PAPER_CLAIMS: Dict[str, str] = {
    "fig01": "Throughput peaks at CFD=3 MHz; >40% over the 5 MHz ZigBee "
             "default; 9 MHz (orthogonal, 1 channel) is worst; 2 MHz stops "
             "helping.",
    "fig02": "802.11b: normalized throughput depressed (~0.5-0.7) until "
             "channels are far apart (receiver false-locks on overlapped-"
             "channel packets). 802.15.4: ~1.0 from one channel apart "
             "(receiver cannot decode off-channel packets at all).",
    "fig04": "CPRR >= 4 MHz: 100% for attacker and normal sender; 3 MHz: "
             "~97%; 2 MHz: ~70%; 1 MHz: <20%.",
    "fig06": "Sent and received rise together as the threshold relaxes; "
             "PRR stays ~100%; the -77 dBm default sits mid-slope "
             "(conservative).",
    "fig07": "Overall throughput across all five channels also grows — "
             "the reclaimed concurrency is additive.",
    "fig08": "Received tracks sent only while the threshold stays below "
             "the minimum co-channel RSS; beyond it, sent keeps rising but "
             "collisions break the link ('disaster').",
    "fig09": "Relaxing the threshold improves throughput at every link "
             "power; the absolute gain grows with power.",
    "fig10": "PRR ~100% for link power >= -15 dBm; >80% at -22 dBm vs "
             "0 dBm interferers; poor at -33 dBm.",
    "fig14": "DCN only on N0: ~27% N0 throughput gain at CFD 2 and 3 MHz; "
             "at 3 MHz N0 reaches ~250 pkt/s (the orthogonal single-channel "
             "level).",
    "fig15": "The other networks (fixed CCA) lose ~5% to N0's unilateral "
             "relaxation.",
    "fig16": "CFD=2 MHz, DCN on all: every network improves.",
    "fig17": "CFD=3 MHz, DCN on all: every network improves; N0 (middle) "
             "+16.5%, N4 (edge) +4.6%.",
    "fig18": "Overall with DCN: CFD=3 MHz ~1300 pkt/s = 1.37x CFD=2 MHz; "
             "~10% DCN gain at 3 MHz.",
    "fig19": "ZigBee 4ch@5MHz vs DCN 6ch@3MHz on 15 MHz: ~58% overall "
             "improvement; ~5.4% per-network gain.",
    "fig20": "N0 throughput rises with its power; PRR-limited regime below "
             "~-15 dBm, CCA-relaxation regime above.",
    "fig21": "Other networks' throughput is flat across N0's power range — "
             "high co-channel power does not hurt neighbours at 3 MHz.",
    "table1": "Per-network throughput 259.3-273.4 pkt/s — ~4% spread "
              "despite unequal interference positions.",
    "fig25": "Case I (one region): 983 / 1326 / 1521 pkt/s — DCN +14.7% "
             "over w/o-DCN, +55.7% over ZigBee.",
    "fig26": "Case II (clusters): 980 / 1382 / 1526 pkt/s — DCN +10.4% "
             "over w/o-DCN.",
    "fig27": "Case III (random): 983 / 1282 / 1361 pkt/s — DCN only +6.2% "
             "over w/o-DCN (weak co-channel records pin the threshold), "
             "+38.4% over ZigBee.",
    "fig28": "-22 dBm link vs 0 dBm interferers: clear sent-received gap; "
             "a PPR-style 'recoverable' series closes most of it.",
    "fig29": "87% of CRC-failed packets have <= 10% error bits (the "
             "(0.1, 0.87) point).",
    "fig30": "18 MHz / 7 channels: ~13% DCN gain (vs ~10% at 12 MHz); "
             "middle channels gain most.",
    "ablation_margin": "(beyond paper) margin trades concurrency for "
                       "co-channel safety headroom.",
    "ablation_tu": "(beyond paper) T_U controls how fast the threshold "
                   "re-relaxes after weak traffic disappears.",
    "ablation_ti": "(beyond paper) the initializing phase mostly matters "
                   "for safety at boot, not steady-state throughput.",
    "ablation_oracle": "Sec. VII-C: perfect co-/inter-channel "
                       "differentiation is the upper bound on threshold "
                       "rules.",
    "ablation_mode2": "Sec. VII-C realised with standard hardware: CCA "
                      "mode 2 defers only to demodulable co-channel "
                      "signals — how close does it get to the oracle?",
    "ablation_energy": "(beyond paper) the paper's cost argument for the "
                       "two-phase design, quantified: DCN's sensing energy "
                       "is negligible and its throughput gain lowers "
                       "energy per delivered packet.",
    "ablation_orthogonal": "(beyond paper) the related-work ladder: a "
                           "strictly orthogonal design (9 MHz) fits 2 "
                           "channels in 15 MHz, ZigBee 4, DCN 6.",
    "convergecast": "(beyond paper) the paper's CCA designs replayed on a "
                    "multi-hop cluster-tree convergecast workload: weak "
                    "co-channel RSS pins DCN conservative (Case III), which "
                    "trades end-to-end delay for delivery ratio; channel "
                    "spacing alone (3 vs 5 MHz) barely moves the fixed "
                    "designs at routing duty cycles.",
}


def render_report(tables: Dict[str, ResultTable], elapsed_s: Dict[str, float],
                  profile: str, seed: int,
                  seeds: Optional[Sequence[int]] = None,
                  cache_status: Optional[Dict[str, str]] = None,
                  obs_status: Optional[Dict[str, str]] = None) -> str:
    if seeds is not None and len(seeds) > 1:
        seed_note = f"seeds: {','.join(str(s) for s in seeds)}"
    else:
        seed_note = f"seed: {seeds[0] if seeds else seed}"
    lines = [
        "# EXPERIMENTS — paper vs. measured",
        "",
        "Reproduction of every table and figure in *Design of Non-orthogonal",
        "Multi-channel Sensor Networks* (ICDCS 2010).  Absolute packet rates",
        "are not expected to match the authors' MicaZ testbed (our substrate",
        "is a calibrated simulator; see DESIGN.md §2); the reproduced",
        "quantity is the **shape** — who wins, by roughly what factor, and",
        "where the crossovers fall.",
        "",
        "Multi-seed tables report mean ± 95 % confidence half-width computed",
        "with Student's t distribution at n − 1 degrees of freedom (not the",
        "normal 1.96: at the typical 5 seeds the t critical value is 2.776,",
        "so normal-based intervals would be ~30 % too narrow).",
        "",
        f"Generated with `python -m repro.experiments.report` "
        f"(profile: {profile}, {seed_note}).",
        "",
    ]
    for eid, experiment in REGISTRY.items():
        if eid not in tables:
            continue
        table = tables[eid]
        lines.append(f"## {experiment.paper_exhibit} — {experiment.description}")
        lines.append("")
        lines.append(f"*Experiment id*: `{eid}` — regenerate with "
                     f"`pytest benchmarks/bench_exhibits.py -k {eid} --benchmark-only`")
        lines.append("")
        lines.append(f"**Paper**: {PAPER_CLAIMS.get(eid, '(n/a)')}")
        lines.append("")
        lines.append("**Measured**:")
        lines.append("")
        lines.append("```")
        lines.append(table.to_text("{:.4g}"))
        lines.append("```")
        lines.append("")
        lines.append(f"*(run time: {elapsed_s[eid]:.1f} s)*")
        lines.append("")
    if cache_status is not None:
        lines.append("## Run summary")
        lines.append("")
        lines.append("Per-exhibit wall time and result-cache status "
                     "(campaign engine; see `python -m repro campaign`).")
        lines.append("")
        if obs_status is not None:
            lines.append("| exhibit | wall time (s) | cache | telemetry |")
            lines.append("|---|---:|---|---|")
            for eid in tables:
                lines.append(
                    f"| `{eid}` | {elapsed_s.get(eid, 0.0):.2f} | "
                    f"{cache_status.get(eid, 'n/a')} | "
                    f"{obs_status.get(eid, 'n/a')} |"
                )
            total = sum(elapsed_s.get(eid, 0.0) for eid in tables)
            lines.append(f"| **total** | **{total:.2f}** | | |")
        else:
            lines.append("| exhibit | wall time (s) | cache |")
            lines.append("|---|---:|---|")
            for eid in tables:
                lines.append(
                    f"| `{eid}` | {elapsed_s.get(eid, 0.0):.2f} | "
                    f"{cache_status.get(eid, 'n/a')} |"
                )
            total = sum(elapsed_s.get(eid, 0.0) for eid in tables)
            lines.append(f"| **total** | **{total:.2f}** | |")
        lines.append("")
    return "\n".join(lines)


def obs_summary_cell(outcomes) -> str:
    """Compress job obs snapshots into one footer cell (frames / spans).

    ``outcomes`` are the per-seed :class:`~repro.campaign.executor.
    JobOutcome` objects of one exhibit; jobs run without telemetry (or
    restored from pre-obs cache entries) contribute nothing.
    """
    snapshots = [o.metrics for o in outcomes if getattr(o, "metrics", None)]
    if not snapshots:
        return "n/a"
    frames = 0.0
    spans = 0
    for snap in snapshots:
        spans += int(snap.get("spans", 0))
        for key, value in snap.get("counters", {}).items():
            if key.startswith("tx.frames{"):
                frames += value
    return f"{int(frames)} frames, {spans} spans"


def parse_seeds(text: str) -> list:
    """Parse a ``--seeds`` value: comma list (``1,2,3``) or range (``1-5``)."""
    seeds = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "-" in chunk[1:]:
            lo, hi = chunk.split("-", 1)
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(chunk))
    if not seeds:
        raise argparse.ArgumentTypeError(f"no seeds in {text!r}")
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fast", action="store_true",
                        help="use the fast profile (shorter runs)")
    parser.add_argument("--seed", type=int, default=1,
                        help="single seed (back-compat; see --seeds)")
    parser.add_argument("--seeds", type=parse_seeds, default=None,
                        help="comma list or range of seeds, e.g. 1,2,3 or "
                             "1-5; tables become mean ± 95%% CI")
    parser.add_argument("--jobs", type=int, default=1,
                        help="parallel worker processes (campaign engine)")
    parser.add_argument("--no-cache", action="store_true",
                        help="bypass the on-disk result cache")
    parser.add_argument("--cache-dir", default=None,
                        help="result-cache directory (default .repro-cache)")
    parser.add_argument("--out", default="EXPERIMENTS.md")
    parser.add_argument("--only", nargs="*", default=None,
                        help="restrict to these experiment ids")
    parser.add_argument("--obs", action="store_true",
                        help="capture per-job telemetry snapshots and add "
                             "a telemetry column to the run-summary footer")
    args = parser.parse_args(argv)

    from ..campaign import (
        ProgressPrinter,
        ResultCache,
        expand_jobs,
        run_campaign,
    )

    seeds = args.seeds if args.seeds else [args.seed]
    ids = args.only if args.only else list(REGISTRY)
    specs = expand_jobs(ids, seeds, args.fast, list(REGISTRY))
    if args.no_cache:
        cache = False
    elif args.cache_dir:
        cache = ResultCache(args.cache_dir)
    else:
        cache = None  # campaign default
    result = run_campaign(
        specs,
        jobs=args.jobs,
        cache=cache,
        progress=ProgressPrinter(),
        obs=args.obs,
    )

    tables = result.aggregated()
    elapsed: Dict[str, float] = {}
    cache_status: Dict[str, str] = {}
    obs_status: Optional[Dict[str, str]] = {} if args.obs else None
    for eid in tables:
        outcomes = [result.outcome(eid, s) for s in seeds
                    if (eid, s) in result.outcomes]
        elapsed[eid] = sum(o.elapsed_s for o in outcomes)
        hits = sum(o.from_cache for o in outcomes)
        cache_status[eid] = (
            "hit" if hits == len(outcomes)
            else "miss" if hits == 0
            else f"partial ({hits}/{len(outcomes)})"
        )
        if obs_status is not None:
            obs_status[eid] = obs_summary_cell(outcomes)

    for eid, table in tables.items():
        print(f"[{eid}] {REGISTRY[eid].description} "
              f"({elapsed[eid]:.1f} s, cache {cache_status[eid]})")
        print(table.to_text("{:.4g}"), flush=True)

    for failure in result.failures():
        print(f"FAILED {failure.spec} after {failure.attempts} attempts:\n"
              f"{failure.error}", file=sys.stderr)

    if not args.only:
        profile = "fast" if args.fast else "paper"
        report = render_report(tables, elapsed, profile, seeds[0],
                               seeds=seeds, cache_status=cache_status,
                               obs_status=obs_status)
        with open(args.out, "w") as handle:
            handle.write(report)
        print(f"wrote {args.out}")
    return 1 if result.failures() else 0


if __name__ == "__main__":
    sys.exit(main())
