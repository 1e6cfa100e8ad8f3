"""Gate a change on the repository benchmark: base tree against head tree.

Usage, from the root of the head tree::

    python3 benchmarks/perf_gate.py BASE_TREE WORKLOAD

Runs ``BENCHMARK.json``'s ``command`` with ``--workload WORKLOAD --seed 1
--seconds <run_seconds> --trace 0`` :data:`PAIRS` times in each tree, the
working directory being the root of the tree measured.  The pairs alternate
which tree runs first, so a drift in host speed falls on both sides.  The
last line of each run's standard output is its result (see
``perfbench/README.md``).

Prints one row per metric and exits 1 when a run exits non-zero, when a run
reports ``correct`` false or ``failed`` > 0, or when the head median of an
``end_to_end`` metric is worse than the base median by more than that
metric's ``bound`` (a share of the base median) in the direction of its
``better``.  Standard library only.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Tuple

HEAD = Path(__file__).resolve().parent.parent

#: Runs per tree.  With three alternating pairs on a 2-vCPU virtual
#: machine, A/A comparisons on ``exhibits_fast`` and ``scene_50k`` moved
#: no median by more than 5.3 % (bounds 20-25 %), while sleeps injected
#: into ``Medium.begin_transmission`` failed the gate on both.
PAIRS = 3

SEED = 1


def _run(tree: Path, workload: str, benchmark: dict) -> str:
    """One benchmark run in ``tree``; returns its last stdout line."""
    argv = list(benchmark["command"]) + [
        "--workload", workload, "--seed", str(SEED),
        "--seconds", str(benchmark["run_seconds"]), "--trace", "0",
    ]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise RuntimeError(f"{tree}: {' '.join(argv)} exited "
                           f"{proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    return lines[-1] if lines else ""


def _change(base: float, head: float, better: str) -> float:
    """How much worse ``head`` is than ``base``, as a share of ``base``."""
    worse_by = head - base if better == "lower" else base - head
    return worse_by / base


def compare(base_lines: List[str], head_lines: List[str],
            benchmark: dict) -> Tuple[bool, List[str]]:
    """Compare the result lines of the two trees.

    Returns ``(ok, rows)``: one row per ``end_to_end`` metric of
    ``benchmark`` (base median, head median, how much worse head is as a
    share of base, the bound), plus one for failed operations.
    """
    ok = True
    results: Dict[str, List[dict]] = {
        "base": [json.loads(line) for line in base_lines],
        "head": [json.loads(line) for line in head_lines],
    }
    rows = [f"{'metric':<22} {'base':>10} {'head':>10} {'worse by':>9} "
            f"{'bound':>6}"]
    for metric in benchmark["end_to_end"]:
        name = metric["name"]
        base, head = (
            statistics.median(r["metrics"][name]["value"] for r in side)
            for side in results.values()
        )
        change = _change(base, head, metric["better"])
        failed = change > metric["bound"]
        ok = ok and not failed
        rows.append(f"{name:<22} {base:>10.4g} {head:>10.4g} {change:>+9.1%} "
                    f"{metric['bound']:>6.0%}{'  FAIL' if failed else ''}")
    counts = []
    bad = False
    for side in results.values():
        counts.append("%d/%d" % (sum(r["failed"] for r in side),
                                 sum(r["attempted"] for r in side)))
        bad = bad or any(not r["correct"] or r["failed"] > 0 for r in side)
    ok = ok and not bad
    rows.append(f"{'failed/attempted':<22} {counts[0]:>10} {counts[1]:>10}"
                f"{'  FAIL' if bad else ''}")
    return ok, rows


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print("usage: python3 benchmarks/perf_gate.py BASE_TREE WORKLOAD",
              file=sys.stderr)
        return 2
    base_tree, workload = Path(argv[0]).resolve(), argv[1]
    benchmark = json.loads((HEAD / "BENCHMARK.json").read_text())
    lines: Dict[str, List[str]] = {"base": [], "head": []}
    trees = {"base": base_tree, "head": HEAD}
    for pair in range(PAIRS):
        order = ("base", "head") if pair % 2 == 0 else ("head", "base")
        for side in order:
            print(f"pair {pair + 1}/{PAIRS}: {side} {workload}", flush=True)
            try:
                lines[side].append(_run(trees[side], workload, benchmark))
            except RuntimeError as exc:
                print(f"FAIL: {exc}")
                return 1
    try:
        ok, rows = compare(lines["base"], lines["head"], benchmark)
    except (ValueError, KeyError) as exc:
        print(f"FAIL: unreadable result line: {exc!r}")
        return 1
    print("\n".join(rows))
    print(f"{workload}: {'pass' if ok else 'FAIL'} ({PAIRS} pairs, "
          f"medians, head vs base {base_tree})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
