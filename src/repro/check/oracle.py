"""Differential oracle: fast path vs brute-force reference path.

The medium's fast path (culled, cached audible sets, batched fading draws,
precomputed per-receiver gains, incremental power accumulators) claims
*exactness*: a fixed seed must produce the same behaviour as the plain
algorithm.  The oracle turns that claim into a machine check.
``diff_exhibit`` runs one exhibit twice —

1. the **fast path** (default ``Medium``), and
2. the **reference path** (``Medium(reference=True)``: brute-force
   fan-out over every radio plus per-probe mask re-evaluation in the
   radio power sums)

— with tracing enabled and runtime invariants armed on both, then
compares the two runs trace record by trace record and the produced
:class:`~repro.experiments.results.ResultTable` JSON byte by byte.  Every
simulator the exhibit builds joins the session, whether it comes from a
:class:`~repro.net.deployment.Deployment` or is built directly.  The
report names the *first divergence*: which world, which record index,
what each path saw, plus the records leading up to it.

Used by ``python -m repro check diff <exhibit>`` and the CI ``check``
job.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional, Tuple

from .invariants import CheckConfig, InvariantChecker
from .runtime import CheckSession

__all__ = ["TraceDivergence", "DiffReport", "diff_exhibit", "run_traced"]

#: Matching records shown before the first divergence.
CONTEXT_RECORDS = 3


@dataclass(frozen=True)
class TraceDivergence:
    """First point where the fast and reference traces disagree."""

    deployment_index: int
    record_index: int
    fast_record: Optional[str]
    reference_record: Optional[str]
    context: Tuple[str, ...] = ()

    def describe(self) -> str:
        lines = [
            f"first divergence: world #{self.deployment_index}, "
            f"trace record #{self.record_index}",
        ]
        for record in self.context:
            lines.append(f"    ... {record}")
        lines.append(f"    fast      : {self.fast_record or '<trace ended>'}")
        lines.append(
            f"    reference : {self.reference_record or '<trace ended>'}"
        )
        return "\n".join(lines)


@dataclass
class DiffReport:
    """Outcome of one differential-oracle run."""

    exhibit_id: str
    seed: int
    fast_profile: bool
    deployments: int = 0
    records_compared: int = 0
    divergence: Optional[TraceDivergence] = None
    tables_match: bool = True
    invariant_summaries: Tuple[str, str] = ("", "")
    notes: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.divergence is None and self.tables_match

    def describe(self) -> str:
        profile = "fast" if self.fast_profile else "paper"
        head = (
            f"check diff {self.exhibit_id} (seed {self.seed}, "
            f"profile {profile}): {self.deployments} world(s), "
            f"{self.records_compared} trace records compared"
        )
        lines = [head]
        lines.extend(self.notes)
        if self.divergence is not None:
            lines.append(self.divergence.describe())
        if not self.tables_match:
            lines.append(
                "ResultTable JSON differs between fast and reference paths"
            )
        if self.ok:
            lines.append("fast and reference paths are trace-identical")
            for label, summary in zip(
                ("fast", "reference"), self.invariant_summaries
            ):
                if summary:
                    lines.append(f"  [{label}] {summary}")
        return "\n".join(lines)


# ----------------------------------------------------------------------
def run_traced(
    exhibit_id: str,
    seed: int = 1,
    fast: bool = True,
    *,
    reference: bool = False,
    checker: Optional[InvariantChecker] = None,
) -> Tuple[Any, List[Any]]:
    """Run one registered exhibit inside an instrumented session.

    Returns ``(table, traces)`` where ``traces`` are the per-simulator
    :class:`~repro.sim.trace.Trace` objects in construction order.
    """
    from ..experiments.registry import get
    from ..phy.frame import reset_frame_ids

    experiment = get(exhibit_id)
    session = CheckSession(reference=reference, checker=checker)
    # Frame ids come from a process-global counter and exist only to
    # correlate trace records; restart it so both oracle legs allocate
    # identical ids and records can be compared verbatim.
    reset_frame_ids()
    with session:
        table = experiment.run(seed=seed, fast=fast)
    return table, session.traces


def _record_key(record: Any) -> Tuple[float, str, tuple]:
    return (record.time, record.kind, tuple(sorted(record.fields.items())))


def _compare_traces(
    fast_traces: List[Any], ref_traces: List[Any]
) -> Tuple[int, Optional[TraceDivergence]]:
    """Record-by-record comparison; returns (records compared, divergence)."""
    compared = 0
    for dep_index, (ft, rt) in enumerate(zip(fast_traces, ref_traces)):
        fast_records = ft.records
        ref_records = rt.records
        limit = min(len(fast_records), len(ref_records))
        for i in range(limit):
            compared += 1
            fr, rr = fast_records[i], ref_records[i]
            if _record_key(fr) != _record_key(rr):
                context = tuple(
                    str(r)
                    for r in fast_records[max(0, i - CONTEXT_RECORDS):i]
                )
                return compared, TraceDivergence(
                    dep_index, i, str(fr), str(rr), context
                )
        if len(fast_records) != len(ref_records):
            i = limit
            context = tuple(
                str(r) for r in fast_records[max(0, i - CONTEXT_RECORDS):i]
            )
            return compared, TraceDivergence(
                dep_index,
                i,
                str(fast_records[i]) if i < len(fast_records) else None,
                str(ref_records[i]) if i < len(ref_records) else None,
                context,
            )
    return compared, None


def diff_exhibit(
    exhibit_id: str,
    seed: int = 1,
    fast: bool = True,
    *,
    invariants: bool = True,
    check_config: Optional[CheckConfig] = None,
) -> DiffReport:
    """Run the differential oracle on one exhibit.

    Raises :class:`~repro.check.invariants.InvariantViolation` if either
    run breaks a runtime invariant (when ``invariants`` is on); returns
    a :class:`DiffReport` whose ``ok`` reflects trace and table
    equality.
    """
    fast_checker = InvariantChecker(check_config) if invariants else None
    ref_checker = InvariantChecker(check_config) if invariants else None

    fast_table, fast_traces = run_traced(
        exhibit_id, seed, fast, reference=False, checker=fast_checker
    )
    ref_table, ref_traces = run_traced(
        exhibit_id, seed, fast, reference=True, checker=ref_checker
    )

    report = DiffReport(
        exhibit_id=exhibit_id,
        seed=seed,
        fast_profile=fast,
        deployments=len(fast_traces),
        invariant_summaries=(
            fast_checker.summary() if fast_checker else "",
            ref_checker.summary() if ref_checker else "",
        ),
    )
    if len(fast_traces) != len(ref_traces):
        # Deployment *count* differing would mean the exhibit itself is
        # non-deterministic — report it as a divergence at record 0.
        report.divergence = TraceDivergence(
            min(len(fast_traces), len(ref_traces)),
            0,
            f"<{len(fast_traces)} deployments>",
            f"<{len(ref_traces)} deployments>",
        )
        return report

    report.records_compared, report.divergence = _compare_traces(
        fast_traces, ref_traces
    )
    report.tables_match = fast_table.to_json() == ref_table.to_json()
    if report.deployments == 0:
        report.notes.append(
            "note: exhibit built no simulator — only table JSON compared"
        )
    return report
