"""Differential-oracle tests: trace comparison and end-to-end diffs."""

from types import SimpleNamespace

import pytest

from repro.check.oracle import (
    DiffReport,
    TraceDivergence,
    _compare_traces,
    diff_exhibit,
    run_traced,
)
from repro.sim.trace import TraceRecord


def _trace(records):
    return SimpleNamespace(records=records)


def rec(time, kind, **fields):
    return TraceRecord(time, kind, fields)


# ----------------------------------------------------------------------
# Pure comparison logic.


def test_identical_traces_compare_clean():
    records = [rec(0.1, "tx_start", frame=1), rec(0.2, "tx_end", frame=1)]
    compared, divergence = _compare_traces([_trace(records)],
                                           [_trace(list(records))])
    assert compared == 2 and divergence is None


def test_first_divergence_reported_with_context():
    fast = [rec(0.1, "a", x=1), rec(0.2, "b", x=2), rec(0.3, "c", x=3)]
    ref = [rec(0.1, "a", x=1), rec(0.2, "b", x=2), rec(0.3, "c", x=99)]
    compared, divergence = _compare_traces([_trace(fast)], [_trace(ref)])
    assert compared == 3
    assert divergence.deployment_index == 0
    assert divergence.record_index == 2
    assert "x=3" in divergence.fast_record
    assert "x=99" in divergence.reference_record
    # Context shows the records leading up to the divergence.
    text = divergence.describe()
    assert "first divergence" in text
    assert "x=2" in text  # preceding record included as context


def test_length_mismatch_is_divergence():
    fast = [rec(0.1, "a", x=1), rec(0.2, "b", x=2)]
    ref = [rec(0.1, "a", x=1)]
    _, divergence = _compare_traces([_trace(fast)], [_trace(ref)])
    assert divergence is not None
    assert divergence.record_index == 1
    assert divergence.reference_record is None  # reference trace ended


def test_divergence_in_second_deployment_indexed_correctly():
    same = [rec(0.1, "a", x=1)]
    fast2 = [rec(0.5, "b", y=1)]
    ref2 = [rec(0.5, "b", y=2)]
    _, divergence = _compare_traces(
        [_trace(same), _trace(fast2)], [_trace(list(same)), _trace(ref2)]
    )
    assert divergence.deployment_index == 1
    assert divergence.record_index == 0


def test_field_order_does_not_matter():
    fast = [TraceRecord(0.1, "a", {"x": 1, "y": 2})]
    ref = [TraceRecord(0.1, "a", {"y": 2, "x": 1})]
    _, divergence = _compare_traces([_trace(fast)], [_trace(ref)])
    assert divergence is None


def test_report_ok_and_describe():
    report = DiffReport("figX", 1, True, deployments=2, records_compared=10)
    assert report.ok
    assert "figX" in report.describe()
    report.divergence = TraceDivergence(0, 3, "f", "r")
    assert not report.ok


# ----------------------------------------------------------------------
# End-to-end on a real (cheap) exhibit.


def test_run_traced_collects_deployment_traces():
    table, traces = run_traced("fig29", seed=1, fast=True)
    assert table.rows
    assert traces, "fig29 builds at least one deployment"
    assert all(t.records for t in traces)


@pytest.mark.slow
def test_diff_exhibit_fast_vs_reference_identical():
    """Acceptance: the PR-2 fast path is trace-identical to brute force."""
    report = diff_exhibit("fig29", seed=1, fast=True)
    assert report.ok, report.describe()
    assert report.records_compared > 100
    assert "invariants ok" in report.invariant_summaries[0]
    text = report.describe()
    assert "trace-identical" in text


@pytest.mark.slow
def test_diff_fig02_compares_directly_built_dot11_worlds(monkeypatch):
    """fig02 builds its two-link rigs without a Deployment; both legs
    must still capture traces, and the reference leg must really run the
    reference path (Dot11Radio delivery is compared, not skipped)."""
    from repro.sim.session import active_session
    from repro.phy.medium import Medium

    legs = []
    original = Medium.__init__

    def recording_init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        legs.append((active_session().reference, self.reference))

    monkeypatch.setattr(Medium, "__init__", recording_init)
    report = diff_exhibit("fig02", seed=1, fast=True)
    assert report.ok, report.describe()
    assert report.deployments > 0
    assert report.records_compared > 0
    assert {session for session, _ in legs} == {False, True}
    assert all(session == medium for session, medium in legs)


def test_unknown_exhibit_raises_key_error():
    with pytest.raises(KeyError):
        diff_exhibit("nope")
