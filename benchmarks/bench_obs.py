"""Micro-bench: telemetry cost on a representative exhibit run.

Three regimes of the same fixed-seed fig04 fast run:

- **disabled** — no ObsSession: the guard-only path (`sim.obs is None`
  checks) every ordinary run pays;
- **event-driven** — spans + counters, no gauge sampler (the campaign
  ``obs=True`` profile);
- **sampled** — full instrumentation including the periodic gauge
  sampler (the ``repro obs`` CLI profile).

A companion (non-benchmark) test asserts the acceptance criterion that
matters more than speed: all three regimes produce **byte-identical**
result tables at a fixed seed — telemetry is strictly passive.

Run with ``pytest benchmarks/bench_obs.py --benchmark-only -s``.
The disabled path has no gate of its own: obs is off in every
``perfbench`` workload, so its guard cost is inside every timing that
CI's base-vs-head gate (``benchmarks/perf_gate.py``) compares.  The
numbers here are informational.
"""

from __future__ import annotations

import json

from repro.experiments.registry import get
from repro.obs.runtime import ObsSession

EXHIBIT = "fig04"
SEED = 1


def _run_plain():
    return get(EXHIBIT).run(seed=SEED, fast=True)


def _run_observed(sample_interval_s):
    with ObsSession(sample_interval_s=sample_interval_s) as session:
        table = get(EXHIBIT).run(seed=SEED, fast=True)
    return table, session


def test_obs_disabled(benchmark):
    table = benchmark.pedantic(_run_plain, rounds=1, iterations=1)
    assert table.rows


def test_obs_event_driven(benchmark):
    table, session = benchmark.pedantic(
        lambda: _run_observed(None), rounds=1, iterations=1
    )
    assert table.rows
    snap = session.snapshot()
    benchmark.extra_info["spans"] = snap["spans"]
    benchmark.extra_info["runs"] = snap["runs"]


def test_obs_sampled(benchmark):
    table, session = benchmark.pedantic(
        lambda: _run_observed(0.01), rounds=1, iterations=1
    )
    assert table.rows
    snap = session.snapshot()
    benchmark.extra_info["spans"] = snap["spans"]
    benchmark.extra_info["samples"] = sum(
        r.samples_taken for r in session.recorders
    )


def test_fixed_seed_results_byte_identical_across_regimes():
    """Telemetry must never perturb results (the acceptance criterion)."""
    plain = _run_plain().to_json()
    event_driven = _run_observed(None)[0].to_json()
    sampled = _run_observed(0.01)[0].to_json()
    assert plain == event_driven == sampled
    json.loads(plain)  # sanity: comparable serialised form
