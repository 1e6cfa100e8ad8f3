"""Benchmarks regenerating every registered exhibit in its fast profile.

One test per id in ``repro.experiments.registry``, so a newly registered
exhibit is benchmarked without a new file.  Each exhibit runs exactly once
(simulation experiments are seconds-long; statistical repetition is what
the multi-seed paper profile is for) and its table is attached to the
benchmark record as ``extra_info``, so `pytest-benchmark`'s JSON output
carries the reproduced numbers alongside the timing.

Run one exhibit with ``pytest benchmarks/bench_exhibits.py -k fig19
--benchmark-only -s``.
"""

import pytest

from repro.experiments.registry import all_ids, get


@pytest.mark.parametrize("experiment_id", all_ids())
def test_exhibit(benchmark, experiment_id):
    experiment = get(experiment_id)
    table = benchmark.pedantic(
        lambda: experiment.run(seed=1, fast=True), rounds=1, iterations=1
    )
    benchmark.extra_info["exhibit"] = experiment.paper_exhibit
    benchmark.extra_info["description"] = experiment.description
    benchmark.extra_info["rows"] = [
        {k: (round(v, 3) if isinstance(v, float) else v) for k, v in row.items()}
        for row in table.rows
    ]
    benchmark.extra_info["notes"] = table.notes
    assert table.rows, f"experiment {experiment_id} produced no rows"
    print()
    print(table.to_text())
