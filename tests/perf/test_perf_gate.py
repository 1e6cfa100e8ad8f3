"""The base-vs-head benchmark gate's comparison rule.

``benchmarks/perf_gate.py`` is a standalone script, so it is loaded by
path.  Its comparison function is fed synthetic result lines, shaped like
the last stdout line of ``perfbench/run.py``, against the committed
``BENCHMARK.json``; no benchmark process is started.
"""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

_spec = importlib.util.spec_from_file_location(
    "perf_gate", ROOT / "benchmarks" / "perf_gate.py"
)
perf_gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(perf_gate)

BASE_VALUES = {
    "setup_s": 1.6,
    "wall_s": 4.2,
    "first_tx_s": 1.5,
    "steady_us_per_signal": 11.5,
    "peak_rss_mb": 450.0,
}


def _line(failed=0, **overrides):
    values = dict(BASE_VALUES, **overrides)
    return json.dumps({
        "correct": failed == 0,
        "attempted": 4,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": "s"}
                    for name, value in values.items()},
    })


def _compare(base, head):
    return perf_gate.compare(base, head, BENCHMARK)


def test_identical_medians_pass():
    ok, rows = _compare([_line()] * 3, [_line()] * 3)
    assert ok
    # A header, one row per end-to-end metric, one for failed operations.
    assert len(rows) == len(BENCHMARK["end_to_end"]) + 2
    assert not any("FAIL" in row for row in rows)


def test_head_wall_time_25_percent_over_base_fails():
    base_wall = BASE_VALUES["wall_s"]
    ok, rows = _compare(
        [_line()] * 3, [_line(wall_s=1.25 * base_wall)] * 3
    )
    assert not ok
    failing = [row for row in rows if "FAIL" in row]
    assert len(failing) == 1 and failing[0].startswith("wall_s")


def test_improvement_passes():
    ok, _rows = _compare(
        [_line()] * 3,
        [_line(wall_s=0.5 * BASE_VALUES["wall_s"],
               peak_rss_mb=0.5 * BASE_VALUES["peak_rss_mb"])] * 3,
    )
    assert ok


def test_gate_uses_medians_not_single_runs():
    slow = _line(wall_s=2 * BASE_VALUES["wall_s"])
    ok, _rows = _compare([_line()] * 3, [_line(), slow, _line()])
    assert ok


@pytest.mark.parametrize("side", ["base", "head"])
def test_a_failed_operation_on_either_side_fails(side):
    lines = {"base": [_line()] * 3, "head": [_line()] * 3}
    lines[side] = [_line(), _line(failed=1), _line()]
    ok, rows = _compare(lines["base"], lines["head"])
    assert not ok
    assert "FAIL" in rows[-1]
