"""Tests for ``repro perf profile`` and the perf CLI plumbing."""

import pstats

import pytest

from repro.__main__ import main
from repro.perf import profile_exhibit


def test_profile_exhibit_returns_hotspot_table():
    report = profile_exhibit("fig29", seed=1, fast=True, top=5)
    assert "function calls" in report
    assert "cumtime" in report  # pstats header
    # The hotspots are the repro package's own code, not the harness.
    assert "repro" in report


def test_profile_exhibit_dumps_raw_stats(tmp_path):
    out = tmp_path / "fig29.pstats"
    profile_exhibit("fig29", fast=True, top=3, out=str(out))
    stats = pstats.Stats(str(out))  # parses -> it is a valid pstats dump
    assert stats.total_calls > 0


def test_profile_exhibit_rejects_bad_sort():
    with pytest.raises(ValueError, match="sort"):
        profile_exhibit("fig29", sort="wallclock")


def test_profile_exhibit_unknown_exhibit_raises_keyerror():
    with pytest.raises(KeyError):
        profile_exhibit("fig999")


# ----------------------------------------------------------------------
# CLI plumbing
# ----------------------------------------------------------------------
def test_cli_perf_profile_unknown_exhibit_exits_2(capsys):
    assert main(["perf", "profile", "fig999"]) == 2
    assert "fig999" in capsys.readouterr().err


def test_cli_perf_profile_smoke(capsys):
    assert main(["perf", "profile", "fig29", "--fast", "--top", "3"]) == 0
    assert "function calls" in capsys.readouterr().out


def test_cli_perf_bench_missing_baseline_exits_2(tmp_path, capsys):
    code = main([
        "perf", "bench", "--quick",
        "--check", str(tmp_path / "nope.json"),
    ])
    assert code == 2
    assert "not found" in capsys.readouterr().err


@pytest.mark.slow
def test_cli_perf_bench_check_against_fresh_baseline(tmp_path, capsys):
    """Write a quick baseline, then gate a second run against it.

    The generous ``--tolerance`` is deliberate: this asserts the CLI
    plumbing (write -> load -> compare -> exit code), not machine speed —
    the test box may be under arbitrary load from parallel test workers.
    """
    out = tmp_path / "baseline.json"
    assert main(["perf", "bench", "--quick", "--out", str(out)]) == 0
    assert out.exists()
    assert main([
        "perf", "bench", "--quick", "--check", str(out),
        "--tolerance", "5.0",
    ]) == 0
    assert "within tolerance" in capsys.readouterr().out


def test_profile_scene_returns_hotspot_table():
    from repro.perf import profile_scene

    report = profile_scene(64, sim_s=0.002, top=5)
    assert "function calls" in report


def test_cli_perf_profile_scene_smoke(capsys):
    assert main(["perf", "profile", "--scene", "64", "--sim-s", "0.002"]) == 0
    assert "function calls" in capsys.readouterr().out


def test_cli_perf_profile_needs_exactly_one_target(capsys):
    assert main(["perf", "profile"]) == 2
    assert "--scene" in capsys.readouterr().err
    assert main(["perf", "profile", "fig29", "--scene", "64"]) == 2


# ----------------------------------------------------------------------
# Structured (--json) snapshots
# ----------------------------------------------------------------------
def test_profile_exhibit_writes_json_snapshot(tmp_path):
    import json

    out = tmp_path / "fig29.json"
    profile_exhibit("fig29", fast=True, top=4, json_out=str(out))
    snapshot = json.loads(out.read_text())
    assert snapshot["schema"] == 1
    assert snapshot["sort"] == "tottime"
    assert snapshot["total_calls"] > 0
    assert snapshot["total_time_s"] > 0.0
    assert 0 < len(snapshot["functions"]) <= 4
    # Records are sorted by the chosen key, descending.
    costs = [f["tottime_s"] for f in snapshot["functions"]]
    assert costs == sorted(costs, reverse=True)
    for record in snapshot["functions"]:
        assert "(" in record["function"]
        assert record["ncalls"] >= 1


def test_profile_json_respects_sort_key(tmp_path):
    import json

    out = tmp_path / "cum.json"
    profile_exhibit("fig29", fast=True, top=6, sort="cumtime",
                    json_out=str(out))
    snapshot = json.loads(out.read_text())
    assert snapshot["sort"] == "cumtime"
    costs = [f["cumtime_s"] for f in snapshot["functions"]]
    assert costs == sorted(costs, reverse=True)


def test_cli_perf_profile_json_smoke(tmp_path, capsys):
    import json

    out = tmp_path / "scene.json"
    assert main([
        "perf", "profile", "--scene", "64", "--sim-s", "0.002",
        "--json", str(out),
    ]) == 0
    assert json.loads(out.read_text())["functions"]
    assert "function calls" in capsys.readouterr().out


# ----------------------------------------------------------------------
# Bench CLI: --only and --compare
# ----------------------------------------------------------------------
def test_cli_perf_bench_only_unknown_exits_2(capsys):
    assert main(["perf", "bench", "--only", "no_such_bench"]) == 2
    assert "no_such_bench" in capsys.readouterr().err


def test_cli_perf_bench_compare_missing_baseline_exits_2(tmp_path, capsys):
    code = main([
        "perf", "bench", "--quick", "--only", "event_queue",
        "--compare", str(tmp_path / "nope.json"),
    ])
    assert code == 2
    assert "not found" in capsys.readouterr().err


def test_cli_perf_bench_only_with_compare(tmp_path, capsys):
    """--only restricts the suite; --compare prints per-bench deltas
    against a previous document without gating the exit code."""
    out = tmp_path / "base.json"
    assert main([
        "perf", "bench", "--only", "event_queue", "--out", str(out),
    ]) == 0
    capsys.readouterr()
    assert main([
        "perf", "bench", "--only", "event_queue", "--compare", str(out),
        "--out", str(tmp_path / "second.json"),
    ]) == 0
    printed = capsys.readouterr().out
    assert "per-bench deltas" in printed
    assert "event_queue" in printed
    assert "%" in printed


def test_cli_perf_bench_only_without_out_writes_nothing(
    tmp_path, monkeypatch, capsys
):
    """A subset run must never truncate the committed baseline: without
    --out nothing is written, BENCH_kernel.json included."""
    monkeypatch.chdir(tmp_path)
    baseline = tmp_path / "BENCH_kernel.json"
    baseline.write_text('{"committed": true}\n')
    assert main(["perf", "bench", "--only", "event_queue"]) == 0
    assert baseline.read_text() == '{"committed": true}\n'
    assert [p.name for p in tmp_path.iterdir()] == ["BENCH_kernel.json"]
    assert "wrote" not in capsys.readouterr().out
