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

