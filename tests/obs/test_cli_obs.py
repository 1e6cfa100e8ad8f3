"""``python -m repro obs ...`` end-to-end on a tiny dummy exhibit."""

import json

import pytest

import repro.__main__ as cli
from repro.experiments import registry as registry_module
from repro.experiments.registry import Experiment
from repro.experiments.results import ResultTable

from .rig import run_rig


def _tiny_exhibit(seed=1, fast=True, **params):
    deployment = run_rig(seed=seed, run_s=0.05)
    table = ResultTable("tiny")
    table.add_row(seed=seed,
                  sent=deployment.node("N0.s0").mac.stats.sent)
    return table


def _no_deployment(seed=1, fast=True, **params):
    return ResultTable("empty")


@pytest.fixture
def tiny_registry(monkeypatch):
    registry = {
        "tiny": Experiment("tiny", "Fig. T", "tiny rig", _tiny_exhibit),
        "empty": Experiment("empty", "Fig. E", "no deployments",
                            _no_deployment),
    }
    monkeypatch.setattr(registry_module, "REGISTRY", registry)
    monkeypatch.setattr(cli, "REGISTRY", registry)
    return registry


def test_obs_summary_prints_tables(tiny_registry, capsys):
    rc = cli.main(["obs", "summary", "tiny", "--fast"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "per-node metrics" in out
    assert "per-channel metrics" in out
    assert "N0.s0" in out and "2460" in out
    assert "tiny: 1 run(s)," in out


def test_obs_summary_unknown_exhibit(tiny_registry, capsys):
    rc = cli.main(["obs", "summary", "zzz"])
    assert rc == 2
    assert "zzz" in capsys.readouterr().err


def test_obs_summary_no_deployments(tiny_registry, capsys):
    rc = cli.main(["obs", "summary", "empty"])
    assert rc == 1
    assert "built no simulators" in capsys.readouterr().err


def test_obs_timeline_writes_valid_trace(tiny_registry, tmp_path, capsys):
    out_path = tmp_path / "timeline.json"
    rc = cli.main(["obs", "timeline", "tiny", "-o", str(out_path),
                   "--seed", "2", "--fast"])
    assert rc == 0
    assert "perfetto" in capsys.readouterr().out
    document = json.loads(out_path.read_text())
    events = document["traceEvents"]
    assert events and {e["ph"] for e in events} >= {"M", "X"}
    manifest = document["metadata"]
    assert manifest["exhibit"] == "tiny"
    assert manifest["seed"] == 2
    assert manifest["profile"] == "fast"


def test_obs_export_then_tail(tiny_registry, tmp_path, capsys):
    out_path = tmp_path / "run.jsonl"
    rc = cli.main(["obs", "export", "tiny", "-o", str(out_path)])
    assert rc == 0
    capsys.readouterr()

    rc = cli.main(["obs", "tail", str(out_path), "-n", "3"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 3
    for line in lines:
        json.loads(line)

    rc = cli.main(["obs", "tail", str(out_path), "--kind", "manifest"])
    assert rc == 0
    (manifest_line,) = capsys.readouterr().out.strip().splitlines()
    manifest = json.loads(manifest_line)
    assert manifest["kind"] == "manifest" and manifest["exhibit"] == "tiny"


def test_obs_tail_missing_file(tiny_registry, tmp_path, capsys):
    rc = cli.main(["obs", "tail", str(tmp_path / "nope.jsonl")])
    assert rc == 2
    assert "cannot read" in capsys.readouterr().err


def test_obs_tail_rejects_non_positive_n(tiny_registry, tmp_path, capsys):
    """-n 0 must not dump the whole file (the records[-0:] slice wart)."""
    path = tmp_path / "run.jsonl"
    path.write_text('{"kind":"span"}\n{"kind":"span"}\n')
    for bad in ("0", "-3"):
        rc = cli.main(["obs", "tail", str(path), "-n", bad])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "-n must be >= 1" in captured.err


def test_obs_export_stream_covers_all_kinds(tiny_registry, tmp_path, capsys):
    out_path = tmp_path / "run.jsonl"
    rc = cli.main(["obs", "export", "tiny", "-o", str(out_path)])
    assert rc == 0
    kinds = {json.loads(line)["kind"]
             for line in out_path.read_text().splitlines()}
    assert kinds >= {"manifest", "span", "point", "counter"}
