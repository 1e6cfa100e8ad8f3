"""CLI + registry integration for the campaign engine (dummy exhibits)."""

import pytest

import repro.__main__ as cli
from repro.campaign.cache import ResultCache
from repro.campaign.jobs import JobSpec
from repro.experiments import registry as registry_module
from repro.experiments.registry import Experiment
from repro.experiments.results import ResultTable


def _dummy_run(seed=1, fast=True, **params):
    table = ResultTable(f"dummy seed={seed}")
    table.add_row(seed=seed, value=float(seed) * 2.0, fast=str(fast))
    return table


def _failing_run(seed=1, fast=True, **params):
    raise RuntimeError("always fails")


@pytest.fixture
def dummy_registry(monkeypatch):
    registry = {
        "d1": Experiment("d1", "Fig. D1", "dummy one", _dummy_run),
        "d2": Experiment("d2", "Fig. D2", "dummy two", _dummy_run),
    }
    monkeypatch.setattr(registry_module, "REGISTRY", registry)
    monkeypatch.setattr(cli, "REGISTRY", registry)
    return registry


# ------------------------------------------------------------------
# python -m repro campaign ...


def test_campaign_run_and_status_and_clean(dummy_registry, tmp_path, capsys):
    cache_dir = str(tmp_path / "cache")
    rc = cli.main(["campaign", "run", "--seeds", "1,2", "--jobs", "1",
                   "--fast", "--quiet", "--cache-dir", cache_dir,
                   "--aggregate"])
    assert rc == 0
    captured = capsys.readouterr()
    # summary line goes to stderr via ProgressPrinter.finish (even --quiet)
    assert "campaign: 4/4 ok" in captured.err
    assert "cache 0 hit / 4 miss" in captured.err
    assert "2 seeds" in captured.out  # aggregated tables printed

    rc = cli.main(["campaign", "status", "--cache-dir", cache_dir])
    assert rc == 0
    out = capsys.readouterr().out
    assert "entries           : 4" in out
    assert "d1" in out and "d2" in out

    # warm re-run: all hits
    rc = cli.main(["campaign", "run", "--seeds", "1,2", "--jobs", "1",
                   "--fast", "--quiet", "--cache-dir", cache_dir])
    assert rc == 0
    assert "cache 4 hit / 0 miss" in capsys.readouterr().err

    rc = cli.main(["campaign", "clean", "--cache-dir", cache_dir])
    assert rc == 0
    assert "removed 4" in capsys.readouterr().out


def test_campaign_run_seed_range_and_subset(dummy_registry, tmp_path, capsys):
    rc = cli.main(["campaign", "run", "--ids", "d1", "--seeds", "1-3",
                   "--quiet", "--no-cache"])
    assert rc == 0
    assert "campaign: 3/3 ok" in capsys.readouterr().err


def test_campaign_run_unknown_id(dummy_registry, capsys):
    rc = cli.main(["campaign", "run", "--ids", "zzz", "--quiet",
                   "--no-cache"])
    assert rc == 2
    assert "unknown exhibit ids" in capsys.readouterr().err


def test_campaign_run_reports_failures(dummy_registry, capsys):
    dummy_registry["bad"] = Experiment("bad", "Fig. B", "bad", _failing_run)
    rc = cli.main(["campaign", "run", "--ids", "bad", "--quiet", "--no-cache",
                   "--retries", "0"])
    assert rc == 1
    captured = capsys.readouterr()
    assert "1 failed" in captured.err
    assert "always fails" in captured.err


def test_version_bump_invalidates_cli_cache(dummy_registry, tmp_path, capsys):
    """End-to-end cache invalidation when ``repro.__version__`` changes."""
    cache_dir = tmp_path / "cache"
    spec = JobSpec.make("d1", seed=1)
    ResultCache(cache_dir, version="0.0.1").put(
        spec, _dummy_run(seed=1), 1.0
    )
    rc = cli.main(["campaign", "run", "--ids", "d1", "--seeds", "1",
                   "--quiet", "--cache-dir", str(cache_dir)])
    assert rc == 0
    # old-version entry was not served: this run was a miss
    assert "cache 0 hit / 1 miss" in capsys.readouterr().err
