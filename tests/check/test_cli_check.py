"""CLI surface of ``python -m repro check``."""

import pytest

from repro.__main__ import main


def test_check_diff_unknown_exhibit(capsys):
    assert main(["check", "diff", "fig999"]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_check_determinism_unknown_exhibit(capsys):
    assert main(["check", "determinism", "fig999"]) == 2
    assert "unknown experiment" in capsys.readouterr().err


@pytest.mark.slow
def test_check_diff_cli_on_fast_exhibit(capsys):
    assert main(["check", "diff", "fig29", "--fast"]) == 0
    out = capsys.readouterr().out
    assert "trace-identical" in out
    assert "invariants ok" in out


@pytest.mark.slow
def test_check_determinism_cli_on_fast_exhibit(capsys):
    assert main(["check", "determinism", "fig29", "--fast",
                 "--jobs", "2"]) == 0
    out = capsys.readouterr().out
    assert "byte-identical" in out
