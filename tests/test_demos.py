"""Every demo script runs to the end against the current API."""

import runpy
import tempfile
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=lambda path: path.name)
def test_demo_runs(path, tmp_path, monkeypatch, capsys):
    # Demo 04 writes its grid to a temporary directory, which it removes;
    # the harness would start a worker pool if COHSMIX_THREADS asked for
    # one.
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    monkeypatch.delenv("COHSMIX_THREADS", raising=False)
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out
