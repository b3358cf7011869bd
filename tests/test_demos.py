"""Every demo runs end to end."""

import runpy
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("[0-9][0-9]_*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(path, capsys, monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out
