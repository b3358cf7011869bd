"""The demos run end to end; 06 is left out because its m = 20 quantize takes seconds."""

import runpy
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("0[1-5]_*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(path, capsys, monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out
