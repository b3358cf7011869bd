"""Every demo runs end to end."""

import runpy
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
DEMOS = sorted((TESTS.parent / "demos").glob("[0-9][0-9]_*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(path, capsys, monkeypatch):
    # A demo sees what it sees when run directly: no tests/ on sys.path, and none of its modules imported.
    monkeypatch.setattr(sys, "path", [p for p in sys.path if Path(p).resolve() != TESTS])
    for name, module in list(sys.modules.items()):
        if Path(getattr(module, "__file__", None) or "/").resolve().parent == TESTS:
            monkeypatch.delitem(sys.modules, name)
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out
