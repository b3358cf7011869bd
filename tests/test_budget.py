"""The library's line budget: src/rescode/*.py, counted as wc -l counts, stays within the round's cap."""

from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "rescode"

LINE_BUDGET = 1400


def test_library_stays_within_its_line_budget():
    lines = sum(path.read_bytes().count(b"\n") for path in SRC.glob("*.py"))
    assert lines <= LINE_BUDGET
