"""The library's line budget: src/rescode/*.py, counted as wc -l counts, stays within the round's cap."""

from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "rescode"

LINE_BUDGET = 1400


def test_library_stays_within_its_line_budget():
    counts = {path.name: path.read_bytes().count(b"\n") for path in sorted(SRC.glob("*.py"))}
    lines = sum(counts.values())
    per_module = ", ".join(f"{name} {count}" for name, count in counts.items())
    assert lines <= LINE_BUDGET, f"{lines} lines above the budget of {LINE_BUDGET}: {per_module}"
