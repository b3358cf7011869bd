"""The README's examples run as written, so a removed flag or name cannot linger in them."""

import re
import shlex
from pathlib import Path

import pytest

from rescode import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def fenced_block(heading: str, language: str) -> str:
    """The first ```language block after the line '## heading'."""
    section = README[README.index(f"\n## {heading}\n"):]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


COMMANDS = [line for line in fenced_block("Command line", "sh").splitlines() if line.startswith("rescode ")]


def test_the_command_block_has_every_subcommand():
    assert sorted({shlex.split(line)[1] for line in COMMANDS}) == ["curve", "generate", "quantize", "validate"]


@pytest.mark.parametrize("line", COMMANDS, ids=[shlex.split(line)[1] for line in COMMANDS])
def test_command_line_examples_exit_0(capsys, monkeypatch, tmp_path, line):
    monkeypatch.chdir(tmp_path)  # their --out files land here
    assert cli.main(shlex.split(line)[1:]) == 0


def test_library_quick_start_runs(capsys):
    exec(fenced_block("Library quick start", "python"), {})
