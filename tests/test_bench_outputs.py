"""The benchmark's pinned outputs, made in-process by the commands its workloads run.

bench/run.py is imported read-only for its workload commands, and the
digests come from bench/reference.json: the sweep's two CSVs and seed 42
of each stream.
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from rescode import cli

BENCH = Path(__file__).resolve().parent.parent / "bench"
SEED = 42


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up by name
    try:
        spec.loader.exec_module(module)
        yield module.WORKLOADS
    finally:
        del sys.modules[spec.name]


@pytest.mark.parametrize("name", ["sweep", "stream_packed", "stream_text"])
def test_workload_outputs_match_the_pinned_digests(workloads, name, tmp_path, capsys):
    digests = {}
    for command in workloads[name].commands(SEED, tmp_path):
        assert cli.main(command["argv"]) == 0
        for path in map(Path, command["outputs"]):
            digests[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    pinned = json.loads((BENCH / "reference.json").read_text())[name]
    if name == "sweep":
        assert digests == {"grid.csv": pinned["grid.csv"], "m18.csv": pinned["m18.csv"]}
    else:
        assert digests == {"stream.out": pinned[str(SEED)]}
