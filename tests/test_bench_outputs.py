"""The benchmark's pinned outputs, made in-process by the commands its workloads run, and its trace's wrapping.

bench/run.py is imported read-only for its workload commands, and the
digests come from bench/reference.json: the sweep's two CSVs and seed 42
of each stream.  bench/test_bench.py is imported read-only for its check
that the trace wraps every binding of each traced function: the trace
finds them by module and name, so a function renamed or moved in src/
would break every traced run.
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


def test_the_trace_wraps_every_binding_of_a_traced_function(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the bench tests put bench/ and src/ on the path
    spec = importlib.util.spec_from_file_location("bench_test_bench", BENCH / "test_bench.py")
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)  # imports bench/child.py and bench/run.py as child and run
        module.test_every_binding_of_a_traced_function_is_wrapped()
    finally:
        for name in ("child", "run"):
            sys.modules.pop(name, None)


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
