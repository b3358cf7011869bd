"""Tests of the benchmark itself: the trace, its counters and the output check.

    python3 -m pytest bench -q

They start real runs of every workload (about half a minute in all).
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import child  # noqa: E402
import run  # noqa: E402

SEED = 42

# Layer metrics each workload exists to exercise; each must be nonzero there.
EXERCISED = {
    "stream_packed": [
        "f2v.generate_stream.self_s", "f2v.generate_stream.calls", "f2v.take_bits.self_s",
        "f2v.words", "f2v.input_bits", "f2v.symbols", "cli.main.self_s", "cli.bytes_written",
        "mtype.quantize.self_s", "mtype.quantize.units", "tunstall.build_tunstall.self_s",
        "tunstall.leaves", "codetree.validate_complete.self_s", "f2v.build_code.self_s",
    ],
    "stream_text": [
        "cli.main.self_s", "cli.bytes_written", "f2v.generate_stream.self_s", "f2v.symbols",
        "mtype.quantize.self_s", "tunstall.build_tunstall.self_s",
    ],
    "sweep": [
        "mtype.quantize.self_s", "mtype.quantize.units", "tunstall.build_tunstall.self_s",
        "tunstall.leaves", "codetree.validate_complete.self_s", "codetree.product_codebook.self_s",
        "codetree.leaf_distribution.self_s", "block.build_block_code.self_s",
        "metrics.rate_report.self_s", "metrics.rate_report.calls", "f2v.build_code.self_s",
        "cli.bytes_written",
    ],
}

LARGEST_SELF_TIME = {
    "stream_packed": "f2v.generate_stream",
    "stream_text": "cli.main",
    "sweep": "mtype.quantize",
}


@pytest.fixture(scope="module")
def scratch():
    with run.scratch_dir("tests") as path:
        yield path


@pytest.fixture(scope="module")
def traced(scratch):
    """Two traced runs of every workload on one seed; each keeps its outputs."""
    runs = {}
    for name in run.WORKLOADS:
        pair = []
        for i in range(2):
            where = scratch / f"{name}-{i}"
            where.mkdir()
            pair.append((run.run_once(run.WORKLOADS[name], SEED, True, where), where))
        runs[name] = pair
    return runs


def test_every_binding_of_a_traced_function_is_wrapped():
    sys.path.insert(0, str(run.SRC))
    import rescode.cli

    originals = {name: getattr(getattr(rescode, module), attr) for module, attr, name in child.FUNCTIONS}
    tracer = child.Tracer()
    sites = set(tracer.install())
    try:
        for expected in [("rescode.cli", "main"), ("rescode.f2v", "build_code"),
                         ("rescode.metrics", "build_code"), ("rescode", "build_code"),
                         ("rescode.tunstall", "validate_complete"), ("rescode.block", "product_codebook"),
                         ("rescode.block", "leaf_distribution"), ("rescode", "quantize"),
                         ("rescode.f2v.RandomBitSource", "take_bits"),
                         ("rescode.f2v.ArrayBitSource", "take_bits")]:
            assert expected in sites
        package = [m for n, m in sys.modules.items() if n == "rescode" or n.startswith("rescode.")]
        for name, original in originals.items():
            for module in package:
                assert all(value is not original for value in vars(module).values()), name
    finally:
        tracer.uninstall()
    assert rescode.f2v.build_code is originals["f2v.build_code"]
    assert rescode.metrics.build_code is originals["f2v.build_code"]


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_runs_pass_and_counters_repeat_exactly(traced, name):
    (first, _), (second, _) = traced[name]
    assert first.problem is None and second.problem is None
    assert run._work(first) == run._work(second)


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_layer_metrics_are_nonzero_where_exercised(traced, name):
    values = run.per_layer([r for r, _ in traced[name]])
    for metric in EXERCISED[name]:
        assert values[metric] > 0, metric
    if name == "sweep":
        assert values["f2v.generate_stream.calls"] == 0
        assert values["f2v.symbols"] == 0


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_largest_self_time(traced, name):
    self_s = traced[name][0][0].trace["self_s"]
    assert max(self_s, key=self_s.get) == LARGEST_SELF_TIME[name]


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_self_times_add_up_to_the_traced_wall_time(traced, name):
    for r, _ in traced[name]:
        total = sum(r.trace["self_s"].values())
        assert abs(total - r.wall_s) <= 0.002 + 0.01 * r.wall_s
        assert r.trace["overhead_s"] > 0


@pytest.mark.parametrize("name, fname", [("stream_packed", "stream.out"), ("sweep", "grid.csv")])
def test_one_flipped_byte_fails_the_run(traced, scratch, name, fname):
    good, where = traced[name][0]
    run.judge(name, SEED, [good], scratch)
    assert good.problem is None

    path = where / "out" / fname
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0x01
    path.write_bytes(bytes(data))
    workload = run.WORKLOADS[name]
    flipped = run.Run(problem=None, wall_s=good.wall_s, trace=good.trace)
    report = f"input_bits={good.words * getattr(workload, 'm', 0)} output_symbols={good.symbols}"
    workload.inspect(flipped, where / "out", report)
    assert flipped.problem is None
    run.judge(name, SEED, [flipped], scratch)
    assert flipped.problem is not None


def test_fails_without_the_program(scratch):
    bare = scratch / "bare"
    shutil.copytree(run.BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", "sweep", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=bare, capture_output=True,
                          text=True, timeout=180)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
    shutil.rmtree(bare)
