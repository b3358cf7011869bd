"""Closed-loop benchmark of the rescode command line (standard library only).

    python3 bench/run.py --workload stream_packed --seed 42 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seconds 40

One client, closed loop: each measured run is a fresh process (child.py)
that imports the program from ``src/`` and calls ``rescode.cli.main(argv)``
once per command of the workload; the next run starts when the previous
one has exited.  Runs repeat until ``--seconds`` have passed (and at least
MIN_RUNS times); every metric is the median over the runs that passed.

End-to-end metrics (``--trace 0``): ``wall_rel`` (the wall time of the
``main()`` calls over that of a fixed reference loop timed around each
call in the same child; README.md says why), ``setup_s`` (spawn until ``rescode.cli`` is
imported, rescaled by the same reference loop to a machine on which the
loop takes REFERENCE_S) and ``peak_rss_mb`` (the child's maximum RSS, from
``wait4``).
``--trace 1`` runs the same loop with every layer wrapped and reports
per-layer self times, call counts and work counters instead.  The metric
names and units come from BENCHMARK.json.

A run fails when its process exits nonzero or times out, when the output
is malformed (too few symbols, wrong size, wrong CSV row count), or when
its bytes differ from the reference: the pinned sha256 in reference.json
for the sweep and for the pinned seeds, and the independent oracle
(oracle.py) for every seed of the stream workloads.  The last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it are for people.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_tmp"

MIN_RUNS = 3
RUN_TIMEOUT_S = 40
DEFAULT_SEED = 42
# Nominal time of child.reference_time(); set-up times are rescaled to it.
REFERENCE_S = 0.08


def _reference() -> dict:
    return json.loads((BENCH / "reference.json").read_text())


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@dataclass
class Run:
    """One measured child process and what its outputs showed."""

    problem: str | None
    wall_s: float = 0.0
    wall_rel: float = 0.0
    ref_s: float = 0.0
    ref_before: float = 0.0
    setup_s: float = 0.0
    rss_mb: float = 0.0
    digests: tuple = ()
    words: int = 0
    symbols: int = 0
    trace: dict | None = None
    numpy: str = "unknown"
    timed_out: bool = False


@dataclass(frozen=True)
class Stream:
    """``rescode generate`` of one seeded stream into one file."""

    p: str
    m: int
    size: int
    symbols: int
    format: str

    def commands(self, seed: int, out: Path) -> list[dict]:
        path = str(out / "stream.out")
        argv = ["generate", "--p", self.p, "--m", str(self.m), "--size", str(self.size),
                "--symbols", str(self.symbols), "--format", self.format,
                "--seed", str(seed), "--out", path]
        return [{"argv": argv, "outputs": [path]}]

    def inspect(self, run: Run, out: Path, stderr: str) -> None:
        match = re.search(r"input_bits=(\d+) output_symbols=(\d+)", stderr)
        if match is None:
            run.problem = "no input_bits/output_symbols report on stderr"
            return
        input_bits, symbols = int(match.group(1)), int(match.group(2))
        path = out / "stream.out"
        if symbols < self.symbols:
            run.problem = f"output_symbols={symbols} < requested {self.symbols}"
        elif input_bits % self.m:
            run.problem = f"input_bits={input_bits} is not a whole number of {self.m}-bit words"
        elif not path.is_file() or path.stat().st_size != self.file_size(symbols):
            run.problem = f"output size does not match {symbols} symbols"
        else:
            run.words, run.symbols, run.digests = input_bits // self.m, symbols, (_sha256(path),)

    def file_size(self, symbols: int) -> int:
        if self.format == "text":
            return symbols + -(-symbols // 64)
        width = max(1, (len(self.p.split(",")) - 1).bit_length())
        return -(-symbols * width // 8)

    def expected(self, name: str, seed: int, words: int, scratch: Path) -> tuple:
        spec = {"src": str(SRC), "p": self.p, "m": self.m, "size": self.size,
                "format": self.format, "seed": seed, "words": words}
        child = spawn([str(BENCH / "oracle.py"), json.dumps(spec)], scratch)
        if child.code != 0:
            raise RuntimeError(f"oracle failed: {child.stderr.strip()[-500:]}")
        digest = child.stdout.strip()
        pinned = _reference()[name].get(str(seed))
        if pinned is not None and pinned != digest:
            raise RuntimeError(f"oracle disagrees with the pinned digest for seed {seed}")
        return (digest,)


@dataclass(frozen=True)
class Sweep:
    """``rescode curve`` commands; the output does not depend on the seed."""

    curves: tuple  # (file name, CSV rows, curve arguments)

    def commands(self, seed: int, out: Path) -> list[dict]:
        return [{"argv": ["curve", *args, "--out", str(out / fname)], "outputs": [str(out / fname)]}
                for fname, _, args in self.curves]

    def inspect(self, run: Run, out: Path, stderr: str) -> None:
        digests = []
        for fname, rows, _ in self.curves:
            path = out / fname
            if not path.is_file():
                run.problem = f"{fname} was not written"
                return
            lines = path.read_bytes().count(b"\n")
            if lines != 1 + rows:
                run.problem = f"{fname} has {lines - 1} rows, expected {rows}"
                return
            digests.append(_sha256(path))
        run.digests = tuple(digests)

    def expected(self, name: str, seed: int, words: int, scratch: Path) -> tuple:
        pinned = _reference()[name]
        return tuple(pinned[fname] for fname, _, _ in self.curves)


# Why each workload is here: bench/README.md.
WORKLOADS = {
    "stream_packed": Stream(p="0.211,0.789", m=12, size=3072, symbols=20_000_000, format="packed"),
    "stream_text": Stream(p="0.5,0.3,0.2", m=16, size=16385, symbols=3_000_000, format="text"),
    "sweep": Sweep(curves=(
        ("grid.csv", 28, ("--p", "0.211,0.789", "--grid-table", "default", "--schemes", "f2v,b2b")),
        ("m18.csv", 2, ("--p", "0.211,0.789", "--m", "18", "--n-list", "16", "--schemes", "f2v,b2b")),
    )),
}


@dataclass
class Spawned:
    code: int
    stdout: str
    stderr: str
    started: float
    rss_mb: float
    timed_out: bool = False


def spawn(args: list[str], scratch: Path, timeout: float = RUN_TIMEOUT_S) -> Spawned:
    """Run ``python3 <args>`` in ROOT and reap it with wait4 for its peak RSS."""
    with tempfile.TemporaryFile(dir=scratch) as out, tempfile.TemporaryFile(dir=scratch) as err:
        started = time.monotonic()
        proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, stdout=out, stderr=err)
        status = usage = None
        try:
            while status is None and time.monotonic() - started <= timeout:
                pid, wait_status, wait_usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    status, usage = wait_status, wait_usage
                else:
                    time.sleep(0.005)
        finally:
            timed_out = status is None
            if timed_out:
                proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Spawned(code=proc.returncode, stdout=out.read().decode(), stderr=err.read().decode(),
                       started=started, rss_mb=usage.ru_maxrss / 1024, timed_out=timed_out)


def run_once(workload, seed: int, trace: bool, scratch: Path) -> Run:
    """One child process; its outputs stay in ``scratch/out`` until the next run."""
    out = scratch / "out"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir()
    spec = {"src": str(SRC), "trace": trace, "commands": workload.commands(seed, out)}
    child = spawn([str(BENCH / "child.py"), json.dumps(spec)], scratch)
    if child.timed_out:
        return Run(problem=f"timed out after {RUN_TIMEOUT_S} s", timed_out=True)
    if child.code != 0:
        return Run(problem=f"exit code {child.code}: {child.stderr.strip()[-500:]}")
    record = json.loads(child.stdout.strip().splitlines()[-1])
    run = Run(problem=None, wall_s=record["wall_s"], wall_rel=record["wall_rel"], ref_s=record["ref_s"],
              ref_before=record["ref_before"],
              setup_s=record["imported"] - child.started,
              rss_mb=child.rss_mb, trace=record.get("trace"), numpy=record["numpy"])
    workload.inspect(run, out, child.stderr)
    return run


def judge(name: str, seed: int, runs: list[Run], scratch: Path) -> None:
    """Fail every run whose outputs differ from the reference (or from each other's work)."""
    passed = [r for r in runs if r.problem is None]
    if not passed:
        return
    try:
        expected = WORKLOADS[name].expected(name, seed, passed[0].words, scratch)
    except RuntimeError as exc:
        for r in passed:
            r.problem = str(exc)
        return
    for r in passed:
        if r.digests != expected:
            r.problem = "output bytes differ from the reference"
        elif r.trace is not None and _work(r) != _work(passed[0]):
            r.problem = "work counters differ between runs of one seed"


def _work(run: Run) -> tuple:
    return run.trace["calls"], run.trace["counters"]


@contextlib.contextmanager
def scratch_dir(name: str):
    """A private directory under SCRATCH; SCRATCH goes too once it is empty."""
    path = SCRATCH / f"{name}-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            SCRATCH.rmdir()


def measure(name: str, seed: int, seconds: float, trace: bool) -> list[Run]:
    with scratch_dir(name) as scratch:
        runs = []
        deadline = time.monotonic() + seconds
        while len(runs) < MIN_RUNS or time.monotonic() < deadline:
            runs.append(run_once(WORKLOADS[name], seed, trace, scratch))
            if runs[-1].timed_out:
                break
        judge(name, seed, runs, scratch)
        return runs


def end_to_end(runs: list[Run]) -> dict:
    values = {
        "wall_rel": statistics.median(r.wall_rel for r in runs),
        "setup_s": statistics.median(r.setup_s / r.ref_before for r in runs) * REFERENCE_S,
        "setup_raw_s": statistics.median(r.setup_s for r in runs),
        "peak_rss_mb": statistics.median(r.rss_mb for r in runs),
        "wall_s": statistics.median(r.wall_s for r in runs),
        "ref_s": statistics.median(r.ref_s for r in runs),
    }
    if runs[0].symbols:
        values["msym_per_s"] = statistics.median(r.symbols / r.wall_s / 1e6 for r in runs)
    return values


def per_layer(runs: list[Run]) -> dict:
    first = runs[0].trace
    values = {}
    for layer in first["self_s"]:
        values[f"{layer}.self_s"] = statistics.median(r.trace["self_s"][layer] for r in runs)
        values[f"{layer}.calls"] = first["calls"][layer]
    values.update(first["counters"])
    values["trace.wall_s"] = statistics.median(r.wall_s for r in runs)
    values["trace.overhead_s"] = statistics.median(r.trace["overhead_s"] for r in runs)
    return values


def environment(seed: int | None, numpy: str) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                                  env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
                                  timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            done = None
        if done is not None and done.returncode == 0:
            commit = done.stdout.strip()
    return {
        "python": sys.version.split()[0],
        "numpy": numpy,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "commit": commit,
        "seed": seed,
    }


# Units of the values printed for people only, beside those in BENCHMARK.json.
HUMAN_UNITS = {"wall_s": "s", "ref_s": "s", "setup_raw_s": "s", "msym_per_s": "Msym/s", "fail_frac": "1"}


def report(name: str, seed: int, seconds: float, trace: bool) -> dict | None:
    """Measure one workload, print the human lines and return the result object."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if trace else "end_to_end"]
    runs = measure(name, seed, seconds, trace)
    passed = [r for r in runs if r.problem is None]
    failed = len(runs) - len(passed)
    for problem in sorted({r.problem for r in runs if r.problem}):
        print(f"{name}: run failed: {problem}", file=sys.stderr)
    if not passed:
        return None

    values = per_layer(passed) if trace else end_to_end(passed)
    values["fail_frac"] = failed / len(runs)
    units = {**HUMAN_UNITS, **{m["name"]: m["unit"] for m in declared}}
    print(f"== {name} (seed {seed}, {len(runs)} runs, {'traced' if trace else 'untraced'})")
    for metric, value in values.items():
        print(f"{metric:34} {value if isinstance(value, int) else f'{value:.6g}'} {units[metric]}")
    print("env " + json.dumps(environment(seed, passed[0].numpy)))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    return {"correct": failed == 0, "attempted": len(runs), "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "rescode" / "cli.py").is_file():
        print(f"error: the program's source is missing ({SRC / 'rescode'})", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = [report(name, args.seed, args.seconds, bool(args.trace)) for name in names]
    if any(result is None for result in results):
        print("error: no run passed; no result to report", file=sys.stderr)
        return 1
    for result in results:
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
