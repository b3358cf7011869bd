"""Report-only scaling probe: the rows of the ROADMAP baseline table.

    python3 bench/probe.py

Each row runs in a fresh process (this script with ``--row``), so the peak
RSS read with wait4 is that row's own.  The probe is not a workload and
nothing is checked against its numbers; it shows how the layers scale
with N and M = 2^m, where the workloads sit at fixed sizes.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time

import run

PROBS = (0.211, 0.789)


def _tunstall(log_n: int) -> float:
    from rescode import Pmf, build_tunstall

    start = time.perf_counter()
    build_tunstall(Pmf(PROBS), 1 << log_n)
    return time.perf_counter() - start


def _quantize(log_m: int) -> float:
    from rescode import Pmf, build_tunstall, quantize

    target = build_tunstall(Pmf(PROBS), 1 << 12).leaf_probs
    start = time.perf_counter()
    quantize(target, 1 << log_m)
    return time.perf_counter() - start


def _stream_call(log_n: int) -> float:
    """Median time of generate_stream for one codeword: its fixed cost."""
    from rescode import Pmf, RandomBitSource, build_code, generate_stream

    code = build_code(Pmf(PROBS), 1 << log_n, log_n + 4)
    source = RandomBitSource(1)
    times = []
    for _ in range(7):
        start = time.perf_counter()
        generate_stream(code, source, 1)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


ROWS = {
    "build_tunstall N=2^12": (_tunstall, 12),
    "build_tunstall N=2^16": (_tunstall, 16),
    "build_tunstall N=2^18": (_tunstall, 18),
    "quantize N=2^12 M=2^16": (_quantize, 16),
    "quantize N=2^12 M=2^20": (_quantize, 20),
    "quantize N=2^12 M=2^22": (_quantize, 22),
    "generate_stream fixed cost per call N=2^16 m=20": (_stream_call, 16),
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--row", choices=ROWS, help="run one row in this process")
    args = parser.parse_args()
    if args.row:
        sys.path.insert(0, str(run.SRC))
        fn, arg = ROWS[args.row]
        seconds = fn(arg)
        print(json.dumps({"seconds": seconds, "numpy": sys.modules["numpy"].__version__}))
        return 0

    rows = []
    with run.scratch_dir("probe") as scratch:
        for name in ROWS:
            child = run.spawn([__file__, "--row", name], scratch, timeout=600)
            if child.code != 0:
                print(f"error: {name}: {child.stderr.strip()[-500:]}", file=sys.stderr)
                return 1
            record = json.loads(child.stdout.strip().splitlines()[-1])
            rows.append({"row": name, "seconds": record["seconds"], "peak_rss_mb": child.rss_mb})
            print(f"{name:48} {record['seconds']:10.4f} s {child.rss_mb:8.1f} MB", flush=True)
    print(json.dumps({"env": run.environment(None, record["numpy"]), "rows": rows}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
