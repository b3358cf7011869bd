"""One measured run of a benchmark workload, in a fresh process.

run.py starts this script once per measured run with a JSON spec as its
only argument:

    {"src": "<checkout>/src", "trace": false,
     "commands": [{"argv": ["generate", ...], "outputs": ["<path>", ...]}, ...]}

It imports the program from ``src`` (never from an installed copy), calls
``rescode.cli.main(argv)`` once per command, one after another, and prints
one JSON record on stdout:

- ``imported``: ``time.monotonic()`` right after ``rescode.cli`` was
  imported.  The clock is system-wide, so the parent subtracts its own
  spawn time to get the set-up time.
- ``wall_s``: the summed wall time of the ``main()`` calls.
- ``wall_rel``: each call's wall time over the mean time of a fixed
  reference loop run just before and just after it, summed over the calls.
- ``ref_s``: the mean time of those reference loops.
- ``ref_before``: the first reference time, taken right after the import,
  which the parent uses to normalise the set-up time.
- ``numpy``: the numpy version the program ran with.
- ``trace`` (with tracing on): per-layer self times, call counts and work
  counters, and the estimated cost of the tracing itself.

The exit code is 0 only if every ``main()`` call returned 0.

Tracing wraps the public functions of each layer from outside the program:
every module of the package that binds a function gets the wrapper, so a
call through ``metrics.build_code`` is timed like one through
``f2v.build_code``.  A layer's self time is its wrapper's duration minus
the durations of the wrapped calls made inside it.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time

# (module, function, layer name); calls through every binding are traced.
FUNCTIONS = [
    ("cli", "main", "cli.main"),
    ("f2v", "build_code", "f2v.build_code"),
    ("f2v", "generate_stream", "f2v.generate_stream"),
    ("tunstall", "build_tunstall", "tunstall.build_tunstall"),
    ("codetree", "validate_complete", "codetree.validate_complete"),
    ("codetree", "product_codebook", "codetree.product_codebook"),
    ("codetree", "leaf_distribution", "codetree.leaf_distribution"),
    ("mtype", "quantize", "mtype.quantize"),
    ("block", "build_block_code", "block.build_block_code"),
    ("metrics", "rate_report", "metrics.rate_report"),
]

# (module, class, method, layer name): the bit sources' draw.
METHODS = [
    ("f2v", "RandomBitSource", "take_bits", "f2v.take_bits"),
    ("f2v", "ArrayBitSource", "take_bits", "f2v.take_bits"),
]

# Work counters, all zero until the layer that feeds them is called.
COUNTERS = ("f2v.words", "f2v.input_bits", "f2v.symbols", "cli.bytes_written",
            "mtype.quantize.units", "tunstall.leaves")


def _count_stream(counters, args, kwargs, result):
    code = args[0]
    counters["f2v.words"] += result.input_bits // code.m
    counters["f2v.input_bits"] += result.input_bits
    counters["f2v.symbols"] += result.output_symbols


def _count_units(counters, args, kwargs, result):
    counters["mtype.quantize.units"] += int(result.denominator)


def _count_leaves(counters, args, kwargs, result):
    counters["tunstall.leaves"] += len(result.codebook)


HOOKS = {
    "f2v.generate_stream": _count_stream,
    "mtype.quantize": _count_units,
    "tunstall.build_tunstall": _count_leaves,
}


class Tracer:
    """Self time, call count and work counters per layer, kept in memory."""

    def __init__(self):
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._open: list[float] = []  # time spent in wrapped children, per open span
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        self.self_s.setdefault(name, 0.0)
        self.calls.setdefault(name, 0)
        hook = HOOKS.get(name)
        open_spans = self._open
        clock = time.perf_counter

        def traced(*args, **kwargs):
            open_spans.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self.self_s[name] += elapsed - open_spans.pop()
                self.calls[name] += 1
                if open_spans:
                    open_spans[-1] += elapsed
            if hook is not None:
                hook(self.counters, args, kwargs, result)
            return result

        return traced

    def install(self) -> list[tuple[str, str]]:
        """Wrap every binding of the traced functions; returns the sites."""
        modules = {module: importlib.import_module(f"rescode.{module}") for module, _, _ in FUNCTIONS}
        package = {name: mod for name, mod in sys.modules.items()
                   if name == "rescode" or name.startswith("rescode.")}
        sites = []
        for module, attr, name in FUNCTIONS:
            original = getattr(modules[module], attr)
            traced = self.wrap(name, original)
            for mod_name, mod in sorted(package.items()):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, value))
                        setattr(mod, key, traced)
                        sites.append((mod_name, key))
        for module, cls_name, attr, name in METHODS:
            cls = getattr(modules[module], cls_name)
            original = vars(cls)[attr]
            self._undo.append((cls, attr, original))
            setattr(cls, attr, self.wrap(name, original))
            sites.append((f"rescode.{module}.{cls_name}", attr))
        return sites

    def uninstall(self) -> None:
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)

    def record(self) -> dict:
        total_calls = sum(self.calls.values())
        return {
            "self_s": self.self_s,
            "calls": self.calls,
            "counters": self.counters,
            "overhead_s": total_calls * _cost_per_traced_call(),
        }


def _cost_per_traced_call(calls: int = 20000) -> float:
    """Seconds one traced call adds, measured on a no-op function."""
    def noop():
        return None

    traced = Tracer().wrap("noop", noop)
    clock = time.perf_counter
    start = clock()
    for _ in range(calls):
        noop()
    plain = clock() - start
    start = clock()
    for _ in range(calls):
        traced()
    return max(0.0, (clock() - start - plain) / calls)


def reference_time() -> float:
    """Seconds for a fixed mix of interpreter and small numpy work (~80 ms).

    The machines this runs on are shared, and their speed drifts by a
    third or more for minutes at a time.  Divided by this loop's time in
    the same process, a wall time moves far less with that drift.  The
    arrays stay small so that the loop does not raise the peak RSS.
    """
    import heapq

    import numpy as np

    start = time.perf_counter()
    heap, digits = [], []
    for i in range(60000):
        heapq.heappush(heap, ((i * 7919) % 1000, i))
        digits.append(str(i % 10))
        if len(heap) > 64:
            heapq.heappop(heap)
    "".join(digits)
    values = np.arange(1 << 17, dtype=np.int64)
    for _ in range(8):
        np.cumsum((values * 3) % 7)
    return time.perf_counter() - start


def run(spec: dict) -> int:
    src = os.path.abspath(spec["src"])
    sys.path.insert(0, src)
    import rescode.cli

    imported = time.monotonic()
    if not os.path.abspath(rescode.cli.__file__).startswith(src + os.sep):
        print(f"rescode was imported from {rescode.cli.__file__}, not from {src}", file=sys.stderr)
        return 3

    tracer = Tracer() if spec["trace"] else None
    if tracer is not None:
        tracer.install()
    entry = rescode.cli.main
    refs = [reference_time()]
    walls = []
    codes = []
    written = 0
    for command in spec["commands"]:
        start = time.perf_counter()
        try:
            code = entry(command["argv"])
        except SystemExit as exc:
            code = exc.code
        walls.append(time.perf_counter() - start)
        codes.append(code)
        written += sum(os.path.getsize(p) for p in command["outputs"] if os.path.exists(p))
        refs.append(reference_time())

    wall_rel = sum(wall / ((refs[i] + refs[i + 1]) / 2) for i, wall in enumerate(walls))
    record = {"imported": imported, "wall_s": sum(walls), "wall_rel": wall_rel,
              "ref_s": sum(refs) / len(refs), "ref_before": refs[0],
              "numpy": sys.modules["numpy"].__version__}
    if tracer is not None:
        tracer.counters["cli.bytes_written"] = written
        record["trace"] = tracer.record()
    print(json.dumps(record))
    return 0 if all(code == 0 for code in codes) else 1


if __name__ == "__main__":
    sys.exit(run(json.loads(sys.argv[1])))
