"""Command-line front end.

Subcommands:
  curve     sweep (m, n) grid points and write one CSV row per code
  generate  stream symbols from a seeded or file-backed bit source
  quantize  print the optimal M-type counts for a distribution
  validate  check the generated codeword distribution empirically

Exit codes: 0 success, 1 validation failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import tempfile
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import block, f2v, metrics, mtype, tunstall
from .probdist import Pmf, entropy, kl_divergence, variational_distance

CSV_HEADER = "scheme,m,N,n_bits,q,rate,entropy_rate,hv_rate,kl_bits,kl_bound_bits,exp_len"

# The default sweep: for each input length, the block lengths it is paired with.
DEFAULT_GRID = {6: (3, 4, 5, 6), 9: (5, 6, 7, 8, 9), 12: (8, 9, 10, 11, 12)}


def _parse_probs(text: str) -> Pmf:
    try:
        return Pmf([float(tok) for tok in text.split(",")])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _parse_int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _curve_point(job: tuple) -> tuple:
    scheme, m, size, probs = job
    p = Pmf(probs)
    if scheme == "b2b":
        code = block.build_block_code(p, size, m)
    else:
        code = f2v.build_code(p, size, m)
    r = metrics.rate_report(code, p)
    return (scheme, m, r.num_codewords, r.n_bits, r.q_bits, r.rate,
            r.entropy_rate, r.hv_rate, r.kl, r.kl_bound, r.exp_len)


def _format_row(row: tuple) -> str:
    scheme, m, n = row[0], row[1], row[2]
    return ",".join([scheme, str(m), str(n)] + [repr(float(v)) for v in row[3:]])


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".rescode-")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _reachable_size(d: int, size: int, round_size: bool) -> int:
    """The requested codebook size, or with round_size the largest valid one below it."""
    if tunstall.is_valid_size(d, size):
        return size
    if not round_size:
        raise SystemExit2(
            f"codebook size {size} is not reachable for alphabet size {d}; pass --round-size to round down"
        )
    return tunstall.round_size_down(d, size)


def _gnuplot_layout(rows: list[tuple], target_entropy: float) -> str:
    lines = [f"# target_entropy_bits = {target_entropy!r}", "# columns: rate kl_bits N"]
    seen = []
    for row in rows:
        key = (row[0], row[1])
        if key not in seen:
            seen.append(key)
    for scheme, m in seen:
        lines.append("")
        lines.append("")
        lines.append(f"# scheme={scheme} m={m}")
        for row in rows:
            if (row[0], row[1]) == (scheme, m):
                lines.append(f"{row[5]!r} {row[8]!r} {row[2]}")
    return "\n".join(lines) + "\n"


def cmd_curve(args) -> int:
    p = args.p
    if args.grid_table and (args.m or args.n_list):
        raise SystemExit2("--grid-table cannot be combined with --m/--n-list")
    if args.grid_table:
        pairs = [(m, n) for m, ns in sorted(DEFAULT_GRID.items()) for n in ns]
        m_values = sorted(DEFAULT_GRID)
    else:
        if not args.m:
            raise SystemExit2("either --grid-table or at least one --m is required")
        m_values = sorted(set(args.m))
        pairs = [(m, n) for m in m_values for n in (args.n_list or ())]
    if not pairs and not args.extra_size:
        raise SystemExit2("no codebook sizes requested: give --n-list, --grid-table, or --extra-size")
    schemes = sorted(set(args.schemes.split(",")))
    for s in schemes:
        if s not in ("f2v", "b2b"):
            raise SystemExit2(f"unknown scheme {s!r}")

    d = p.alphabet_size
    jobs = []
    for scheme in schemes:
        if scheme == "b2b":
            for m, n in pairs:
                jobs.append(("b2b", m, n, tuple(p.probs)))
        else:
            sizes_by_m: dict[int, set[int]] = {m: set() for m in m_values}
            for m, n in pairs:
                sizes_by_m[m].add(2**n)
            for m in m_values:
                for extra in args.extra_size or ():
                    sizes_by_m[m].add(int(extra))
            for m in m_values:
                for size in sorted(sizes_by_m[m]):
                    jobs.append(("f2v", m, _reachable_size(d, size, args.round_size), tuple(p.probs)))

    try:
        if args.jobs > 1:
            with ProcessPoolExecutor(max_workers=args.jobs) as pool:
                rows = list(pool.map(_curve_point, jobs))
        else:
            rows = [_curve_point(job) for job in jobs]
    except ValueError as exc:
        raise SystemExit2(str(exc))
    rows.sort(key=lambda r: (r[0], r[1], r[2]))

    text = CSV_HEADER + "\n" + "".join(_format_row(row) + "\n" for row in rows)
    if args.out:
        _atomic_write(args.out, text)
        if args.emit_gnuplot:
            _atomic_write(args.out + ".gnuplot", _gnuplot_layout(rows, entropy(p)))
    else:
        if args.emit_gnuplot:
            raise SystemExit2("--emit-gnuplot requires --out")
        sys.stdout.write(text)
    return 0


def _build_f2v_from_args(args) -> f2v.ResolutionCode:
    if args.symbols < 1:
        raise SystemExit2("--symbols must be at least 1")
    return f2v.build_code(args.p, _reachable_size(args.p.alphabet_size, args.size, args.round_size), args.m)


def _bit_source(args):
    if args.bits_file:
        return f2v.FileBitSource(args.bits_file)
    if args.seed is None:
        raise SystemExit2("--seed is required when no --bits-file is given")
    return f2v.RandomBitSource(args.seed)


def _stream_all(code, source, min_symbols: int) -> f2v.StreamResult:
    """Generate at least min_symbols symbols; fewer only when the source runs out."""
    results, total = [], 0
    while total < min_symbols:
        try:
            res = f2v.generate_stream(code, source, int((min_symbols - total) / code.exp_len) + 1)
        except f2v.BitSourceExhausted as exc:
            results.append(exc.result)
            break
        results.append(res)
        total += res.output_symbols
    return f2v.StreamResult(
        symbols=np.concatenate([r.symbols for r in results]),
        input_bits=sum(r.input_bits for r in results),
        output_symbols=sum(r.output_symbols for r in results),
        leaf_counts=sum(r.leaf_counts for r in results),
    )


def _pack_symbols(symbols: np.ndarray, d: int) -> bytes:
    bits_per = max(1, math.ceil(math.log2(d)))
    shifts = np.arange(bits_per - 1, -1, -1, dtype=symbols.dtype)
    bits = ((symbols[:, None] >> shifts) & 1).reshape(-1)
    return np.packbits(bits).tobytes()


def cmd_generate(args) -> int:
    if args.format == "text" and args.p.alphabet_size > 10:
        raise SystemExit2("text output writes one digit per symbol, so it needs at most 10 symbols; "
                          "use --format packed")
    code = _build_f2v_from_args(args)
    source = _bit_source(args)
    result = _stream_all(code, source, args.symbols)

    if args.format == "packed":
        payload = _pack_symbols(result.symbols, code.codebook.alphabet_size)
        if args.out:
            with open(args.out, "wb") as handle:
                handle.write(payload)
        else:
            sys.stdout.buffer.write(payload)
    else:
        digits = "".join(str(int(s)) for s in result.symbols)
        lines = [digits[i : i + 64] for i in range(0, len(digits), 64)]
        text = "\n".join(lines) + ("\n" if lines else "")
        if args.out:
            with open(args.out, "w") as handle:
                handle.write(text)
        else:
            sys.stdout.write(text)

    rate = result.input_bits / result.output_symbols if result.output_symbols else math.nan
    print(
        f"input_bits={result.input_bits} output_symbols={result.output_symbols} "
        f"empirical_rate={rate!r}",
        file=sys.stderr,
    )
    if result.output_symbols < args.symbols:
        print("bit source exhausted before the requested symbol count", file=sys.stderr)
        return 1
    return 0


def cmd_validate(args) -> int:
    code = _build_f2v_from_args(args)
    source = _bit_source(args)
    result = _stream_all(code, source, args.symbols)
    if result.output_symbols < args.symbols:
        print("bit source exhausted before the requested symbol count", file=sys.stderr)
        return 1

    n_words = result.input_bits // code.m
    empirical = result.leaf_counts / n_words
    tv = variational_distance(empirical, code.counts.probs())
    rate = result.input_bits / result.output_symbols
    kl_target = kl_divergence(code.counts, code.target.leaf_probs)
    print(f"codewords={n_words} output_symbols={result.output_symbols}")
    print(f"empirical_rate={rate!r} code_kl_bits={kl_target!r}")
    print(f"tv_empirical_vs_code={tv!r} threshold={args.tv_threshold!r}")

    ok = tv <= args.tv_threshold
    if code.m <= f2v.EXHAUSTIVE_BITS:
        exact = bool(np.array_equal(f2v.induced_distribution(code).counts, code.counts.counts))
        print(f"exhaustive_induced_equals_counts={exact}")
        ok = ok and exact
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def cmd_quantize(args) -> int:
    try:
        result = mtype.quantize(np.asarray([float(t) for t in args.q.split(",")]), args.M)
    except ValueError as exc:
        raise SystemExit2(str(exc))
    kl = kl_divergence(result, [float(t) for t in args.q.split(",")])
    print("counts=" + ",".join(str(int(c)) for c in result.counts))
    print(f"kl_bits={kl!r}")
    return 0


class SystemExit2(SystemExit):
    def __init__(self, message: str):
        print(f"error: {message}", file=sys.stderr)
        super().__init__(2)


def _add_generation_flags(sub, with_format: bool) -> None:
    sub.add_argument("--p", type=_parse_probs, required=True, help="target distribution, e.g. 0.211,0.789")
    sub.add_argument("--m", type=int, required=True, help="input length in bits")
    sub.add_argument("--size", type=int, required=True, help="codebook size N")
    sub.add_argument("--symbols", type=int, required=True, help="minimum output symbol count")
    sub.add_argument("--seed", type=int, default=None, help="bit source seed (PCG64)")
    sub.add_argument("--bits-file", default=None, help="raw byte file served MSB-first instead of a seeded source")
    sub.add_argument("--round-size", action="store_true", help="round --size down to the nearest valid codebook size")
    if with_format:
        sub.add_argument("--format", choices=("text", "packed"), default="text")
        sub.add_argument("--out", default=None, help="output path (default stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rescode", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    subs = parser.add_subparsers(dest="command", required=True)

    curve = subs.add_parser("curve", help="sweep grid points and emit CSV rows")
    curve.add_argument("--p", type=_parse_probs, required=True)
    curve.add_argument("--m", type=int, action="append", help="input length; repeatable")
    curve.add_argument("--n-list", type=_parse_int_list, default=None, help="comma-separated block lengths")
    curve.add_argument("--grid-table", choices=("default",), default=None,
                       help="use the built-in (m, n) sweep table")
    curve.add_argument("--schemes", default="f2v,b2b", help="comma-separated subset of f2v,b2b")
    curve.add_argument("--extra-size", type=int, action="append",
                       help="additional f2v codebook size, paired with every m; repeatable")
    curve.add_argument("--out", default=None, help="CSV path (default stdout); written atomically")
    curve.add_argument("--emit-gnuplot", action="store_true",
                       help="also write <out>.gnuplot with one block per (scheme, m) series")
    curve.add_argument("--jobs", type=int, default=1, help="evaluate grid points with this many processes")
    curve.add_argument("--round-size", action="store_true")
    curve.set_defaults(func=cmd_curve)

    gen = subs.add_parser("generate", help="stream symbols from the code")
    _add_generation_flags(gen, with_format=True)
    gen.set_defaults(func=cmd_generate)

    val = subs.add_parser("validate", help="empirically check the generated distribution")
    _add_generation_flags(val, with_format=False)
    val.add_argument("--tv-threshold", type=float, default=0.01)
    val.set_defaults(func=cmd_validate)

    quant = subs.add_parser("quantize", help="optimal M-type quantization of a distribution")
    quant.add_argument("--q", required=True, help="target distribution, e.g. 0.64,0.16,0.2")
    quant.add_argument("--M", type=int, required=True, help="type denominator")
    quant.set_defaults(func=cmd_quantize)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SystemExit2:
        raise
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
