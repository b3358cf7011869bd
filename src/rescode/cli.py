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
import contextlib
import math
import os
import sys

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


def _curve_point(scheme: str, m: int, size: int, p: Pmf) -> metrics.RateReport:
    build = block.build_block_code if scheme == "b2b" else f2v.build_code
    return metrics.rate_report(build(p, size, m), p)


def _format_row(r: metrics.RateReport) -> str:
    values = (r.n_bits, r.q_bits, r.rate, r.entropy_rate, r.hv_rate, r.kl, r.kl_bound, r.exp_len)
    return ",".join([r.scheme, str(r.m), str(r.num_codewords)] + [repr(float(v)) for v in values])


@contextlib.contextmanager
def _atomic_write(path: str):
    """A binary handle on a new file beside path (umask mode), renamed over path on success."""
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)), f".rescode-{os.urandom(6).hex()}")
    try:
        handle = open(tmp, "xb")
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _reachable_size(d: int, size: int, round_size: bool) -> int:
    """The requested codebook size, or with round_size the largest valid one below it."""
    if size > tunstall.MAX_LEAVES:
        raise ValueError(f"codebook size {size} is above the cap {tunstall.MAX_LEAVES}")
    if tunstall.is_valid_size(d, size):
        return size
    if d >= 2 and (size < d or not round_size):
        hint = f"the smallest valid size is {d}" if size < d else "pass --round-size to round down"
        raise ValueError(f"codebook size {size} is not reachable for alphabet size {d}; {hint}")
    return tunstall.round_size_down(d, size)


def _gnuplot_layout(rows: list[metrics.RateReport], target_entropy: float) -> str:
    lines = [f"# target_entropy_bits = {target_entropy!r}", "# columns: rate kl_bits N"]
    for scheme, m in dict.fromkeys((r.scheme, r.m) for r in rows):
        lines += ["", "", f"# scheme={scheme} m={m}"]
        lines += [f"{r.rate!r} {r.kl!r} {r.num_codewords}" for r in rows if (r.scheme, r.m) == (scheme, m)]
    return "\n".join(lines) + "\n"


def cmd_curve(args) -> int:
    p = args.p
    if args.grid_table and (args.m or args.n_list):
        raise ValueError("--grid-table cannot be combined with --m/--n-list")
    if args.grid_table:
        pairs = [(m, n) for m, ns in sorted(DEFAULT_GRID.items()) for n in ns]
        m_values = sorted(DEFAULT_GRID)
    else:
        if not args.m:
            raise ValueError("either --grid-table or at least one --m is required")
        m_values = sorted(set(args.m))
        pairs = [(m, n) for m in m_values for n in (args.n_list or ())]
    schemes = sorted(set(args.schemes.split(",")))
    for s in schemes:
        if s not in ("f2v", "b2b"):
            raise ValueError(f"unknown scheme {s!r}")
    if args.emit_gnuplot and not args.out:
        raise ValueError("--emit-gnuplot requires --out")

    d = p.alphabet_size
    points = [("b2b", m, n) for m, n in pairs] if "b2b" in schemes else []
    if "f2v" in schemes:
        if any(not 0 <= n <= f2v.MAX_INPUT_BITS for _, n in pairs):
            raise ValueError(f"f2v block lengths (--n-list) must be in [0, {f2v.MAX_INPUT_BITS}]")
        for m in m_values:
            sizes = sorted({2**n for pm, n in pairs if pm == m} | set(args.extra_size or ()))
            rounded = {_reachable_size(d, size, args.round_size) for size in sizes}
            points += [("f2v", m, size) for size in sorted(rounded)]
    if not points:
        raise ValueError("no codebook sizes requested: give --n-list, --grid-table, or --extra-size")

    rows = [_curve_point(*point, p) for point in points]
    rows.sort(key=lambda r: (r.scheme, r.m, r.num_codewords))

    text = CSV_HEADER + "\n" + "".join(_format_row(row) + "\n" for row in rows)
    if args.out:
        with _atomic_write(args.out) as handle:
            handle.write(text.encode())
        if args.emit_gnuplot:
            with _atomic_write(args.out + ".gnuplot") as handle:
                handle.write(_gnuplot_layout(rows, entropy(p)).encode())
    else:
        sys.stdout.write(text)
    return 0


def _code_and_bits(args):
    if not 1 <= args.symbols <= sys.float_info.max:  # the stream schedule divides it as a float
        raise ValueError(f"--symbols must be in [1, {sys.float_info.max!r}]")
    code = f2v.build_code(args.p, _reachable_size(args.p.alphabet_size, args.size, args.round_size), args.m)
    if args.bits_file:
        return code, f2v.FileBitSource(args.bits_file)
    if args.seed is None:
        raise ValueError("--seed is required when no --bits-file is given")
    return code, f2v.RandomBitSource(args.seed)


def _pack_symbols(symbols: np.ndarray, d: int) -> bytes:
    if d == 2:  # 0/1 symbols are their own bit plane
        return np.packbits(symbols).tobytes()
    bits_per = max(1, math.ceil(math.log2(d)))
    shifts = np.arange(bits_per - 1, -1, -1, dtype=symbols.dtype)
    bits = ((symbols[:, None] >> shifts) & 1).reshape(-1)
    return np.packbits(bits).tobytes()


def _text_lines(symbols: np.ndarray) -> bytes:
    # one ASCII digit per symbol, and a newline after every 64th symbol and after the last
    ends = np.minimum(np.arange(64, symbols.size + 64, 64), symbols.size)
    return np.insert((symbols + 48).astype(np.uint8), ends, 10).tobytes()


def cmd_generate(args) -> int:
    if args.format == "text" and args.p.alphabet_size > 10:
        raise ValueError("text output writes one digit per symbol, so it needs at most 10 symbols; "
                         "use --format packed")
    code, source = _code_and_bits(args)
    # Whole lines of text, or groups of 8 symbols that pack into whole bytes.
    d = code.codebook.alphabet_size
    encode, group = (_text_lines, 64) if args.format == "text" else (lambda s: _pack_symbols(s, d), 8)
    input_bits = output_symbols = 0
    carry = np.empty(0, dtype=code.codebook.table.dtype)
    with _atomic_write(args.out) if args.out else contextlib.nullcontext(sys.stdout.buffer) as out:
        for chunk in f2v.stream(code, source, args.symbols):
            input_bits += chunk.input_bits
            output_symbols += chunk.output_symbols
            symbols = np.concatenate((carry, chunk.symbols))
            whole = symbols.size - symbols.size % group
            out.write(encode(symbols[:whole]))
            carry = symbols[whole:]
        out.write(encode(carry))

    rate = input_bits / output_symbols if output_symbols else math.nan
    print(f"input_bits={input_bits} output_symbols={output_symbols} empirical_rate={rate!r}", file=sys.stderr)
    if output_symbols < args.symbols:
        print("bit source exhausted before the requested symbol count", file=sys.stderr)
        return 1
    return 0


def cmd_validate(args) -> int:
    if not args.tv_threshold >= 0:
        raise ValueError("--tv-threshold must be a number, at least 0")
    code, source = _code_and_bits(args)
    input_bits = output_symbols = leaf_counts = 0
    for chunk in f2v.stream(code, source, args.symbols):
        input_bits += chunk.input_bits
        output_symbols += chunk.output_symbols
        leaf_counts += chunk.leaf_counts
    if output_symbols < args.symbols:
        print("bit source exhausted before the requested symbol count", file=sys.stderr)
        return 1

    n_words = input_bits // code.m
    tv = variational_distance(leaf_counts / n_words, code.counts.probs())
    rate = input_bits / output_symbols
    kl_target = kl_divergence(code.counts, code.target.leaf_probs)
    print(f"codewords={n_words} output_symbols={output_symbols}")
    print(f"empirical_rate={rate!r} code_kl_bits={kl_target!r}")
    print(f"tv_empirical_vs_code={tv!r} threshold={args.tv_threshold!r}")

    ok = tv <= args.tv_threshold
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def cmd_quantize(args) -> int:
    q = [float(t) for t in args.q.split(",")]
    result = mtype.quantize(np.asarray(q), args.M)
    print("counts=" + ",".join(str(int(c)) for c in result.counts))
    print(f"kl_bits={kl_divergence(result, q)!r}")
    return 0


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
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2) from None


if __name__ == "__main__":
    sys.exit(main())
