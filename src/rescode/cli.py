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
import errno
import math
import os
import sys

import numpy as np

from . import block, codetree, f2v, metrics, mtype, tunstall
from .probdist import Pmf, kl_divergence, variational_distance

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


def _format_row(r: metrics.RateReport) -> str:
    values = (r.n_bits, r.q_bits, r.rate, r.entropy_rate, r.hv_rate, r.kl, r.kl_bound, r.exp_len)
    return ",".join([r.scheme, str(r.m), str(r.num_codewords)] + [repr(float(v)) for v in values])


@contextlib.contextmanager
def _open_out(path):
    """Binary stdout, or a new file beside path (umask mode), renamed over path on success and removed on failure.

    Opened before any work, so a bad path fails first; os.replace would refuse a directory only at the end.
    """
    if not path:
        yield getattr(sys.stdout, "buffer", sys.stdout)  # validate and quantize only print: any stdout will do
        return
    if os.path.isdir(path) or path.endswith(os.sep):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    if os.path.exists(path) and not os.path.isfile(path):  # renaming a file over a FIFO or device would replace it
        raise ValueError(f"--out {path!r} exists and is not a regular file")
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


def cmd_curve(args, out) -> int:
    p = args.p
    if args.grid_table and (args.m or args.n_list):
        raise ValueError("--grid-table cannot be combined with --m/--n-list")
    if args.grid_table:
        pairs = [(m, n) for m, ns in sorted(DEFAULT_GRID.items()) for n in ns]
        m_values = sorted(DEFAULT_GRID)
    else:
        if not args.m:
            raise ValueError("either --grid-table or at least one --m is required")
        m_values = sorted({f2v.input_length(m) for m in args.m})
        pairs = [(m, n) for m in m_values for n in sorted(set(args.n_list or ()))]
    schemes = sorted(set(args.schemes.split(",")))
    if unknown := [s for s in schemes if s not in ("f2v", "b2b")]:
        raise ValueError(f"unknown scheme {unknown[0]!r}")
    if args.extra_size and "f2v" not in schemes:
        raise ValueError("--extra-size sets f2v codebook sizes, but --schemes has no f2v")

    if "f2v" in schemes and any(not 0 <= n <= f2v.MAX_INPUT_BITS for _, n in pairs):
        raise ValueError(f"f2v block lengths (--n-list) must be in [0, {f2v.MAX_INPUT_BITS}]")
    groups = {}  # (scheme, size): the input lengths, ascending, that share its target; every size checked first
    for m, n in pairs if "b2b" in schemes else ():
        groups.setdefault(("b2b", codetree.product_length(p.alphabet_size, n)), []).append(m)
    if "f2v" in schemes:
        for m in m_values:
            sizes = sorted({2**n for pm, n in pairs if pm == m} | set(args.extra_size or ()))
            for size in sorted({tunstall.round_size_down(p.alphabet_size, size) for size in sizes}):
                groups.setdefault(("f2v", size), []).append(m)
    if not groups:
        raise ValueError("no codebook sizes requested: give --n-list, --grid-table, or --extra-size")

    rows = []
    for (scheme, size), m_list in groups.items():  # the target is built at the first m, re-quantized at the others
        code = (block.build_block_code if scheme == "b2b" else f2v.build_code)(p, size, m_list[0])
        rows += [metrics.rate_report(f2v.ResolutionCode.quantized(scheme, code.target, m) if m > code.m else code)
                 for m in m_list]
        del code  # released before the next target is built
    rows.sort(key=lambda r: (r.scheme, r.m, r.num_codewords))

    out.write((CSV_HEADER + "\n" + "".join(_format_row(row) + "\n" for row in rows)).encode())
    return 0


def _code_and_bits(args):
    if not 1 <= args.symbols <= sys.float_info.max:  # the stream schedule divides it as a float
        raise ValueError(f"--symbols must be in [1, {sys.float_info.max!r}]")
    if not args.bits_file and args.seed is None:
        raise ValueError("--seed is required when no --bits-file is given")
    source = f2v.FileBitSource(args.bits_file) if args.bits_file else f2v.RandomBitSource(args.seed)
    return f2v.build_code(args.p, args.size, args.m), source


def _text_lines(symbols: np.ndarray) -> memoryview:
    # one ASCII digit per symbol, and a newline after every 64th symbol and after the last:
    # whole lines, then the partial one, into newline-filled rows of 65, cut after the last digit's newline
    whole, rem = divmod(symbols.size, 64)
    rows = np.full((whole + (rem > 0), 65), 10, dtype=np.uint8)
    np.add(symbols[: 64 * whole].reshape(whole, 64), 48, out=rows[:whole, :64])
    np.add(symbols[64 * whole :], 48, out=rows[whole:, :rem])
    return memoryview(rows.reshape(-1)[: symbols.size + rows.shape[0]])


def cmd_generate(args, out) -> int:
    text = args.format == "text"
    if text and args.p.alphabet_size > 10:
        raise ValueError("text output writes one digit per symbol, so it needs at most 10 symbols; "
                         "use --format packed")
    code, source = _code_and_bits(args)
    input_bits = output_symbols = 0
    # Text goes out in whole lines of 64 symbols (one byte each, as D <= 10); packed output in whole 64-bit words.
    carry, word, bits = np.empty(0, dtype=np.uint8), 0, 0
    for chunk in f2v.stream(code, source, args.symbols):
        input_bits += chunk.input_bits
        output_symbols += chunk.output_symbols
        if text:  # complete the carried line from the chunk's head, then write the chunk's whole lines from a view
            head = min(64 - carry.size, chunk.symbols.size)
            line, rest = np.concatenate((carry, chunk.symbols[:head])), chunk.symbols[head:]
            whole = rest.size - rest.size % 64
            out.write(_text_lines(line[: line.size - line.size % 64]))
            out.write(_text_lines(rest[:whole]))
            carry = line if line.size % 64 else rest[whole:]
        else:
            words, word, bits = f2v.pack_codewords(code, chunk.codewords, word, bits)
            out.write(words)
    out.write(_text_lines(carry) if text else word.to_bytes(8, "big")[: -(-bits // 8)])

    rate = input_bits / output_symbols if output_symbols else math.nan
    print(f"input_bits={input_bits} output_symbols={output_symbols} empirical_rate={rate!r}", file=sys.stderr)
    if output_symbols < args.symbols:
        print("bit source exhausted before the requested symbol count", file=sys.stderr)
        return 1
    return 0


def cmd_validate(args, _out) -> int:
    if not args.tv_threshold >= 0:
        raise ValueError("--tv-threshold must be a number, at least 0")
    code, source = _code_and_bits(args)
    leaf_counts = np.zeros(len(code.codebook), dtype=np.int64)  # the one histogram: words and symbols follow from it
    for chunk in f2v.stream(code, source, args.symbols):
        leaf_counts += chunk.leaf_counts
    n_words, output_symbols = int(leaf_counts.sum()), int(leaf_counts @ code.codebook.lengths)
    if output_symbols < args.symbols:
        print("bit source exhausted before the requested symbol count", file=sys.stderr)
        return 1

    tv = variational_distance(leaf_counts / n_words, code.counts.probs())
    rate = n_words * code.m / output_symbols
    kl_target = kl_divergence(code.counts, code.target.leaf_probs)
    print(f"codewords={n_words} output_symbols={output_symbols}")
    print(f"empirical_rate={rate!r} code_kl_bits={kl_target!r}")
    print(f"tv_empirical_vs_code={tv!r} threshold={args.tv_threshold!r}")

    ok = tv <= args.tv_threshold
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def cmd_quantize(args, _out) -> int:
    q = [float(t) for t in args.q.split(",")]
    result = mtype.quantize(np.asarray(q), args.M)
    print("counts=" + ",".join(str(int(c)) for c in result.counts))
    print(f"kl_bits={kl_divergence(result, q)!r}")
    return 0


def _add_generation_flags(sub) -> None:
    sub.add_argument("--p", type=_parse_probs, required=True, help="target distribution, e.g. 0.211,0.789")
    sub.add_argument("--m", type=int, required=True, help="input length in bits")
    sub.add_argument("--size", type=int, required=True, help="codebook size N")
    sub.add_argument("--symbols", type=int, required=True, help="minimum output symbol count")
    sub.add_argument("--seed", type=int, default=None, help="bit source seed (PCG64)")
    sub.add_argument("--bits-file", default=None, help="raw byte file served MSB-first instead of a seeded source")


class _Parser(argparse.ArgumentParser):
    """Parse errors raise ValueError, so main prints them as one error line like every usage error."""

    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="rescode", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
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
    curve.set_defaults(func=cmd_curve)

    gen = subs.add_parser("generate", help="stream symbols from the code")
    _add_generation_flags(gen)
    gen.add_argument("--format", choices=("text", "packed"), default="text")
    gen.add_argument("--out", default=None, help="output path (default stdout)")
    gen.set_defaults(func=cmd_generate)

    val = subs.add_parser("validate", help="empirically check the generated distribution")
    _add_generation_flags(val)
    val.add_argument("--tv-threshold", type=float, default=0.01)
    val.set_defaults(func=cmd_validate)

    quant = subs.add_parser("quantize", help="optimal M-type quantization of a distribution")
    quant.add_argument("--q", required=True, help="target distribution, e.g. 0.64,0.16,0.2")
    quant.add_argument("--M", type=int, required=True, help="type denominator")
    quant.set_defaults(func=cmd_quantize)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        with _open_out(getattr(args, "out", None)) as out:
            return args.func(args, out)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2) from None


if __name__ == "__main__":
    sys.exit(main())
