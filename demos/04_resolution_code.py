"""A complete fixed-to-variable resolution code, end to end.

Three fair bits enter; Tunstall codewords leave.  The integer ranges of
the map realize the quantized codeword distribution exactly, so the
symbol stream approximates the target source.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from rescode import (
    ArrayBitSource,
    Pmf,
    RandomBitSource,
    bound_suite,
    build_code,
    generate_stream,
    rate_report,
)

p = Pmf([0.8, 0.2])
code = build_code(p, 3, 3)

print("codebook and map for p=(0.8, 0.2), N=3 codewords, m=3 bits:")
book = code.codebook
for i, (row, n) in enumerate(zip(book.table.tolist(), book.lengths.tolist())):
    lo, hi = code.cum[i], code.cum[i + 1]
    words = ", ".join(f"{u:03b}" for u in range(lo, hi))
    print(f"  {''.join(map(str, row[:n])):>3s}  <- words [{words}]  (P = {int(code.counts.counts[i])}/8)")
print()

print("feeding the six bits 000 101:")
res = generate_stream(code, ArrayBitSource("000101"), 2)
first, second = (tuple(generate_stream(code, ArrayBitSource(word), 1).symbols.tolist()) for word in ("000", "101"))
print(f"  words 000 -> {first}, 101 -> {second}")
print(f"  stream: {''.join(map(str, res.symbols))}  ({res.input_bits} bits in, {res.output_symbols} symbols out)")
print()

r = rate_report(code, p)
print(f"rate {r.rate:.4f} bits/symbol, entropy rate {r.entropy_rate:.4f}, "
      f"divergence {r.kl:.5f} bits")
print("finite-length checks:")
for check in bound_suite(code, p):
    print(f"  [{'ok' if check.passed else 'FAIL'}] {check.name}: {check.detail}")
print()

big = generate_stream(code, RandomBitSource(7), 100_000)
freq = float(big.symbols.mean())
print(f"100k codewords from seed 7: fraction of ones {freq:.4f} vs target P(1) = 0.2")
print("(a 3-codeword code only approximates the source; larger N and more")
print(" excess bits shrink the divergence, as the sweep demo shows)")
