"""Driving the divergence to zero at the entropy rate.

Spend m bits on a codebook of 2^(m - ceil(sqrt(m))) codewords: the
excess q = ceil(sqrt(m)) grows without bound while q/n vanishes, so the
divergence trends to zero and the rate approaches the source entropy.
The trend is not strictly monotone step by step; pairs of m with equal
excess (such as 12 and 16 here) land at the same divergence scale
2^(-2q) and may swap order.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from rescode import Pmf, convergence_probe, entropy

for probs in ([0.211, 0.789], [0.8, 0.2]):
    p = Pmf(probs)
    h = entropy(p)
    print(f"target {probs}, entropy {h:.4f} bits")
    print(f"{'m':>3} {'N':>7} {'q':>4} | {'kl bits':>11} {'rate':>8} {'|R-H|':>8}")
    for r in convergence_probe(p, [8, 12, 16, 20]):
        print(
            f"{r.m:>3} {r.num_codewords:>7} {r.q_bits:>4.0f} | "
            f"{r.kl:>11.3e} {r.rate:>8.4f} {abs(r.rate - h):>8.4f}"
        )
    print()
