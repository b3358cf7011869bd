"""The rate-divergence trade-off: variable-length vs block-to-block.

For each input length m, sweeping the codebook size traces a curve:
bigger codebooks lower the rate toward the source entropy but raise the
divergence.  The variable-length scheme sits well below the optimal
block-to-block encoder at every rate.

The same table is available from the command line:

    rescode curve --p 0.211,0.789 --grid-table default --out sweep.csv
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from rescode import Pmf, build_block_code, build_code, entropy, rate_report

p = Pmf([0.211, 0.789])
grid = {6: (3, 4, 5, 6), 9: (5, 6, 7, 8, 9), 12: (8, 9, 10, 11, 12)}

print(f"target p = (0.211, 0.789), entropy {entropy(p):.4f} bits/symbol")
print()
print(f"{'m':>3} {'n':>3} | {'b2b rate':>9} {'b2b kl':>10} | {'f2v rate':>9} {'f2v kl':>10}")
for m, ns in grid.items():
    for n in ns:
        rb = rate_report(build_block_code(p, n, m))
        rf = rate_report(build_code(p, 2**n, m))
        print(
            f"{m:>3} {n:>3} | {rb.rate:>9.4f} {rb.kl:>10.6f} | {rf.rate:>9.4f} {rf.kl:>10.6f}"
        )
    print()

# codebook sizes need not be powers of two
c = build_code(p, 3072, 12)
r = rate_report(c)
print(f"N=3072 (not a power of two), m=12: rate {r.rate:.4f}, divergence {r.kl:.6f} bits")
print(f"excess bits q = {r.q_bits:.4f}; divergence bound {r.kl_bound:.4f} bits")
