"""Tunstall codebooks and the balance guarantee.

Growing the tree by always splitting the heaviest leaf keeps the leaf
probabilities within a factor 1/mu of each other, where mu is the
smallest branch probability.  That balance is what lets a uniform input
be matched to the leaves with a small divergence later on.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from rescode import Pmf, build_tunstall

p = Pmf([0.8, 0.2])

print("growing a codebook for p = (0.8, 0.2):")
for n in (3, 4, 5):
    ld = build_tunstall(p, n)
    book = ld.codebook
    paths = ["".join(map(str, row[:k])) for row, k in zip(book.table.tolist(), book.lengths.tolist())]
    print(f"  N={n}: leaves {paths}, probs {[round(float(v), 4) for v in ld.leaf_probs]}")
print()

ld = build_tunstall(p, 5)
lo, hi, mu = ld.leaf_probs.min(), ld.leaf_probs.max(), p.mu()
print(f"balance at N=5: max/min = {hi / lo:.3f} <= 1/mu = {1 / mu:.3f}")
print(f"  min leaf {lo:.4f} >= mu/N = {mu / 5:.4f}")
print(f"  max leaf {hi:.4f} <= 1/(N mu) = {1 / (5 * mu):.4f}")
print()

# the experiment-scale codebook: 3072 codewords for a skewed binary source
target = Pmf([0.211, 0.789])
big = build_tunstall(target, 3072)
print(f"N=3072 for p=(0.211, 0.789):")
print(f"  expected codeword length {big.expected_len:.3f} symbols")
print(f"  depth range {big.codebook.lengths.min()}..{big.codebook.max_len()}")
print(f"  balance ratio {big.leaf_probs.max() / big.leaf_probs.min():.3f} (bound {1 / target.mu():.3f})")
