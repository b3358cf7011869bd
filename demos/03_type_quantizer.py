"""KL-optimal M-type quantization.

Any distribution generated from m fair bits through a deterministic map
is 2^m-type: every probability is k/2^m.  The quantizer finds the type
vector closest to a target in informational divergence, one unit at a
time.  The divergence is a separable convex function of the counts, so a
type vector is optimal when no single-unit move from one atom to another
lowers it: the exchange condition, checked below.
"""

import itertools
import math
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from rescode import kl_divergence, quantize


def best_move(counts, q, caps=None):
    """The lowest D over every single-unit move from one atom to another (within caps, if given)."""
    best = math.inf
    for a, b in itertools.permutations(range(len(counts)), 2):
        if counts[a] and (caps is None or counts[b] < caps[b]):
            moved = np.array(counts)
            moved[a] -= 1
            moved[b] += 1
            best = min(best, kl_divergence(moved / moved.sum(), q))
    return best


q = [0.64, 0.16, 0.2]
for m_units in (4, 8, 16, 64):
    t = quantize(q, m_units)
    print(
        f"M={m_units:3d}: counts {[int(c) for c in t.counts]}  "
        f"D = {kl_divergence(t, q):.6f} bits"
    )
print()

t = quantize(q, 8)
print(f"greedy M=8: {[int(c) for c in t.counts]}, D = {kl_divergence(t, q):.6f} bits; "
      f"the best single-unit move reaches D = {best_move(t.counts, q):.6f} bits")
print()

# the allocation always respects counts/M <= q + 1/M, even where the
# unconstrained optimum, everything on the mode, would not
lop = np.array([0.93, 0.0175, 0.0175, 0.0175, 0.0175])
capped = quantize(lop, 16)
free = np.array([16, 0, 0, 0, 0])
caps = np.floor(16 * lop).astype(int) + 1
print("lopsided target", [float(x) for x in lop])
print(f"  constrained:   {[int(c) for c in capped.counts]}, D = {kl_divergence(capped, lop):.6f} bits "
      f"(respects the +1/M bound; best move within it: D = {best_move(capped.counts, lop, caps):.6f})")
print(f"  unconstrained: {free.tolist()}, D = {kl_divergence(free / 16, lop):.6f} bits "
      f"(everything on the mode; best move: D = {best_move(free, lop):.6f})")
print()

# with one unit, the best type vector collapses onto the mode
t1 = quantize([0.9, 0.1], 2)
print(f"(0.9, 0.1) at M=2 -> {[int(c) for c in t1.counts]}: D = {kl_divergence(t1, [0.9, 0.1]):.5f} bits")
