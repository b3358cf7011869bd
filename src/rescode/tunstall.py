"""Tunstall codebook construction for a memoryless branching distribution.

Starting from the root's D children, the leaf of maximum probability is
repeatedly split into its D children until the requested size is reached.
The resulting leaf probabilities are balanced: max and min differ at most
by the factor 1/mu, where mu is the smallest branch probability.
"""

from __future__ import annotations

import operator

import numpy as np

from .codetree import Codebook, LeafDistribution, validate_complete
from .probdist import Pmf, _frozen

# Largest codebook size round_size_down and build_tunstall accept, checked before anything is built.
MAX_LEAVES = 1 << 24


def round_size_down(alphabet_size: int, num_codewords: int) -> int:
    """Largest valid codebook size not exceeding num_codewords, which may not exceed MAX_LEAVES."""
    d, n = operator.index(alphabet_size), operator.index(num_codewords)
    if n > MAX_LEAVES:
        raise ValueError(f"codebook size {n} is above the cap {MAX_LEAVES}")
    if d < 2:
        raise ValueError("alphabet size must be at least 2")
    if n < d:
        raise ValueError(f"invalid codebook size {n} for alphabet size {d}: the smallest valid size is {d}")
    return d + ((n - d) // (d - 1)) * (d - 1)


def build_tunstall(p: Pmf, num_codewords: int) -> LeafDistribution:
    """Grow the Tunstall codebook with exactly `num_codewords` leaves.

    Nodes are split in decreasing order of their float64 probability, the
    product of their branch probabilities taken left to right along the
    path, and among equal floats in increasing path order, so the
    construction is deterministic.  Paths with the same count of each
    symbol have the same exact probability, but their products can round
    a few ulps apart; that rounding, not the path, then decides which is
    split first.  Sizes must satisfy N = D + k(D-1) <= MAX_LEAVES; others
    are rejected, naming the cap or the nearest valid size.
    """
    d = p.alphabet_size
    n = operator.index(num_codewords)
    if (largest := round_size_down(d, n)) != n:
        raise ValueError(f"invalid codebook size {n}: must be {d} + k*({d - 1}) for some k >= 0; "
                         f"the largest below it is {largest}")
    if not p.has_full_support():
        raise ValueError("branching distribution must have full support")

    # The greedy split takes nodes in increasing (-prob, path) order, so its k
    # internal nodes are the k smallest keys of the tree.  Each is at least as
    # likely as the likeliest leaf, which has probability 1/N or more: a node
    # below a cutoff under 1/N needs no children.
    k = (n - d) // (d - 1)
    cutoff = (1 - 1e-9) / n
    parents, symbols, probs = _grow(p.probs, k, cutoff)
    if np.count_nonzero(np.concatenate(probs) >= cutoff) < k:  # never seen; the running bound alone is safe
        parents, symbols, probs = _grow(p.probs, k, 0.0)
    flat = np.concatenate(probs)
    internal = np.zeros(flat.size, dtype=bool)
    if k:  # likelier than the k-th largest probability, or tied with it on a smaller path
        kth = np.partition(flat, flat.size - k)[flat.size - k]
        internal, tied = flat > kth, np.flatnonzero(flat == kth)
        if (need := k - np.count_nonzero(internal)) < tied.size:
            rank = np.concatenate(_preceding(parents, [np.ones(q.size, dtype=np.int64) for q in probs])[0])
            tied = tied[np.argsort(rank[tied])[:need]]
        internal[tied] = True
    internal = np.split(internal, np.cumsum([q.size for q in probs])[:-1])
    leaf = [~internal[0]] + [internal[j - 1][parents[j]] & ~internal[j] for j in range(1, len(probs))]
    depth = max(j for j, level in enumerate(leaf, 1) if level.any())
    position, count = _preceding(parents[:depth], [level.astype(np.int64) for level in leaf[:depth]])
    # Level j's nodes cover the rows of the leaves below them in sorted runs.
    table = np.zeros((n, depth), dtype=symbols[0].dtype)
    lengths, leaf_probs, deeper = np.empty(n, dtype=np.int64), np.empty(n), np.ones(n, dtype=bool)
    for j, here in enumerate(leaf[:depth]):
        table[deeper, j] = np.repeat(symbols[j], count[j])
        rows = position[j][here]
        deeper[rows], lengths[rows], leaf_probs[rows] = False, j + 1, probs[j][here]
    codebook = validate_complete(Codebook(d, _frozen(table), _frozen(lengths)))
    return LeafDistribution(codebook=codebook, leaf_probs=_frozen(leaf_probs), p=p)


def _grow(pv: np.ndarray, k: int, cutoff: float):
    """Per level, in lexicographic order, the nodes' parent indices, symbols and probabilities.

    A node gets children down to depth k + 1 while its probability is at least
    the cutoff and the k-th largest generated so far, a lower bound of the tree's.
    """
    d = pv.size
    alphabet = np.arange(d, dtype=np.min_scalar_type(d - 1))
    parents, symbols, probs = [np.zeros(d, dtype=np.int64)], [alphabet], [pv]
    best, fresh, count, bound = np.empty(0), [pv], d, cutoff
    while len(probs) <= k:
        if count >= 2 * k:
            best = np.partition(np.concatenate([best, *fresh]), count - k)[count - k :]
            fresh, count, bound = [], k, max(cutoff, best[0])
        front = np.flatnonzero(probs[-1] >= bound)
        if not front.size:
            break
        parents.append(np.repeat(front, d))
        symbols.append(np.tile(alphabet, front.size))
        probs.append((probs[-1][front, None] * pv).ravel())
        fresh.append(probs[-1])
        count += probs[-1].size
    return parents, symbols, probs


def _preceding(parents: list, weights: list) -> tuple[list, list]:
    """Per level and node: the weight of the nodes before it in lexicographic order, and of its subtree."""
    totals = list(weights)
    for j in range(len(weights) - 1, 0, -1):
        totals[j - 1] = weights[j - 1] + np.bincount(parents[j], totals[j], weights[j - 1].size).astype(np.int64)
    before, offset = [], np.zeros(1, dtype=np.int64)
    for parent, weight, total in zip(parents, weights, totals):
        before.append(offset[parent] + np.cumsum(total) - total)
        # offset[i] plus the level's running sum before a child of node i is where that child starts
        offset = before[-1] + total - np.cumsum(total - weight)
    return before, totals
