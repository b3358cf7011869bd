"""Tunstall codebook construction for a memoryless branching distribution.

Starting from the root's D children, the leaf of maximum probability is
repeatedly split into its D children until the requested size is reached.
The resulting leaf probabilities are balanced: max and min differ at most
by the factor 1/mu, where mu is the smallest branch probability.
"""

from __future__ import annotations

import operator

import numpy as np

from .codetree import Codebook, LeafDistribution, _symbol_bits, validate_complete
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
    codes, lengths, leaf_probs = _leaves(p.probs, n)
    codebook = validate_complete(Codebook(d, _frozen(codes), _frozen(lengths)))
    return LeafDistribution(codebook=codebook, leaf_probs=_frozen(leaf_probs), p=p)


def _leaves(pv: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The N leaves in lexicographic order: packed paths (``Codebook.codes``), lengths, probabilities."""
    d, width = pv.size, (pv.size - 1).bit_length()
    # The greedy split takes nodes in increasing (-prob, path) order, so its k
    # internal nodes are the k smallest keys of the tree.  Each is at least as
    # likely as the likeliest leaf, which has probability 1/N or more: a node
    # below a cutoff under 1/N needs no children.
    k = (n - d) // (d - 1)
    cutoff = (1 - 1e-9) / n
    fronts, probs, kth = _grow(pv, k, cutoff)
    if kth < cutoff:  # fewer than k grown nodes reach the cutoff: never seen; the running bound alone is safe
        fronts, probs, kth = _grow(pv, k, 0.0)
    internal = _internal(fronts, probs, k, kth)
    leaf = [~internal[0]] + [np.repeat(internal[j - 1][fronts[j]], d) & ~internal[j] for j in range(1, len(probs))]
    depth = max(j for j, level in enumerate(leaf, 1) if level.any())
    # Level j's tree nodes are the D children of each internal node above, in
    # order: the parent's code ORed with each symbol.  The level's leaves are
    # written after those of the levels above, and its internal nodes' codes go
    # on to the next level.  No leaf is a prefix of another, so the left-aligned
    # codes are distinct and sort as the paths do.  Stored piece by piece, each
    # of lexsort's keys is contiguous; the sorted codes are returned leaf by leaf.
    pieces = -(-depth * width // 64)
    codes, front = np.empty((pieces, n), dtype=np.uint64), np.zeros((pieces, 1), dtype=np.uint64)
    lengths, leaf_probs, start = np.empty(n, dtype=np.int64), np.empty(n), 0
    for j, here in enumerate(leaf[:depth]):
        nodes = (front[:, :, None] | _symbol_bits(d, j, pieces).T[:, None]).reshape(pieces, -1)
        inner, end = internal[j][here | internal[j]], start + np.count_nonzero(here)
        codes[:, start:end], lengths[start:end], leaf_probs[start:end] = nodes[:, ~inner], j + 1, probs[j][here]
        front, start = nodes[:, inner], end
    order = np.lexsort(codes[::-1])
    return np.ascontiguousarray(codes[:, order].T), lengths[order], leaf_probs[order]


def _internal(fronts: list, probs: list, k: int, kth: float) -> list:
    """Per level, which grown nodes are among the k that the greedy split: the k smallest (-prob, path) keys."""
    d, width = probs[0].size, (probs[0].size - 1).bit_length()
    ends = np.cumsum([q.size for q in probs])
    flat = np.concatenate(probs)
    internal, tied = flat > kth, np.flatnonzero(flat == kth)  # likelier than kth, or tied with it on a smaller path
    if (need := k - np.count_nonzero(internal)) < tied.size:
        # Pack the few tied nodes' paths by walking each up to the root.  A prefix
        # packs like its extensions cut short, so among equal codes the shorter goes first.
        level = np.searchsorted(ends, tied, side="right")
        node = tied - (ends - [q.size for q in probs])[level]
        code = np.zeros((tied.size, -(-(int(level.max()) + 1) * width // 64)), dtype=np.uint64)
        for j in range(int(level.max()), -1, -1):
            on = level >= j
            code[on] |= _symbol_bits(d, j, code.shape[1])[node[on] % d]
            node[on] = fronts[j][node[on] // d]
        tied = tied[np.lexsort((level, *code.T[::-1]))[:need]]
    internal[tied] = True
    return np.split(internal, ends[:-1])


def _grow(pv: np.ndarray, k: int, cutoff: float):
    """Per level, in lexicographic order: which nodes of the level above got children, and the node probabilities.

    Node i of level j is symbol i mod D below node fronts[j][i // D]; level 0's
    front is the root.  A node gets children down to depth k + 1 while its
    probability is at least the cutoff and the k-th largest generated so far,
    a lower bound of the tree's.  The k-th largest of all nodes grown comes last.
    """
    fronts, probs = [np.zeros(1, dtype=np.int64)], [pv]
    best, fresh, count, bound = np.empty(0), [pv], pv.size, cutoff
    while len(probs) <= k:
        if count >= 2 * k:
            best = np.partition(np.concatenate([best, *fresh]), count - k)[count - k :]
            fresh, count, bound = [], k, max(cutoff, best[0])
        front = np.flatnonzero(probs[-1] >= bound)
        if not front.size:
            break
        fronts.append(front)
        probs.append((probs[-1][front, None] * pv).ravel())
        fresh.append(probs[-1])
        count += probs[-1].size
    if count < k:  # fewer than k grew, and a negative partition index would count from the end
        return fronts, probs, -np.inf
    return fronts, probs, np.partition(np.concatenate([best, *fresh]), count - k)[count - k] if k else np.inf
