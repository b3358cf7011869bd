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
    codes, lengths, leaf_probs = _leaves(p.probs, n)
    # Unpacked in blocks of about 2^20 cells and dropped before the check, so little sits next to the table.
    table = np.empty((n, int(lengths.max())), dtype=np.min_scalar_type(d - 1))
    step = max(1, (1 << 20) // table.shape[1])
    for s in range(0, n, step):
        _unpack(codes[:, s : s + step], (d - 1).bit_length(), table[s : s + step])
    del codes
    codebook = validate_complete(Codebook(d, _frozen(table), _frozen(lengths)))
    return LeafDistribution(codebook=codebook, leaf_probs=_frozen(leaf_probs), p=p)


def _leaves(pv: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The N leaves in lexicographic order: packed paths ([pieces, N], see ``_symbol_bits``), lengths, probabilities.

    The tree's level arrays are freed on return, before the table is allocated.
    """
    d, width = pv.size, (pv.size - 1).bit_length()
    # The greedy split takes nodes in increasing (-prob, path) order, so its k
    # internal nodes are the k smallest keys of the tree.  Each is at least as
    # likely as the likeliest leaf, which has probability 1/N or more: a node
    # below a cutoff under 1/N needs no children.
    k = (n - d) // (d - 1)
    cutoff = (1 - 1e-9) / n
    fronts, probs = _grow(pv, k, cutoff)
    if np.count_nonzero(np.concatenate(probs) >= cutoff) < k:  # never seen; the running bound alone is safe
        fronts, probs = _grow(pv, k, 0.0)
    internal = _internal(fronts, probs, k)
    leaf = [~internal[0]] + [np.repeat(internal[j - 1][fronts[j]], d) & ~internal[j] for j in range(1, len(probs))]
    depth = max(j for j, level in enumerate(leaf, 1) if level.any())
    # Level j's tree nodes are the D children of each internal node above, in
    # order: the parent's code ORed with each symbol.  The level's leaves are
    # written after those of the levels above, and its internal nodes' codes go
    # on to the next level.  No leaf is a prefix of another, so the left-aligned
    # codes are distinct and sort as the paths do; stored piece by piece, each
    # of lexsort's keys is contiguous.
    pieces = -(-depth * width // 64)
    codes, front = np.empty((pieces, n), dtype=np.uint64), np.zeros((pieces, 1), dtype=np.uint64)
    lengths, leaf_probs, start = np.empty(n, dtype=np.int64), np.empty(n), 0
    for j, here in enumerate(leaf[:depth]):
        nodes = (front[:, :, None] | _symbol_bits(d, j, pieces).T[:, None]).reshape(pieces, -1)
        inner, end = internal[j][here | internal[j]], start + np.count_nonzero(here)
        codes[:, start:end], lengths[start:end], leaf_probs[start:end] = nodes[:, ~inner], j + 1, probs[j][here]
        front, start = nodes[:, inner], end
    order = np.lexsort(codes[::-1])
    return codes[:, order], lengths[order], leaf_probs[order]


def _internal(fronts: list, probs: list, k: int) -> list:
    """Per level, which grown nodes are among the k that the greedy split: the k smallest (-prob, path) keys."""
    d, width = probs[0].size, (probs[0].size - 1).bit_length()
    ends = np.cumsum([q.size for q in probs])
    flat = np.concatenate(probs)
    internal = np.zeros(flat.size, dtype=bool)
    if k:  # likelier than the k-th largest probability, or tied with it on a smaller path
        kth = np.partition(flat, flat.size - k)[flat.size - k]
        internal, tied = flat > kth, np.flatnonzero(flat == kth)
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


def _symbol_bits(d: int, j: int, pieces: int) -> np.ndarray:
    """Each of the D symbols as symbol j of a path packed as ``ResolutionCode.pieces`` packs it: [D, pieces] uint64.

    That is ceil(log2 D) bits per symbol, MSB first, left-aligned in 64-bit
    pieces; a symbol that crosses a piece boundary is split over both.
    """
    width = (d - 1).bit_length()
    out, symbol = np.zeros((d, pieces), dtype=np.uint64), np.arange(d, dtype=np.uint64)
    a, end = divmod(j * width, 64)
    end += width
    out[:, a] = symbol >> np.uint64(max(end - 64, 0)) << np.uint64(max(64 - end, 0))
    if end > 64:
        out[:, a + 1] = symbol << np.uint64(128 - end)
    return out


def _unpack(codes: np.ndarray, width: int, out: np.ndarray) -> None:
    """Write each path in `codes` ([pieces, rows], see ``_symbol_bits``) to its row, cut to out.shape[1] symbols."""
    if width == 1:  # the bits are the symbols
        out[:] = np.unpackbits(codes.T.astype(">u8", order="C").view(np.uint8), axis=1, count=out.shape[1])
        return
    for t in range(out.shape[1]):
        a, o = divmod(t * width, 64)
        word = codes[a] << np.uint64(o)
        if o + width > 64:
            word |= codes[a + 1] >> np.uint64(64 - o)
        out[:, t] = word >> np.uint64(64 - width)


def _grow(pv: np.ndarray, k: int, cutoff: float):
    """Per level, in lexicographic order: which nodes of the level above got children, and the node probabilities.

    Node i of level j is symbol i mod D below node fronts[j][i // D]; level 0's
    front is the root.  A node gets children down to depth k + 1 while its
    probability is at least the cutoff and the k-th largest generated so far,
    a lower bound of the tree's.
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
    return fronts, probs
