"""Slow reference implementations and re-proofs that the library code is checked against.

None is used by the library: the Tunstall build and the completeness
check both work on flat arrays there, min_type_order takes one gcd,
quantize sorts only a bracket of levels around the last unit, closed form
while every count is exact and found by bisecting a cost threshold past
that or when the bracket is wide (heap_quantize pops one unit at a time
from a heap with one entry per symbol, and brute_force_quantize enumerates
every composition), codebooks are
held as packed codes and lengths (paths decodes the codes back into
tuples without the library's unpacking, flat_codebook packs leaf paths
into one with Python ints), the CLI writes text output as
one byte array per chunk and packed output straight from codeword
indices (pack_symbols packs expanded symbols instead), and the stream
cuts its words from packed bytes and maps them through its guide table.
check_balance re-proves the Tunstall balance that build_tunstall
guarantees by construction.  The build expands each node into its D
children with one pass per symbol and caches each symbol position's bits
(broadcast_children is the one-broadcast expansion, numpy_symbol_bits the
piece-split formula the build first used), and product_codebook packs its codes
level by level (product_codes packs each path as one Python int).
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from rescode import Codebook, CodebookError, TypedPmf, pack_codewords
from rescode.probdist import as_prob_vector, checked_probs

# The widest input length whose 2^m words the tests enumerate one by one.
EXHAUSTIVE_BITS = 16

# The largest support and number of compositions brute_force_quantize enumerates.
_MAX_BRUTE_SUPPORT = 8
_MAX_BRUTE_SIZE = 10**7

# Relative slack for the balance checks, absorbing double-precision drift.
_BALANCE_SLACK = 1e-9


def heap_tunstall(pv, n: int):
    """Tunstall's greedy split with a heap of (-prob, path): (sorted leaves, their probabilities).

    The most likely leaf is split first; equal probabilities split the
    lexicographically smaller path first.
    """
    d = len(pv)
    symbol = [bytes((a,)) if d <= 256 else (a,) for a in range(d)]  # sort as tuples of ints do; faster to copy
    heap = [(-pv[a], symbol[a]) for a in range(d)]
    heapq.heapify(heap)
    while len(heap) < n:
        neg, path = heapq.heappop(heap)
        for a in range(d):
            heapq.heappush(heap, (neg * pv[a], path + symbol[a]))
    items = sorted((path, -neg) for neg, path in heap)
    return tuple(tuple(path) for path, _ in items), np.array([prob for _, prob in items], dtype=float)


def paths(book) -> tuple[tuple[int, ...], ...]:
    """A codebook's leaf paths as a tuple of tuples, in row order, decoded from its codes and lengths.

    Each row of codes is unpacked to bits from its big-endian bytes, and each
    ceil(log2 D) bits of it, MSB first, are folded into one symbol.
    """
    width = (book.alphabet_size - 1).bit_length()
    weights = 1 << np.arange(width - 1, -1, -1)
    rows = np.unpackbits(book.codes.astype(">u8", order="C").view(np.uint8), axis=1)
    if width > 1:  # every row's n * width bits lie in its first whole symbols
        rows = rows[:, : rows.shape[1] // width * width].reshape(len(rows), -1, width) @ weights
    return tuple(tuple(row[:n].tolist()) for row, n in zip(rows, book.lengths.tolist()))


def flat_codebook(leaves, d: int) -> Codebook:
    """A Codebook holding the leaf paths in sorted order, unchecked.

    Each path is packed as one Python int, ceil(log2 d) bits per symbol MSB first,
    then cut into its uint64 pieces; a symbol that does not fit its field is refused.
    """
    leaves, width = sorted(tuple(x) for x in leaves), (d - 1).bit_length()
    lengths = np.array([len(x) for x in leaves], dtype=np.int64)
    pieces = -(-max(map(len, leaves), default=0) * width // 64)
    codes = np.zeros((len(leaves), pieces), dtype=np.uint64)
    for i, x in enumerate(leaves):
        if not all(0 <= s < 1 << width for s in x):
            raise ValueError(f"path {x} has a symbol that does not fit {width} bits")
        value = sum(s << (64 * pieces - width * (t + 1)) for t, s in enumerate(x))
        codes[i] = np.frombuffer(value.to_bytes(8 * pieces, "big"), dtype=">u8")
    return Codebook(alphabet_size=d, codes=codes, lengths=lengths)


def tuple_validate_complete(leaves, alphabet_size: int):
    """The sorted leaf tuples of a complete prefix-free codebook, or the error that says why not."""
    d = int(alphabet_size)
    if d < 2:
        raise ValueError("alphabet size must be at least 2")
    paths = [tuple(int(s) for s in leaf) for leaf in leaves]
    if not paths:
        raise ValueError("leaf set must be nonempty")
    for x in paths:
        if len(x) < 1:
            raise ValueError("leaf paths must have length at least 1")
        if any(s < 0 or s >= d for s in x):
            raise ValueError(f"path {x} contains symbols outside [0, {d})")
    paths.sort()
    for a, b in itertools.pairwise(paths):
        if a == b:
            raise CodebookError(f"duplicate leaf {a}")
        if b[: len(a)] == a:
            raise CodebookError(f"leaf {a} is a prefix of leaf {b}")
    lmax = max(len(x) for x in paths)
    kraft = sum(d ** (lmax - len(x)) for x in paths)
    if kraft != d**lmax:
        raise CodebookError(f"Kraft sum differs from 1 by exact deficit {Fraction(d**lmax - kraft, d**lmax)}")
    return tuple(paths)


@dataclass(frozen=True)
class BalanceReport:
    """Outcome of the Tunstall balance checks on a built codebook."""

    ratio: float
    min_prob: float
    max_prob: float
    ok: bool


def check_balance(ld) -> BalanceReport:
    """Verify the Tunstall balance bounds on a built leaf distribution.

    ok means: max/min <= 1/mu, min >= mu/N, and max <= 1/(N*mu), each with
    a small relative slack, where mu is the smallest probability of the
    branching law ld.p.  A failure indicates a construction bug.
    """
    mu = ld.p.mu()
    n = len(ld.codebook)
    min_prob = float(ld.leaf_probs.min())
    max_prob = float(ld.leaf_probs.max())
    ratio = max_prob / min_prob
    slack = 1.0 + _BALANCE_SLACK
    ok = (
        ratio <= slack / mu
        and min_prob >= (mu / n) / slack
        and max_prob <= slack / (n * mu)
    )
    return BalanceReport(ratio=ratio, min_prob=min_prob, max_prob=max_prob, ok=ok)


def loop_leaf_probs(pv, leaves) -> np.ndarray:
    """Each leaf's probability as the left fold acc *= pv[s] along its path."""
    probs = np.empty(len(leaves))
    for i, x in enumerate(leaves):
        acc = 1.0
        for s in x:
            acc *= pv[s]
        probs[i] = acc
    return probs


def lcm_min_type_order(t) -> int:
    """Least M for which t is M-type: the lcm of the reduced denominators of counts[a]/M."""
    m = t.denominator
    order = 1
    for c in t.counts[t.counts > 0]:
        order = math.lcm(order, m // math.gcd(int(c), m))
    return order


def heap_quantize(q, m_units: int):
    """The greedy M-type allocation with one pop and one push per unit: counts and cost by dicts."""
    m = int(m_units)
    if m < 1:
        raise ValueError("number of units must be a positive integer")
    qv = checked_probs(as_prob_vector(q))
    support = np.flatnonzero(qv > 0)
    counts = np.zeros(qv.size, dtype=np.int64)

    # marginal cost of unit c+1 on symbol a: (c+1)ln(c+1) - c ln c - ln(M q_a)
    log_mq = {int(a): math.log(m * qv[a]) for a in support}
    cap = {int(a): int(math.floor(m * qv[a])) + 1 for a in support}

    def marginal(a: int, c: int) -> float:
        if c == 0:
            return -log_mq[a]
        return (c + 1) * math.log(c + 1) - c * math.log(c) - log_mq[a]

    # (cost, index) entries: equal costs pop in index order, deterministically
    heap = [(marginal(int(a), 0), int(a)) for a in support]
    heapq.heapify(heap)
    for _ in range(m):
        if not heap:
            # only reachable when M * (1 - sum(q)) swallows the cap slack
            raise ValueError("target sum is too far from 1 to allocate at this resolution")
        _, a = heapq.heappop(heap)
        counts[a] += 1
        if counts[a] < cap[a]:
            heapq.heappush(heap, (marginal(a, int(counts[a])), a))
    return TypedPmf(m, counts)


@lru_cache(maxsize=32)
def _compositions(m: int, parts: int) -> np.ndarray:
    """All compositions of m into `parts` nonnegative parts, ascending lex order."""
    if parts == 1:
        return np.array([[m]], dtype=np.int64)
    n_rows = math.comb(m + parts - 1, parts - 1)
    bars = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(m + parts - 1), parts - 1)),
        dtype=np.int64,
        count=n_rows * (parts - 1),
    ).reshape(n_rows, parts - 1)
    out = np.empty((n_rows, parts), dtype=np.int64)
    out[:, 0] = bars[:, 0]
    out[:, 1:-1] = bars[:, 1:] - bars[:, :-1] - 1
    out[:, -1] = m + parts - 2 - bars[:, -1]
    return out


def brute_force_quantize(q, m_units: int) -> TypedPmf:
    """Exhaustive minimizer of D(c/M || q) over all compositions of M.

    On exact divergence ties the count vector that loads the smallest
    symbol indices wins (matching the greedy tie-break).  Only feasible
    for small supports; raises when the instance is too large.
    """
    m = int(m_units)
    if m < 1:
        raise ValueError("number of units must be a positive integer")
    qv = checked_probs(as_prob_vector(q))
    support = np.flatnonzero(qv > 0)
    s = support.size
    if s > _MAX_BRUTE_SUPPORT:
        raise ValueError(f"instance too large: support {s} > {_MAX_BRUTE_SUPPORT}")
    if math.comb(m + s - 1, s - 1) > _MAX_BRUTE_SIZE:
        raise ValueError("instance too large: too many compositions to enumerate")
    comps = _compositions(m, s)
    probs = comps / m
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(comps > 0, probs * np.log2(probs / qv[support]), 0.0)
    kl = terms.sum(axis=1)
    winners = np.flatnonzero(kl == kl.min())
    best = comps[winners[-1]]
    counts = np.zeros(qv.size, dtype=np.int64)
    counts[support] = best
    return TypedPmf(m, counts)


def pack_symbols(symbols: np.ndarray, d: int) -> bytes:
    """Packed output from expanded symbols: each symbol's ceil(log2 d) bits, MSB first, by np.packbits."""
    bits_per = max(1, math.ceil(math.log2(d)))
    shifts = np.arange(bits_per - 1, -1, -1, dtype=symbols.dtype)
    return np.packbits(((symbols[:, None] >> shifts) & 1).reshape(-1)).tobytes()


def pack_chunks(code, chunks) -> tuple[bytes, list[int]]:
    """The bytes pack_codewords gives for chunks of codeword indices, a 64-bit word carried between them, and
    the carried bit count after each chunk."""
    out, word, bits, carried = [], 0, 0, []
    for idx in chunks:
        words, word, bits = pack_codewords(code, idx, word, bits)
        out.append(words.tobytes())
        carried.append(bits)
    return b"".join(out) + word.to_bytes(8, "big")[: -(-bits // 8)], carried


def digit_lines(symbols) -> bytes:
    """Text output one symbol at a time: a decimal digit per symbol, 64 to a line, each line ended by a newline."""
    digits = "".join(str(int(s)) for s in symbols)
    return "".join(digits[i : i + 64] + "\n" for i in range(0, len(digits), 64)).encode()


def column_words(bits, width: int) -> np.ndarray:
    """The whole width-bit words of a 0/1 array, MSB-first, by one shift-and-or pass per bit column."""
    full = bits.size // width
    words = np.zeros(full, dtype=np.int64)
    for column in bits[: full * width].reshape(full, width).T:
        words <<= 1
        words |= column
    return words


def served_bits(source, n: int) -> np.ndarray:
    """The 0/1 bits one take_bits(n) call serves, unpacked from its (data, skip, count)."""
    data, skip, count = source.take_bits(n)
    return np.unpackbits(data)[skip : skip + count]


def interval_map(code, words=None) -> np.ndarray:
    """The codeword index of each m-bit word (all 2^m of them by default), by binary search of cum."""
    words = np.arange(1 << code.m, dtype=np.int64) if words is None else np.asarray(words, dtype=np.int64)
    if np.any((words < 0) | (words >= 1 << code.m)):
        raise ValueError(f"input words must lie in [0, 2^{code.m})")
    return np.searchsorted(code.cum, words, side="right") - 1


def induced_counts(code) -> np.ndarray:
    """How many of the 2^m words the interval map sends to each codeword."""
    return np.bincount(interval_map(code), minlength=code.num_codewords)


def broadcast_children(ufunc, parents: np.ndarray, values) -> np.ndarray:
    """ufunc(parent, values[..., s]) for each parent (last axis) and symbol s, parent by parent, one broadcast over D."""
    return ufunc(parents[..., None], values).reshape(*parents.shape[:-1], -1)


def numpy_symbol_bits(d: int, j: int, pieces: int) -> np.ndarray:
    """The D symbols as symbol j of a packed path: [D, pieces] uint64, written into the one or two pieces it spans."""
    width = (d - 1).bit_length()
    out, symbol = np.zeros((d, pieces), dtype=np.uint64), np.arange(d, dtype=np.uint64)
    a, end = divmod(j * width, 64)
    end += width
    out[:, a] = symbol >> np.uint64(max(end - 64, 0)) << np.uint64(max(64 - end, 0))
    if end > 64:
        out[:, a + 1] = symbol << np.uint64(128 - end)
    return out


def product_codes(d: int, n: int) -> np.ndarray:
    """The D^n paths of length n in lexicographic order, each packed MSB first into one uint64: [D^n, 1]."""
    width = (d - 1).bit_length()
    if n * width > 64:
        raise ValueError(f"{n} symbols of {width} bits do not fit one piece")
    tuples = itertools.product(range(d), repeat=n)
    return np.array([[sum(s << 64 - (t + 1) * width for t, s in enumerate(path))] for path in tuples], dtype=np.uint64)
