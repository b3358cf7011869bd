"""Complete prefix-free D-ary codebooks and their leaf distributions.

A codebook is the set of root-to-leaf paths of a complete D-ary tree:
prefix-free, and with Kraft sum exactly 1 (checked in integer arithmetic).
Leaves are kept in lexicographic order; every index-based structure built
on top of a codebook refers to that order.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache, reduce

import numpy as np

from .probdist import Pmf, _frozen

#: cap on the number of leaves a product codebook may have
MAX_PRODUCT_LEAVES = 1 << 20


class CodebookError(ValueError):
    """The leaves are not a complete prefix-free codebook; the message names the defect."""


@dataclass(frozen=True, eq=False)
class Codebook:
    """A complete prefix-free codebook over D symbols, its leaves sorted.

    Constructing one checks nothing; ``validate_complete`` checks one as it
    stands.  ``codes[i]`` is leaf i's path, ceil(log2 D) bits per symbol, MSB
    first, left-aligned in the uint64 pieces of an ``[N, pieces]`` array and
    zero past its length ``lengths[i]`` (int64); the library builds them
    C-contiguous.  Derived on first use: ``pieces``, the codes as C-contiguous
    rows (a view of C-contiguous codes) and the bits each piece holds (0 to
    64), and ``table``, the paths as the rows of an ``[N, max_len]`` matrix in
    the smallest unsigned dtype that holds D, with D past each leaf's end.
    All are read-only.  ``leaves`` rebuilds the paths for the benchmark's oracle.
    """

    alphabet_size: int
    codes: np.ndarray
    lengths: np.ndarray

    def __len__(self) -> int:
        return self.lengths.size

    @cached_property
    def pieces(self) -> tuple[np.ndarray, np.ndarray]:
        bits = self.lengths * operator.index(self.alphabet_size - 1).bit_length()
        sizes = np.empty(self.codes.shape, dtype=np.uint8)
        for j in range(sizes.shape[1]):  # one int64 column at a time
            sizes[:, j] = np.clip(bits - 64 * j, 0, 64)
        return _frozen(np.ascontiguousarray(self.codes).view()), _frozen(sizes)  # freezes no caller's array

    @cached_property
    def table(self) -> np.ndarray:
        return _frozen(_unpack(self))

    @property
    def leaves(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(row[:n].tolist()) for row, n in zip(self.table, self.lengths))

    def max_len(self) -> int:
        return int(self.lengths.max())


@dataclass(frozen=True, eq=False)
class LeafDistribution:
    """A codebook with the leaf probabilities induced by its branching law ``p``.

    ``leaf_probs[i]`` is the product of branch probabilities along leaf i,
    and ``expected_len`` is the mean leaf length under those probabilities.
    Only ``leaf_distribution`` and ``build_tunstall`` build one, from ``p``.
    """

    codebook: Codebook
    leaf_probs: np.ndarray
    p: Pmf

    @property
    def expected_len(self) -> float:
        return float((self.leaf_probs * self.codebook.lengths).sum())


def validate_complete(book: Codebook) -> Codebook:
    """Check a Codebook as it stands, codes in the given order, and return it.

    Raises ValueError for a malformed codebook: an alphabet under 2 symbols,
    codes that are not uint64 or not N by ceil(max_len * ceil(log2 D) / 64)
    pieces, lengths that are not integers or under 1, no leaves, a bit set past
    a leaf's end or a symbol field outside [0, D); and CodebookError, naming
    the duplicate leaf, the prefix pair, the leaves out of order or the exact
    rational Kraft deficit, when the leaves are not a sorted complete
    prefix-free codebook.
    """
    d, codes, lengths = operator.index(book.alphabet_size), book.codes, book.lengths
    if d < 2:
        raise ValueError("alphabet size must be at least 2")
    if codes.dtype != np.uint64 or not np.issubdtype(lengths.dtype, np.integer):
        raise ValueError(f"codes must be uint64 and lengths integer arrays, not {codes.dtype} and {lengths.dtype}")
    if not lengths.size:
        raise ValueError("leaf set must be nonempty")
    if lengths.min() < 1:
        raise ValueError("leaf paths must have length at least 1")
    width, n = (d - 1).bit_length(), lengths.size
    if codes.shape != (n, pieces := -(-book.max_len() * width // 64)):
        raise ValueError(f"codes shape {codes.shape} is not (N, pieces) = ({n}, {pieces})")
    # Each leaf must sort strictly before the next and not be its prefix: cut to the shorter leaf's bits,
    # its code is the smaller.  In sorted order a prefix pair, if any, is adjacent.  Column j holds bits
    # 64j to 64j + 63 of each path, and a shift by 64 gives 0.
    bits = lengths * width
    both, less = np.minimum(bits[:-1], bits[1:]), False
    for j in range(pieces - 1, -1, -1):  # the first differing piece decides, so it is compared last
        if (past := codes[:, j] << np.clip(bits - 64 * j, 0, 64).astype(np.uint64) != 0).any():
            raise ValueError(f"code {int(past.argmax())} has bits set past its leaf's end")
        drop = np.clip(64 * (j + 1) - both, 0, 64).astype(np.uint64)
        x, y = codes[:-1, j] >> drop, codes[1:, j] >> drop
        less = (x < y) | (x == y) & less
    if d & (d - 1) and max(field.max() for field in _fields(codes, width, book.max_len())) >= d:
        raise ValueError(f"leaves contain symbols outside [0, {d})")  # a field holds up to 2^width - 1
    if not less.all():
        i = int(less.argmin())
        rows = np.array(list(_fields(codes[i : i + 2], width, int(lengths[i : i + 2].max())))).T
        a, b = (tuple(rows[r, : lengths[i + r]].tolist()) for r in (0, 1))
        if a == b:
            raise CodebookError(f"duplicate leaf {a}")
        if b[: len(a)] == a:
            raise CodebookError(f"leaf {a} is a prefix of leaf {b}")
        raise CodebookError(f"leaf {a} sorts after leaf {b}")
    # D^lmax times the Kraft sum, exactly: sum of count(l) * D^(lmax - l), by Horner's rule
    kraft = reduce(lambda acc, count: acc * d + count, np.bincount(lengths)[1:].tolist(), 0)
    full = d ** book.max_len()
    if kraft != full:
        raise CodebookError(f"Kraft sum differs from 1 by exact deficit {Fraction(full - kraft, full)}")
    return book


def leaf_distribution(p: Pmf, codebook: Codebook) -> LeafDistribution:
    """Leaf probabilities under p as the branching distribution.

    Requires p to have full support: a zero-probability branch would make
    part of the tree unreachable.
    """
    if p.alphabet_size != codebook.alphabet_size:
        raise ValueError(f"alphabet mismatch: distribution has {p.alphabet_size} symbols, "
                         f"codebook has {codebook.alphabet_size}")
    if not p.has_full_support():
        raise ValueError("branching distribution must have full support; drop zero-probability symbols first")
    # the left fold of acc *= pv[s] along each path, one symbol position at a time; paths that ended are masked out
    probs, width, short = np.ones(len(codebook)), (p.alphabet_size - 1).bit_length(), codebook.lengths.min()
    for j, symbols in enumerate(_fields(codebook.codes, width, codebook.max_len())):
        np.multiply(probs, np.take(p.probs, symbols), out=probs, where=j < short or codebook.lengths > j)
    return LeafDistribution(codebook=codebook, leaf_probs=_frozen(probs), p=p)


def product_length(alphabet_size: int, n: int) -> int:
    """n as an int, once D >= 2, n >= 1 and D^n <= MAX_PRODUCT_LEAVES; checked before a product codebook is built."""
    d, n = operator.index(alphabet_size), operator.index(n)
    if d < 2:
        raise ValueError("alphabet size must be at least 2")
    if n < 1:
        raise ValueError("block length must be at least 1")
    if n > MAX_PRODUCT_LEAVES.bit_length() or d**n > MAX_PRODUCT_LEAVES:  # d**n only for small n
        raise ValueError(f"product codebook would have D^n = {d}^{n} leaves, above the cap {MAX_PRODUCT_LEAVES}")
    return n


def product_codebook(alphabet_size: int, n: int) -> Codebook:
    """All D^n paths of length n, in lexicographic order."""
    d, n = operator.index(alphabet_size), product_length(alphabet_size, n)
    codes = np.zeros(1, dtype=np.uint64)
    for j in range(n):  # D^n <= 2^20 keeps n * ceil(log2 D) <= 24 bits: one piece
        codes = _children(np.bitwise_or, codes, _symbol_bits(d, j, 1)[:, 0])
    return Codebook(d, _frozen(codes.reshape(-1, 1)), _frozen(np.full(codes.size, n, dtype=np.int64)))


def _children(ufunc: np.ufunc, parents: np.ndarray, values: np.ndarray) -> np.ndarray:
    """ufunc(parent, values[..., s]) for each parent (last axis) and symbol s (values' last axis), in parent order."""
    if parents.size < 128:  # few parents: one broadcast, which runs several times slower per child but is one call
        return ufunc(parents[..., None], values).reshape(*parents.shape[:-1], -1)
    out = np.empty((*parents.shape, values.shape[-1]), dtype=parents.dtype)
    for s in range(values.shape[-1]):
        ufunc(parents, values[..., s], out=out[..., s])
    return out.reshape(*parents.shape[:-1], -1)


@lru_cache(maxsize=64)
def _symbol_bits(d: int, j: int, pieces: int) -> np.ndarray:
    """The D symbols as symbol j of a path in ``Codebook.codes``: [D, pieces] uint64; read-only, the last 64 cached."""
    a, end = divmod((j + 1) * (d - 1).bit_length() - 1, 64)  # symbol j ends at bit `end` (MSB first) of piece a
    out, symbols = np.zeros((d, pieces), dtype=np.uint64), np.arange(d, dtype=np.uint64)  # piece a - 1 takes the spill,
    out[:, a - 1], out[:, a] = symbols >> np.uint64(end + 1), symbols << np.uint64(63 - end)  # 0 at a = 0, set first
    return _frozen(out)


def _unpack(book: Codebook) -> np.ndarray:
    """The table: each leaf's path in its row, then D to the row's end, in the smallest unsigned dtype that holds D."""
    d, codes, lengths, count = operator.index(book.alphabet_size), book.codes, book.lengths, book.max_len()
    out = np.zeros((len(book), count), dtype=np.min_scalar_type(d))
    if d > 2:
        for t, symbols in enumerate(_fields(codes, (d - 1).bit_length(), count)):
            out[:, t] = symbols
            np.copyto(out[:, t], d, where=lengths <= t)
        return out
    # The bits are the symbols; the pad's bits, set past each leaf's end, are added once with them and once alone: 2.
    step, starts = max(1, (1 << 20) // count), 64 * np.arange(codes.shape[1])  # blocks of about 2^20 cells
    for s in range(0, len(book), step):
        pad = ~np.uint64(0) >> np.clip(lengths[s : s + step, None] - starts, 0, 64).astype(np.uint64)
        for bits in (codes[s : s + step] | pad, pad):
            out[s : s + step] += np.unpackbits(bits.astype(">u8").view(np.uint8), axis=1, count=count)
    return out


def _fields(codes: np.ndarray, width: int, count: int):
    """Symbols 0 to count - 1 of the paths in `codes` ([rows, pieces]), int64 arrays that numpy indexes with as is."""
    for t in range(count):
        a, o = divmod(t * width, 64)
        word = codes[:, a] << np.uint64(o)
        if o + width > 64:
            word |= codes[:, a + 1] >> np.uint64(64 - o)
        word >>= np.uint64(64 - width)
        yield word.view(np.int64)
