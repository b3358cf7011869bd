"""Complete prefix-free D-ary codebooks and their leaf distributions.

A codebook is the set of root-to-leaf paths of a complete D-ary tree:
prefix-free, and with Kraft sum exactly 1 (checked in integer arithmetic).
Leaves are kept in lexicographic order; every index-based structure built
on top of a codebook refers to that order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce

import numpy as np

from .probdist import Pmf, _frozen

#: cap on the number of leaves a product codebook may have
MAX_PRODUCT_LEAVES = 1 << 20


class CodebookError(ValueError):
    """Base class for invalid codebook structures."""


class PrefixViolationError(CodebookError):
    """One leaf path is a prefix of another."""


class DuplicateLeafError(CodebookError):
    """The same leaf path appears twice."""


class IncompleteCodebookError(CodebookError):
    """The Kraft sum differs from 1; ``deficit`` is the exact 1 - sum."""

    def __init__(self, deficit: Fraction):
        self.deficit = deficit
        super().__init__(f"Kraft sum differs from 1 by exact deficit {deficit}")


@dataclass(frozen=True, eq=False)
class Codebook:
    """A complete prefix-free codebook over D symbols, its leaves sorted.

    Constructing one checks nothing; ``validate_complete`` checks one as
    it stands.  ``table`` holds leaf i's symbols in row i of a
    ``[N, max_len]`` matrix in the smallest unsigned dtype that holds
    D - 1, zero past the leaf's length ``lengths[i]`` (int64).  ``mask``,
    the ``[N, max_len]`` cells of ``table`` that hold a symbol, is built on
    first use; all are read-only.  ``leaves`` rebuilds the paths as tuples
    for the benchmark's oracle.
    """

    alphabet_size: int
    table: np.ndarray
    lengths: np.ndarray

    def __len__(self) -> int:
        return self.lengths.size

    @cached_property
    def mask(self) -> np.ndarray:
        return _frozen(np.arange(self.max_len()) < self.lengths[:, None])

    @property
    def leaves(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(row[:n].tolist()) for row, n in zip(self.table, self.lengths))

    def max_len(self) -> int:
        return int(self.lengths.max())


@dataclass(frozen=True, eq=False)
class LeafDistribution:
    """A codebook with the leaf probabilities induced by a branching law.

    ``leaf_probs[i]`` is the product of branch probabilities along leaf i,
    and ``expected_len`` is the mean leaf length under those probabilities.
    """

    codebook: Codebook
    leaf_probs: np.ndarray

    @property
    def expected_len(self) -> float:
        return float((self.leaf_probs * self.codebook.lengths).sum())


def validate_complete(book: Codebook) -> Codebook:
    """Check a Codebook as it stands, rows in the given order, and return it.

    Raises ValueError for an alphabet under 2 symbols, no leaves, an empty
    leaf, a table that is not N rows by the longest leaf's length, or a
    cell outside [0, D); DuplicateLeafError, PrefixViolationError, or
    IncompleteCodebookError (with the exact rational deficit) when the
    leaves are not a complete prefix-free codebook; and CodebookError when
    the rows are out of order.
    """
    d, table, lengths = int(book.alphabet_size), book.table, book.lengths
    if d < 2:
        raise ValueError("alphabet size must be at least 2")
    if not lengths.size:
        raise ValueError("leaf set must be nonempty")
    if lengths.min() < 1:
        raise ValueError("leaf paths must have length at least 1")
    if table.shape != (lengths.size, book.max_len()):
        raise ValueError(f"table shape {table.shape} is not (N, max leaf length) = ({lengths.size}, {book.max_len()})")
    if table.min() < 0 or table.max() >= d:
        raise ValueError(f"leaves contain symbols outside [0, {d})")
    # Each leaf must sort strictly before the next and not be its prefix: the
    # first differing cell lies within both leaves and grows.  In sorted order
    # a prefix pair, if any exists, is adjacent.  Rows are compared in blocks
    # of about 2^20 cells, so the temporaries stay small next to the table.
    ok = np.empty(len(book) - 1, dtype=bool)
    step = max(1, (1 << 20) // table.shape[1])
    for s in range(0, ok.size, step):
        e = min(s + step, ok.size)
        x, y, rows = table[s:e], table[s + 1 : e + 1], np.arange(e - s)
        first = (x != y).argmax(axis=1)
        ok[s:e] = (first < np.minimum(lengths[s:e], lengths[s + 1 : e + 1])) & (y[rows, first] > x[rows, first])
    if not ok.all():
        i = int(ok.argmin())
        a, b = (tuple(table[r, : lengths[r]].tolist()) for r in (i, i + 1))
        if a == b:
            raise DuplicateLeafError(f"duplicate leaf {a}")
        if b[: len(a)] == a:
            raise PrefixViolationError(f"leaf {a} is a prefix of leaf {b}")
        raise CodebookError(f"leaf {a} sorts after leaf {b}")
    # D^lmax times the Kraft sum, exactly: sum of count(l) * D^(lmax - l), by Horner's rule
    kraft = reduce(lambda acc, count: acc * d + count, np.bincount(lengths)[1:].tolist(), 0)
    full = d ** book.max_len()
    if kraft != full:
        raise IncompleteCodebookError(Fraction(full - kraft, full))
    return book


def leaf_distribution(p: Pmf, codebook: Codebook) -> LeafDistribution:
    """Leaf probabilities under p as the branching distribution.

    Requires p to have full support: a zero-probability branch would make
    part of the tree unreachable.
    """
    if p.alphabet_size != codebook.alphabet_size:
        raise ValueError(
            f"alphabet mismatch: distribution has {p.alphabet_size} symbols, "
            f"codebook has {codebook.alphabet_size}"
        )
    if not p.has_full_support():
        raise ValueError("branching distribution must have full support; drop zero-probability symbols first")
    # the left fold of acc *= pv[s] along each path, one column at a time
    pv, table, lengths = p.probs, codebook.table, codebook.lengths
    probs = np.ones(len(codebook))
    for j in range(codebook.max_len()):
        probs *= np.where(lengths > j, pv[table[:, j]], 1.0)
    return LeafDistribution(codebook=codebook, leaf_probs=_frozen(probs))


def product_codebook(alphabet_size: int, n: int) -> Codebook:
    """All D^n paths of length n, in lexicographic order."""
    d = int(alphabet_size)
    if d < 2:
        raise ValueError("alphabet size must be at least 2")
    if n < 1:
        raise ValueError("block length must be at least 1")
    if n > MAX_PRODUCT_LEAVES.bit_length() or d**n > MAX_PRODUCT_LEAVES:  # d**n only for small n
        raise ValueError(f"product codebook would have D^n = {d}^{n} leaves, above the cap {MAX_PRODUCT_LEAVES}")
    table = np.indices((d,) * n, dtype=np.min_scalar_type(d - 1)).reshape(n, -1).T
    lengths = np.full(d**n, n, dtype=np.int64)
    return Codebook(alphabet_size=d, table=_frozen(np.ascontiguousarray(table)), lengths=_frozen(lengths))
