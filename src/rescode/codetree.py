"""Complete prefix-free D-ary codebooks and their leaf distributions.

A codebook is the set of root-to-leaf paths of a complete D-ary tree:
prefix-free, and with Kraft sum exactly 1 (checked in integer arithmetic).
Leaves are kept in lexicographic order; every index-based structure built
on top of a codebook refers to that order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .probdist import Pmf, _frozen

__all__ = [
    "Codebook",
    "LeafDistribution",
    "CodebookError",
    "PrefixViolationError",
    "IncompleteCodebookError",
    "DuplicateLeafError",
    "validate_complete",
    "leaf_distribution",
    "product_codebook",
]

#: default bound on path length for user-supplied leaf sets
DEFAULT_MAX_LEN = 64

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
    """A complete prefix-free codebook: D and its leaf paths, sorted.

    ``lengths`` (int64), ``table``, the leaves as a zero-padded
    ``[N, max_len]`` symbol matrix, and ``mask``, the ``[N, max_len]``
    cells of ``table`` that hold a symbol, are built on first use and
    read-only.
    """

    alphabet_size: int
    leaves: tuple[tuple[int, ...], ...]

    def __len__(self) -> int:
        return len(self.leaves)

    @cached_property
    def lengths(self) -> np.ndarray:
        return _frozen(np.array([len(x) for x in self.leaves], dtype=np.int64))

    @cached_property
    def mask(self) -> np.ndarray:
        return _frozen(np.arange(self.max_len()) < self.lengths[:, None])

    @cached_property
    def table(self) -> np.ndarray:
        dtype = np.min_scalar_type(self.alphabet_size - 1)
        flat = np.fromiter(itertools.chain.from_iterable(self.leaves), dtype=dtype, count=int(self.lengths.sum()))
        table = np.zeros(self.mask.shape, dtype=dtype)
        table[self.mask] = flat
        return _frozen(table)

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


def validate_complete(leaves, alphabet_size: int, *, max_len: int | None = DEFAULT_MAX_LEN) -> Codebook:
    """Check a leaf set and return the canonical (sorted) Codebook.

    Raises DuplicateLeafError, PrefixViolationError, or
    IncompleteCodebookError (with the exact rational deficit) when the set
    is not a complete prefix-free codebook.
    """
    d = int(alphabet_size)
    if d < 2:
        raise ValueError("alphabet size must be at least 2")
    paths = [tuple(int(s) for s in leaf) for leaf in leaves]
    if not paths:
        raise ValueError("leaf set must be nonempty")
    for x in paths:
        if len(x) < 1:
            raise ValueError("leaf paths must have length at least 1")
        if max_len is not None and len(x) > max_len:
            raise ValueError(f"leaf path longer than max_len={max_len}")
        if any(s < 0 or s >= d for s in x):
            raise ValueError(f"path {x} contains symbols outside [0, {d})")
    paths.sort()
    # In sorted order a prefix pair, if any exists, is adjacent.
    for a, b in itertools.pairwise(paths):
        if a == b:
            raise DuplicateLeafError(f"duplicate leaf {a}")
        if b[: len(a)] == a:
            raise PrefixViolationError(f"leaf {a} is a prefix of leaf {b}")
    lmax = max(len(x) for x in paths)
    kraft = sum(d ** (lmax - len(x)) for x in paths)
    if kraft != d**lmax:
        raise IncompleteCodebookError(Fraction(d**lmax - kraft, d**lmax))
    return Codebook(alphabet_size=d, leaves=tuple(paths))


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
    probs = np.empty(len(codebook), dtype=float)
    pv = p.probs
    for i, x in enumerate(codebook.leaves):
        acc = 1.0
        for s in x:
            acc *= pv[s]
        probs[i] = acc
    return LeafDistribution(codebook=codebook, leaf_probs=_frozen(probs))


def product_codebook(alphabet_size: int, n: int) -> Codebook:
    """All D^n paths of length n, in lexicographic order."""
    d = int(alphabet_size)
    if d < 2:
        raise ValueError("alphabet size must be at least 2")
    if n < 1:
        raise ValueError("block length must be at least 1")
    if d**n > MAX_PRODUCT_LEAVES:
        raise ValueError(f"product codebook would have {d**n} leaves, above the cap {MAX_PRODUCT_LEAVES}")
    leaves = tuple(itertools.product(range(d), repeat=n))
    return Codebook(alphabet_size=d, leaves=leaves)
