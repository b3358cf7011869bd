"""Tunstall codebook construction for a memoryless branching distribution.

Starting from the root's D children, the leaf of maximum probability is
repeatedly split into its D children until the requested size is reached.
The resulting leaf probabilities are balanced: max and min differ at most
by the factor 1/mu, where mu is the smallest branch probability.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .codetree import LeafDistribution, validate_complete
from .probdist import Pmf, _frozen

__all__ = [
    "build_tunstall",
    "check_balance",
    "BalanceReport",
    "is_valid_size",
    "round_size_down",
]

# Relative slack for the balance checks, absorbing double-precision drift.
_BALANCE_SLACK = 1e-9


def is_valid_size(alphabet_size: int, num_codewords: int) -> bool:
    """True when a D-ary Tunstall tree with exactly this many leaves exists."""
    d = int(alphabet_size)
    n = int(num_codewords)
    return n >= d and (n - d) % (d - 1) == 0


def round_size_down(alphabet_size: int, num_codewords: int) -> int:
    """Largest valid codebook size not exceeding num_codewords."""
    d = int(alphabet_size)
    n = int(num_codewords)
    if n < d:
        raise ValueError(f"no valid codebook size <= {n} for alphabet size {d}")
    return d + ((n - d) // (d - 1)) * (d - 1)


def build_tunstall(p: Pmf, num_codewords: int) -> LeafDistribution:
    """Grow the Tunstall codebook with exactly `num_codewords` leaves.

    Ties on leaf probability break toward the lexicographically smallest
    path, so the construction is deterministic.  Sizes must satisfy
    N = D + k(D-1); others are rejected.
    """
    d = p.alphabet_size
    n = int(num_codewords)
    if d < 2:
        raise ValueError("alphabet size must be at least 2")
    if not p.has_full_support():
        raise ValueError("branching distribution must have full support")
    if not is_valid_size(d, n):
        raise ValueError(f"invalid codebook size {n}: must be {d} + k*({d - 1}) for some k >= 0")

    pv = p.probs
    # heap of (-prob, path); max-probability leaf pops first, path order breaks ties
    heap: list[tuple[float, tuple[int, ...]]] = [(-pv[a], (a,)) for a in range(d)]
    heapq.heapify(heap)
    while len(heap) < n:
        neg, path = heapq.heappop(heap)
        for a in range(d):
            heapq.heappush(heap, (neg * pv[a], path + (a,)))

    items = sorted((path, -neg) for neg, path in heap)
    codebook = validate_complete([path for path, _ in items], d, max_len=None)
    probs = np.array([prob for _, prob in items], dtype=float)
    expected = float((probs * codebook.lengths()).sum())
    return LeafDistribution(codebook=codebook, leaf_probs=_frozen(probs), expected_len=expected)


@dataclass(frozen=True)
class BalanceReport:
    """Outcome of the Tunstall balance checks on a built codebook."""

    ratio: float
    min_prob: float
    max_prob: float
    ok: bool


def check_balance(ld: LeafDistribution, mu: float) -> BalanceReport:
    """Verify the Tunstall balance bounds on a built leaf distribution.

    ok means: max/min <= 1/mu, min >= mu/N, and max <= 1/(N*mu), each with
    a small relative slack.  A failure indicates a construction bug.
    """
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
