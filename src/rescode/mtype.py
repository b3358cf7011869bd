"""KL-optimal M-type quantization of a probability vector.

``quantize`` allocates M integer units over the support of q, one unit at
a time, always to the symbol with the smallest marginal divergence cost.
Marginal costs of a separable convex objective are increasing, so the
greedy allocation is a global minimizer.  Allocation is additionally
capped at counts[a] <= floor(M*q[a]) + 1 so that the output always
satisfies counts[a]/M <= q[a] + 1/M; the unconstrained optimum can break
that bound for very lopsided q (one dominant atom plus near-zero atoms),
and the bound is part of this module's contract.

``brute_force_quantize`` is an independent oracle that enumerates every
composition of M over the support.
"""

from __future__ import annotations

import heapq
import itertools
import math
from functools import lru_cache

import numpy as np

from .probdist import SUM_TOL, TypedPmf, as_prob_vector

_MAX_BRUTE_SUPPORT = 8
_MAX_BRUTE_SIZE = 10**7


def _checked_target(q) -> np.ndarray:
    qv = as_prob_vector(q)
    if np.any(qv < 0) or not np.all(np.isfinite(qv)):
        raise ValueError("target entries must be finite and nonnegative")
    s = float(qv.sum())
    if s <= 0:
        raise ValueError("target is degenerate: all entries are zero")
    if abs(s - 1.0) > SUM_TOL:
        raise ValueError(f"target sums to {s!r}, expected 1 within {SUM_TOL}")
    return qv


def quantize(q, m_units: int) -> TypedPmf:
    """Counts c minimizing D(c/M || q) subject to c[a]/M <= q[a] + 1/M.

    Zero-probability symbols receive zero counts.  Exact ties in marginal
    cost break toward the smaller symbol index.
    """
    m = int(m_units)
    if m < 1:
        raise ValueError("number of units must be a positive integer")
    qv = _checked_target(q)
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
    qv = _checked_target(q)
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
