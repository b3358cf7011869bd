"""KL-optimal M-type quantization of a probability vector.

``quantize`` allocates M integer units over the support of q, one unit at
a time, always to the symbol with the smallest marginal divergence cost.
Marginal costs of a separable convex objective are increasing, so the
greedy allocation is a global minimizer.  Allocation is additionally
capped at counts[a] <= floor(M*q[a]) + 1 so that the output always
satisfies counts[a]/M <= q[a] + 1/M; the unconstrained optimum can break
that bound for very lopsided q (one dominant atom plus near-zero atoms),
and the bound is part of this module's contract.  The greedy keeps one
heap entry per symbol and does one heap operation per unit, so its cost
is linear in M.

``brute_force_quantize`` is an independent oracle that enumerates every
composition of M over the support.
"""

from __future__ import annotations

import heapq
import itertools
import math
from functools import lru_cache

import numpy as np

from .probdist import TypedPmf, as_prob_vector, checked_probs

_MAX_BRUTE_SUPPORT = 8
_MAX_BRUTE_SIZE = 10**7


def quantize(q, m_units: int) -> TypedPmf:
    """Counts c minimizing D(c/M || q) subject to c[a]/M <= q[a] + 1/M.

    Zero-probability symbols receive zero counts.  Exact ties in marginal
    cost break toward the smaller symbol index.
    """
    m = int(m_units)
    if m < 1:
        raise ValueError("number of units must be a positive integer")
    mq = (m * checked_probs(as_prob_vector(q))).tolist()
    # the caps hold fewer than M units only when M * (1 - sum(q)) swallows their slack
    if sum(math.floor(x) + 1 for x in mq if x > 0) < m:
        raise ValueError("target sum is too far from 1 to allocate at this resolution")
    counts = [0] * len(mq)
    # One (cost of the next unit, symbol) entry per symbol: equal costs pop in
    # index order.  Unit c+1 on symbol a costs (c+1)ln(c+1) - c ln c - ln(M q_a).
    heap = [(-math.log(x), a) for a, x in enumerate(mq) if x > 0]
    heapq.heapify(heap)
    for _ in range(m):
        a = heap[0][1]
        c = counts[a] + 1
        counts[a] = c
        if c <= mq[a]:  # the cap c < floor(M q_a) + 1 leaves room for unit c+1
            heapq.heapreplace(heap, ((c + 1) * math.log(c + 1) - c * math.log(c) - math.log(mq[a]), a))
        else:
            heapq.heappop(heap)
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
