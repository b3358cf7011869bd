"""KL-optimal M-type quantization of a probability vector.

``quantize`` returns the counts of the greedy that allocates M integer
units over the support of q, one at a time, to the symbol with the
smallest marginal divergence cost.  Marginal costs of a separable convex
objective are increasing, so the greedy allocation is a global minimizer.
Allocation is additionally capped at counts[a] <= floor(M*q[a]) + 1 so
that the output always satisfies counts[a]/M <= q[a] + 1/M; the
unconstrained optimum can break that bound for very lopsided q (one
dominant atom plus near-zero atoms), and the bound is part of this
module's contract.  Unit c+1 costs ln(c+1) + c*log1p(1/c) - ln(M q_a),
the stable form of (c+1)ln(c+1) - c ln c - ln(M q_a), which cancels above
about c = 1e9.  Three steps find the greedy's units, the M cheapest in
(cost, symbol) order, at a cost that does not grow with M: a threshold
start (a bisected Lagrange threshold, and in numpy each value's number of
units below it), an exact boundary check (costs within a few ulps of the
threshold are recomputed with ``math.log``) and a heap finish (the greedy
loop hands out the rest to the atoms that can still take a unit).
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from .probdist import TypedPmf, as_prob_vector, checked_probs


def _unit_cost(c, log_mq, log=math.log, log1p=math.log1p):
    """Marginal cost of unit c+1 on an atom; numpy's log and log1p give it over arrays within a few ulps."""
    return log(c + 1) + c * log1p(1 / (c + (c == 0))) - log_mq


def quantize(q, m_units: int) -> TypedPmf:
    """Counts c minimizing D(c/M || q) subject to c[a]/M <= q[a] + 1/M.

    Zero-probability symbols receive zero counts.  Exact ties in marginal
    cost break toward the smaller symbol index.
    """
    m = int(m_units)
    if not 1 <= m <= 1 << 62:  # counts and their caps stay exact in int64
        raise ValueError("number of units must be an integer in [1, 2^62]")
    mq = m * checked_probs(as_prob_vector(q))
    support = np.flatnonzero(mq > 0)
    x, cls, size = np.unique(mq[support], return_inverse=True, return_counts=True)  # equal M q_a, equal costs
    cap = np.floor(x).astype(np.int64) + 1
    if size @ cap < m:  # M * (1 - sum(q)) swallows the slack of the caps
        raise ValueError("target sum is too far from 1 to allocate at this resolution")
    log_mq = np.array([math.log(v) for v in x.tolist()])
    tol = 8 * np.finfo(float).eps * (2 + np.abs(log_mq).max() + math.log(m + 1))

    def below(lam: float) -> np.ndarray:
        """Per value, the number of units that cost less than lam; costs within tol of lam are exact.

        Unit k costs at most 1 + ln(k - 1/2) - ln(M q_a), and more than that bound for unit k - 1.
        Above about 1e12 units consecutive costs differ by less than their rounding: numpy's count stands.
        """
        k = np.clip(np.ceil(np.exp(np.minimum(lam - 1 + log_mq, 50)) - 0.5), 0, cap).astype(np.int64)
        last, nxt = (_unit_cost(c, log_mq, np.log, np.log1p) for c in (np.maximum(k - 1, 0), k))
        near = (np.abs(last - lam) <= tol) | (np.abs(nxt - lam) <= tol)
        for i in np.flatnonzero(near & (k * tol < 0.1)).tolist():
            last[i], nxt[i] = (_unit_cost(c, float(log_mq[i])) for c in (max(int(k[i]) - 1, 0), int(k[i])))
        return k - ((k > 0) & (last >= lam)) + ((k < cap) & (nxt < lam))

    # Every unit below lo is the greedy's; bisect until at most 64 units, or one level of one value, lie in [lo, hi).
    lo, hi = -log_mq.max() - 1.0, max(-log_mq.min(), 0.0) + 2.0
    k_lo, k_hi = np.zeros_like(cap), cap
    while size @ (k_hi - k_lo) > 64 and (k_hi - k_lo).sum() > 1 and lo < (mid := 0.5 * (lo + hi)) < hi:
        k = below(mid)
        if size @ k <= m:
            lo, k_lo = mid, k
        if size @ k >= m:
            hi, k_hi = mid, k
    # The heap hands out the rest, with one (cost of the next unit, atom) entry per atom that has
    # units below hi, so equal costs pop in index order.
    counts, caps, logs = k_lo[cls].tolist(), cap[cls].tolist(), log_mq[cls].tolist()
    heap = [(_unit_cost(counts[a], logs[a]), a) for a in np.flatnonzero(k_hi[cls] > k_lo[cls]).tolist()]
    heapq.heapify(heap)
    for _ in range(m - int(size @ k_lo)):
        a = heap[0][1]
        c = counts[a] + 1
        counts[a] = c
        if c < caps[a]:
            heapq.heapreplace(heap, (_unit_cost(c, logs[a]), a))
        else:
            heapq.heappop(heap)
    out = np.zeros(mq.size, dtype=np.int64)
    out[support] = counts
    return TypedPmf(m, out)
