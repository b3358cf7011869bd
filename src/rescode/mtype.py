"""KL-optimal M-type quantization of a probability vector.

``quantize`` returns the counts of the greedy that allocates M integer units
over the support of q, one at a time, to the symbol with the smallest marginal
divergence cost (a global minimizer, as the costs of a separable convex
objective increase), capped at floor(M*q[a]) + 1 so that the contract
counts[a]/M <= q[a] + 1/M holds, which the unconstrained optimum breaks for
lopsided q.  Unit c+1 costs ln(c+1) + c*log1p(1/c) - ln(M q_a), the stable
form of (c+1)ln(c+1) - c ln c - ln(M q_a), which cancels above about c = 1e9;
atoms of one value share it.  Per value a bracket of levels holds the greedy's
last unit, in closed form (a cost bound and the cap) while every count is below
about 1e12, where costs are exact; past that, or beyond 2^14 levels, by
bisecting a Lagrange threshold, with units counted in numpy and clipped to the
cap in int64.  One finish keys the levels in numpy, those near the cut again
with ``math.log``, and hands them out whole per value but for the last group
of equal keys, which goes atom by atom.  No step's cost grows with M.
"""

from __future__ import annotations

import math
import operator
from itertools import accumulate, groupby

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
    m = operator.index(m_units)
    if not 1 <= m <= 1 << 62:  # counts and their caps stay exact in int64
        raise ValueError("number of units must be an integer in [1, 2^62]")
    mq = m * checked_probs(as_prob_vector(q))
    support = np.flatnonzero(mq > 0)
    bits = mq[support].view(np.int64)  # M q_a > 0 sorts as its bit pattern does, and integers compare faster
    x = np.sort(bits)
    x = x[np.concatenate(([True], x[1:] > x[:-1]))].view(float)  # the distinct values: equal values, equal costs
    size = np.bincount(cls := np.searchsorted(x.view(np.int64), bits))
    cap = np.floor(x).astype(np.int64) + 1
    if size @ cap < m:  # M * (1 - sum(q)) swallows the slack of the caps
        raise ValueError("target sum is too far from 1 to allocate at this resolution")
    log_mq = np.array([math.log(v) for v in x.tolist()])
    tol = 8 * np.finfo(float).eps * (2 + np.abs(log_mq).max() + math.log(m + 1))

    def below(lam: float) -> np.ndarray:
        """Per value, the number of units that cost less than lam; costs within tol of lam are exact.

        Unit k costs at most 1 + ln(k - 1/2) - ln(M q_a), and more than that bound for unit k - 1.
        Above about 1e12 units consecutive costs differ by less than their rounding: numpy's count stands."""
        k = np.clip(np.ceil(np.exp(np.minimum(lam - 1 + log_mq, 50)) - 0.5), 0, 2.0**62).astype(np.int64)
        k = np.minimum(k, cap)  # in int64: above 2^53 the float cap can round past floor(M q) + 1
        last, nxt = (_unit_cost(c, log_mq, np.log, np.log1p) for c in (np.maximum(k - 1, 0), k))
        near = (np.abs(last - lam) <= tol) | (np.abs(nxt - lam) <= tol)
        for i in np.flatnonzero(near & (k * tol < 0.1)).tolist():
            last[i], nxt[i] = (_unit_cost(c, float(log_mq[i])) for c in (max(int(k[i]) - 1, 0), int(k[i])))
        return k - ((k > 0) & (last >= lam)) + ((k < cap) & (nxt < lam))

    # Every unit below k_lo is the greedy's: by below's bound fewer than M units cost under 1 + ln t, for t =
    # (M - 1.5 atoms) / (M sum q), and ceil(M q t + 1/2) - 1 per value do (one less, and t shrunk, for rounding).
    # With every count exact a bracket of at most 2^14 levels is finished as it is.  Else bisect until at most 64
    # (value, level) pairs lie in [lo, hi), or while a band count is numpy's (k * tol >= 0.1) 64 units or one level.
    t = max(m - 1.5 * support.size, 0) / (size @ x) * (1 - 1e-12)
    k_lo, k_hi = np.clip(np.ceil(x * t + 0.5) - 2, 0, cap).astype(np.int64), cap
    if (cap * tol >= 0.1).any() or (cap - k_lo).sum() > 1 << 14:
        lo, hi, k_lo = -log_mq.max() - 1.0, max(-log_mq.min(), 0.0) + 2.0, np.zeros_like(cap)
        while ((band := k_hi - k_lo).sum() > 64 or band.sum() > 1 and size @ band > 64
               and (k_hi[band > 0] * tol >= 0.1).any()) and lo < (mid := 0.5 * (lo + hi)) < hi:
            k = below(mid)
            if size @ k <= m:
                lo, k_lo = mid, k
            if size @ k >= m:
                hi, k_hi = mid, k
    # The greedy hands out the other r units in (running max of the value's unit costs from k_lo, atom, level)
    # order.  Sorted by that key, the levels before the first group of equal keys that holds more than r units go
    # out whole, and that group goes in (atom, level) order.  A level at k_hi or above costs at least hi, more
    # than the greedy's last unit, except where numpy's count stands: there no value takes more than r levels.
    # Only numpy keys within 8 tol of the cut's can fall on its other side: those are made exact and cut again.
    r = m - int(size @ k_lo)
    runs = np.where(k_hi > k_lo, np.where(k_hi * tol < 0.1, k_hi, np.minimum(cap, k_lo + r)) - k_lo, 0)
    vals = np.repeat(np.arange(cap.size), runs)
    level = np.arange(vals.size) + np.repeat(k_lo + runs - np.cumsum(runs), runs)
    keys = _unit_cost(level, log_mq[vals], np.log, np.log1p)
    order = np.argsort(keys, kind="stable")
    mass = np.cumsum(size[vals[order]])
    cut, key = int(np.searchsorted(mass, r, side="right")), np.inf
    if cut < vals.size:
        a, b = np.searchsorted(keys[order], keys[order[cut]] + np.array([-8, 8]) * tol).tolist()
        near, logs = np.sort(order[a:b]), log_mq.tolist()
        by_value = groupby(zip(vals[near].tolist(), level[near].tolist()), operator.itemgetter(0))
        keys[near] = [k for _, g in by_value for k in accumulate((_unit_cost(c, logs[v]) for v, c in g), max)]
        near = near[np.argsort(keys[near], kind="stable")]
        key = keys[near[np.searchsorted(np.cumsum(size[vals[near]]) + (mass[a - 1] if a else 0), r, "right")]]
    whole, levels = (np.bincount(vals[cut_side], minlength=cap.size) for cut_side in (keys < key, keys == key))
    out = np.zeros(mq.size, dtype=np.int64)
    out[support] = (k_lo + whole)[cls]
    tied = np.flatnonzero((levels > 0)[cls])  # the cut group's atoms
    out[support[tied]] += np.diff(np.minimum(levels[cls[tied]].cumsum(), r - int(size @ whole)), prepend=0)
    return TypedPmf(m, out)
