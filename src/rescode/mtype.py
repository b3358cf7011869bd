"""KL-optimal M-type quantization of a probability vector.

``quantize`` hands M integer units out over the support of q, one at a time,
to the symbol whose next unit costs the least divergence, capped at
floor(M*q[a]) + 1 so that counts[a]/M <= q[a] + 1/M, which the unconstrained
optimum breaks for lopsided q.  Unit c+1 costs ln(c+1) + c*log1p(1/c) -
ln(M q_a), the stable form of (c+1)ln(c+1) - c ln c - ln(M q_a), which cancels
above about c = 1e9; atoms of one value share it.  While every count is below
about 1e12 the float costs order each atom's units, and the counts are this
greedy's: a minimizer, as a separable convex objective's costs increase, up to
ties within a few ulps.  Past that, consecutive costs differ by less than their
rounding, and the counts are optimal only to within a few ulps of the costs'
size.  No step's cost grows with M.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from .probdist import TypedPmf, as_prob_vector, checked_probs


def _unit_cost(c, log_mq, log=math.log, log1p=math.log1p):
    """Marginal cost of unit c+1 on an atom; numpy's log and log1p give it over arrays within a few ulps."""
    return log(c + 1) + c * log1p(1 / (c + (c == 0))) - log_mq


def quantize(q, m_units: int) -> TypedPmf:
    """Counts c minimizing D(c/M || q) subject to c[a]/M <= q[a] + 1/M, to within a few ulps of the unit costs.

    They are the greedy's while every count is below about 1e12; past that, consecutive units' float costs tie.
    Zero-probability symbols receive zero counts.  Exact ties in marginal cost break toward the smaller symbol index.
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

        Unit k costs more than 1 + ln(k - 1) - ln(M q_a) and at most 1 + ln(k - 1/2) - ln(M q_a).
        Above about 1e12 units consecutive costs differ by less than their rounding: numpy's count stands."""
        k = np.clip(np.ceil(np.exp(np.minimum(lam - 1 + log_mq, 50)) - 0.5), 0, 2.0**62).astype(np.int64)
        k = np.minimum(k, cap)  # in int64: above 2^53 the float cap can round past floor(M q) + 1
        last, nxt = (_unit_cost(c, log_mq, np.log, np.log1p) for c in (np.maximum(k - 1, 0), k))
        near = (np.abs(last - lam) <= tol) | (np.abs(nxt - lam) <= tol)
        for i in np.flatnonzero(near & (k * tol < 0.1)).tolist():
            last[i], nxt[i] = (_unit_cost(c, float(log_mq[i])) for c in (max(int(k[i]) - 1, 0), int(k[i])))
        return k - ((k > 0) & (last >= lam)) + ((k < cap) & (nxt < lam))

    # Every unit below k_lo is the greedy's.  Float costs lie within tol of the real ones, which below's bounds hold,
    # and k_lo stands only if each x = M q_a has x tol < 0.1.  For t = (M - 1.5 atoms) / sum(x) < 1 (the caps hold
    # M), fewer than x t + 1.2 units per atom, so fewer than M, cost under 1 + ln t, and the greedy takes them all:
    # units k < x t - 1/2 + eta among them, as they cost under 1 + ln t - (1 - eta) / (x t) + tol.  Here x < 2^45
    # (tol > 16 eps), and t errs by under 70 * 2^-53 (3 in M - 1.5 atoms, as atoms << M past 2^53; for under 2^40
    # values 61 in np.sum's products and pairwise depth, Higham 2002 ch. 4), so x t + 1/2 rounds by eta < 1/4 and
    # k_lo = ceil(x t + 1/2) - 2 < x t - 1/2 + eta.  A bracket of at most 2^14 levels is finished as it is.  Else
    # bisect until at most 64 (value, level) pairs lie in [lo, hi), or while a band count is numpy's 64 units or one.
    t = max(m - 1.5 * support.size, 0) / np.sum(size * x)
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
    # The greedy hands out the other r units in (unit cost, atom, level) order.  Sorted by that key, the levels
    # before the first group of equal keys that holds more than r units go out whole, and that group goes in (atom,
    # level) order.  A level at k_hi or above costs at least hi, more than the greedy's last unit, except where
    # numpy's count stands: there no value takes more than r levels.  Only numpy keys within 8 tol of the cut's can
    # fall on its other side: those are made exact and cut again.
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
        near = order[a:b]
        keys[near] = [_unit_cost(c, v) for c, v in zip(level[near].tolist(), log_mq[vals[near]].tolist())]
        near = near[np.argsort(keys[near], kind="stable")]
        key = keys[near[np.searchsorted(np.cumsum(size[vals[near]]) + (mass[a - 1] if a else 0), r, "right")]]
    whole, levels = (np.bincount(vals[cut_side], minlength=cap.size) for cut_side in (keys < key, keys == key))
    out = np.zeros(mq.size, dtype=np.int64)
    out[support] = (k_lo + whole)[cls]
    tied = np.flatnonzero((levels > 0)[cls])  # the cut group's atoms
    out[support[tied]] += np.diff(np.minimum(levels[cls[tied]].cumsum(), r - int(size @ whole)), prepend=0)
    return TypedPmf(m, out)
