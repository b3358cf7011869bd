"""Finite probability distributions and divergence functionals.

Distributions are plain numpy vectors indexed by symbol.  Distributions
whose probabilities are all integer multiples of 1/M ("M-type") get a
dedicated integer representation so that type-order arithmetic stays
exact.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

# Construction rejects inputs whose sum strays further than this from 1.
SUM_TOL = 1e-9

LOG2E = math.log2(math.e)


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def checked_probs(probs) -> np.ndarray:
    """probs as a float vector, once it is nonempty, finite, nonnegative and sums to 1 within SUM_TOL."""
    v = np.asarray(probs, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("probability vector must be a nonempty 1-d sequence")
    if not np.all(np.isfinite(v)) or np.any(v < 0) or np.any(v > 1 + SUM_TOL):  # no entry can overflow the sum
        raise ValueError(f"probabilities must be finite and in [0, 1 + {SUM_TOL}]")
    s = float(v.sum())
    if abs(s - 1.0) > SUM_TOL:
        raise ValueError(f"probabilities sum to {s!r}, expected 1 within {SUM_TOL}")
    return v


@dataclass(frozen=True, eq=False)
class Pmf:
    """Probability mass function over the symbols 0..D-1.

    The input must sum to 1 within ``SUM_TOL``; it is renormalized once at
    construction and the stored vector is treated as exact afterwards.
    """

    probs: np.ndarray

    def __init__(self, probs) -> None:
        v = checked_probs(probs)
        object.__setattr__(self, "probs", _frozen(v / float(v.sum())))

    @property
    def alphabet_size(self) -> int:
        return int(self.probs.size)

    def has_full_support(self) -> bool:
        return bool(np.all(self.probs > 0))

    def mu(self) -> float:
        """Smallest positive probability."""
        return float(self.probs[self.probs > 0].min())


@dataclass(frozen=True, eq=False)
class TypedPmf:
    """Exact M-type distribution: integer counts over a common denominator.

    Probabilities are ``counts[a] / denominator`` exactly; no floating
    representation is canonical.
    """

    denominator: int
    counts: np.ndarray

    def __init__(self, denominator: int, counts) -> None:
        m = operator.index(denominator)
        if m < 1:
            raise ValueError("denominator must be a positive integer")
        c = np.asarray(counts)
        if c.ndim != 1 or c.size == 0:
            raise ValueError("counts must be a nonempty 1-d sequence")
        if np.any(c < 0):
            raise ValueError("counts must be nonnegative")
        if c.dtype.kind in "ufO" and np.any(c >= 1 << 63):  # a cast to int64 would wrap or overflow
            raise ValueError("counts must lie in the int64 range, below 2^63")
        if not np.issubdtype(c.dtype, np.integer):
            ci = np.asarray(counts, dtype=np.int64)
            if np.any(ci != c):
                raise ValueError("counts must be integers")
            c = ci
        c = c.astype(np.int64)
        total = (int((c >> 32).sum()) << 32) + int((c & 0xFFFFFFFF).sum())  # exact: no half sum wraps int64
        if total != m:
            raise ValueError(f"counts sum to {total}, expected denominator {m}")
        object.__setattr__(self, "denominator", m)
        object.__setattr__(self, "counts", _frozen(c))

    def probs(self) -> np.ndarray:
        """Real probabilities, computed on demand."""
        return self.counts / self.denominator


def as_prob_vector(p) -> np.ndarray:
    """Coerce a Pmf, TypedPmf, or array-like to a plain probability vector."""
    if isinstance(p, Pmf):
        return p.probs
    if isinstance(p, TypedPmf):
        return p.probs()
    v = np.asarray(p, dtype=float)
    if v.ndim != 1:
        raise ValueError("expected a 1-d probability vector")
    return v


def _aligned(p, q) -> tuple[np.ndarray, np.ndarray]:
    pv = as_prob_vector(p)
    qv = as_prob_vector(q)
    if pv.shape != qv.shape:
        raise ValueError(f"index sets differ: {pv.size} vs {qv.size} symbols")
    return pv, qv


def entropy(p) -> float:
    """Shannon entropy in bits, with 0*log 0 = 0."""
    v = as_prob_vector(p)
    pos = v[v > 0]
    return float(-(pos * np.log2(pos)).sum())


def kl_divergence(p, q) -> float:
    """Informational divergence D(p||q) in bits.

    Returns ``math.inf`` when some symbol has p > 0 but q = 0.  The sum runs
    over supp(p) only, each term is computed as log2 of the ratio to limit
    cancellation, and a sum that rounds below 0 is returned as 0.
    """
    pv, qv = _aligned(p, q)
    mask = pv > 0
    ps = pv[mask]
    qs = qv[mask]
    if np.any(qs <= 0):
        return math.inf
    return max(0.0, float((ps * np.log2(ps / qs)).sum()))


def variational_distance(p, q) -> float:
    """Unhalved variational distance sum(|p - q|), in [0, 2]."""
    pv, qv = _aligned(p, q)
    return float(np.abs(pv - qv).sum())


def kl_tv_bound(p, q) -> float:
    """Upper bound on D(p||q) in nats from the variational distance.

    Returns ``delta * (1 + d_max)`` with ``delta = sqrt(variational_distance)``
    and ``d_max = max(0, max ln(p/q) over supp(p))``.  Requires
    supp(p) within supp(q) and variational distance below 1.
    """
    pv, qv = _aligned(p, q)
    mask = pv > 0
    if np.any(qv[mask] <= 0):
        raise ValueError("supp(p) must be contained in supp(q)")
    tv = variational_distance(pv, qv)
    if tv >= 1.0:
        raise ValueError(f"variational distance {tv!r} >= 1; bound requires TV < 1")
    delta = math.sqrt(tv)
    d_max = max(0.0, float(np.log(pv[mask] / qv[mask]).max()))
    return delta * (1.0 + d_max)


def min_type_order(p: TypedPmf) -> int:
    """Least M for which p is M-type.

    The lcm of the reduced denominators M / gcd(c_a, M) equals
    M / gcd(M, c_1, ..., c_n), prime by prime; it always divides M.  The
    counts sum to M, so their gcd divides M and is taken in int64 alone.
    """
    return p.denominator // int(np.gcd.reduce(p.counts))
