"""Rate and divergence reporting for resolution codes.

The report gathers, for one built code: the resolution rate (input bits
per expected output symbol), the entropy rate of the generated codeword
distribution, the resolution rate in the Han-Verdu sense (log2 of the
minimal type order per expected output symbol), the informational
divergence to the target leaf distribution, and the finite-length bounds
the construction is supposed to obey.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .f2v import ResolutionCode, build_code
from .probdist import (
    LOG2E,
    Pmf,
    entropy,
    kl_divergence,
    min_type_order,
)

__all__ = [
    "RateReport",
    "BoundCheck",
    "rate_report",
    "bound_suite",
    "convergence_probe",
    "sqrt_gap_policy",
]

# Relative slack applied to every inequality in bound_suite.
BOUND_SLACK = 1e-9


@dataclass(frozen=True)
class RateReport:
    """Rates, divergences, and bound values for one resolution code.

    All rates and divergences are in bits; lengths are in output symbols.
    ``exp_len`` is the expected codeword length under the generated
    distribution.
    """

    scheme: str
    m: int
    num_codewords: int
    n_bits: float
    q_bits: float
    rate: float
    entropy_rate: float
    hv_rate: float
    kl: float
    kl_normalized: float
    kl_bound: float
    entropy_lower: float
    px_entropy: float
    max_prob: float
    exp_len: float


@dataclass(frozen=True)
class BoundCheck:
    name: str
    passed: bool
    detail: str


def rate_report(code: ResolutionCode, p: Pmf) -> RateReport:
    """Evaluate every reported quantity for a built code over its target p."""
    mu = p.mu()
    px = code.counts.probs()
    exp_len = code.exp_len
    px_entropy = entropy(code.counts)
    kl = kl_divergence(code.counts, code.target.leaf_probs)
    # 2^-q = N / 2^m, computed from the integers to avoid re-rounding
    two_pow_neg_q = code.num_codewords / float(1 << code.m)
    return RateReport(
        scheme=code.scheme,
        m=code.m,
        num_codewords=code.num_codewords,
        n_bits=code.n_bits,
        q_bits=code.q_bits,
        rate=code.m / exp_len,
        entropy_rate=px_entropy / exp_len,
        hv_rate=math.log2(min_type_order(code.counts)) / exp_len,
        kl=kl,
        kl_normalized=kl / exp_len,
        kl_bound=two_pow_neg_q * LOG2E / mu,
        entropy_lower=code.n_bits - math.log2(1.0 / mu + two_pow_neg_q),
        px_entropy=px_entropy,
        max_prob=float(px.max()),
        exp_len=exp_len,
    )


def _le(lhs: float, rhs: float) -> bool:
    return lhs <= rhs + BOUND_SLACK * max(1.0, abs(lhs), abs(rhs))


def bound_suite(code: ResolutionCode, p: Pmf) -> list[BoundCheck]:
    """Evaluate the finite-length inequalities for one code.

    The divergence, entropy, and max-probability bounds rely on the
    Tunstall balance of the codebook, so they are checked for the
    variable-length scheme only; the rate inequalities hold for any code
    with a fixed-length input dictionary.
    """
    r = rate_report(code, p)
    mu = p.mu()
    checks = []

    def add(name, lhs, rhs, fmt="{lhs:.9g} <= {rhs:.9g}"):
        checks.append(BoundCheck(name, _le(lhs, rhs), fmt.format(lhs=lhs, rhs=rhs)))

    if code.scheme == "f2v":
        add("kl_le_divergence_bound", r.kl, r.kl_bound)
        add("entropy_ge_lower_bound", r.entropy_lower, r.px_entropy, "{rhs:.9g} >= {lhs:.9g}")
        add(
            "max_prob_le_bound",
            r.max_prob,
            1.0 / (code.num_codewords * mu) + 2.0 ** -code.m,
        )
    add("rate_ge_entropy_rate", r.entropy_rate, r.rate, "{rhs:.9g} >= {lhs:.9g}")
    chain_ok = _le(r.hv_rate, r.rate) and _le(r.entropy_rate, r.hv_rate)
    checks.append(
        BoundCheck(
            "rate_ge_hv_ge_entropy_rate",
            chain_ok,
            f"{r.rate:.9g} >= {r.hv_rate:.9g} >= {r.entropy_rate:.9g}",
        )
    )
    add("normalized_le_kl", r.kl_normalized, r.kl)
    return checks


def sqrt_gap_policy(m: int) -> int:
    """Codebook size 2^(m - ceil(sqrt(m))): excess bits grow, but sublinearly."""
    gap = math.isqrt(m)
    if gap * gap < m:
        gap += 1
    return 1 << max(1, m - gap)


def convergence_probe(p: Pmf, m_list, policy=sqrt_gap_policy) -> list[RateReport]:
    """Reports along a growing-m schedule; interpretation is the caller's.

    Under a policy with growing excess bits and vanishing excess fraction,
    the divergence trends to zero and the rate to the target entropy.
    """
    return [rate_report(build_code(p, policy(m), m), p) for m in m_list]
