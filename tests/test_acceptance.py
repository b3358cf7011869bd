"""Acceptance suite.

One test per criterion; each prints a PASS/FAIL line with the measured
numbers.  Run with ``pytest -s tests/test_acceptance.py`` to see every
line.  Criteria 7 and 8 are asserted at their stated tolerances even
though two clauses are unattainable for this construction (see README,
install-and-test section): schedule points with equal excess q land at
the same divergence scale and may swap order, and the criterion-8 sample
size has a multinomial noise floor ~17x its TV threshold.
"""

import math
import time

import numpy as np
import pytest

from rescode import (
    Pmf,
    RandomBitSource,
    bound_suite,
    build_block_code,
    build_code,
    build_tunstall,
    convergence_probe,
    entropy,
    kl_divergence,
    kl_tv_bound,
    quantize,
    rate_report,
    stream,
    variational_distance,
)
from references import EXHAUSTIVE_BITS, brute_force_quantize, check_balance, induced_counts

TARGET = Pmf([0.211, 0.789])
GRID = {6: (3, 4, 5, 6), 9: (5, 6, 7, 8, 9), 12: (8, 9, 10, 11, 12)}
LN2 = math.log(2.0)


def report(num: int, ok: bool, detail: str) -> bool:
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    return ok


@pytest.fixture(scope="module")
def oracle_trials():
    """200 random targets x M in {4,8,16,32}: greedy and brute-force outputs."""
    rng = np.random.default_rng(20240811)
    trials = []
    t0 = time.perf_counter()
    for _ in range(200):
        k = int(rng.integers(2, 6))
        q = rng.dirichlet(np.ones(k))
        for m in (4, 8, 16, 32):
            trials.append((q, m, quantize(q, m), brute_force_quantize(q, m)))
    return trials, time.perf_counter() - t0


@pytest.fixture(scope="module")
def grid_codes():
    """All 28 grid codes plus the N=3072 point, with rate reports."""
    rows = []
    t0 = time.perf_counter()
    for m, ns in GRID.items():
        for n in ns:
            code = build_code(TARGET, 2**n, m)
            rows.append((code, rate_report(code, TARGET)))
            code_b = build_block_code(TARGET, n, m)
            rows.append((code_b, rate_report(code_b, TARGET)))
    extra = build_code(TARGET, 3072, 12)
    rows.append((extra, rate_report(extra, TARGET)))
    return rows, time.perf_counter() - t0


def test_criterion_1_quantizer_optimality(oracle_trials):
    trials, elapsed = oracle_trials
    worst = max(
        abs(kl_divergence(g, q) - kl_divergence(b, q)) for q, m, g, b in trials
    )
    ok = worst <= 1e-12 and elapsed < 10.0
    assert report(
        1,
        ok,
        f"{len(trials)} trials, worst |kl_greedy - kl_brute| = {worst:.3e}, "
        f"runtime {elapsed:.2f}s < 10s",
    )


def test_criterion_2_quantization_bound(oracle_trials, grid_codes):
    trials, _ = oracle_trials
    outputs = [(q, m, g) for q, m, g in ((q, m, g) for q, m, g, _ in trials)]
    for code, _ in grid_codes[0]:
        outputs.append((code.target.leaf_probs, 1 << code.m, code.counts))
    violations = sum(
        1
        for q, m, t in outputs
        if np.any(t.counts / m > np.asarray(q) + 1.0 / m + 1e-15)
    )
    ok = violations == 0
    assert report(2, ok, f"{len(outputs)} quantizer outputs, {violations} bound violations")


def test_criterion_3_tunstall_lemma():
    rng = np.random.default_rng(424242)
    t0 = time.perf_counter()
    failures = 0
    trials = 0
    for _ in range(100):
        d = int(rng.integers(2, 4))
        raw = rng.dirichlet(np.ones(d))
        p = Pmf(0.05 + (1 - 0.05 * d) * raw)
        if d == 2:
            n = int(rng.integers(2, 4097))
        else:
            n = 3 + 2 * int(rng.integers(0, (4096 - 3) // 2 + 1))
        ld = build_tunstall(p, n)
        rep = check_balance(ld, p.mu())
        trials += 1
        if not rep.ok:
            failures += 1
    elapsed = time.perf_counter() - t0
    ok = failures == 0 and elapsed < 30.0
    assert report(3, ok, f"{trials} trials, {failures} balance failures, runtime {elapsed:.2f}s < 30s")


def test_criterion_4_bound_suite_on_grid(grid_codes):
    rows, build_time = grid_codes
    t0 = time.perf_counter()
    failed = []
    for code, _ in rows:
        for check in bound_suite(code, TARGET):
            if not check.passed:
                failed.append((code.scheme, code.m, code.num_codewords, check.name, check.detail))
    elapsed = build_time + (time.perf_counter() - t0)
    ok = not failed and elapsed < 5.0
    assert report(
        4,
        ok,
        f"{len(rows)} codes x bound suite, failures: {failed or 'none'}, "
        f"runtime {elapsed:.2f}s < 5s",
    )


def test_criterion_5_exact_induced_distribution(grid_codes):
    rows, _ = grid_codes
    checked = 0
    mismatches = 0
    for code, _ in rows:
        if code.m > EXHAUSTIVE_BITS:
            continue
        checked += 1
        if not np.array_equal(induced_counts(code), code.counts.counts):
            mismatches += 1
    ok = mismatches == 0 and checked == len(rows)
    assert report(5, ok, f"{checked} codes enumerated exhaustively, {mismatches} mismatches")


def test_criterion_6_figure_trends(grid_codes):
    rows, _ = grid_codes
    h = entropy(TARGET)
    f2v = [(r.m, r.num_codewords, r.rate, r.kl) for c, r in rows if c.scheme == "f2v"]
    b2b = [(r.m, r.num_codewords, r.rate, r.kl) for c, r in rows if c.scheme == "b2b"]

    min_kl_6 = min(kl for m, _, _, kl in f2v if m == 6)
    min_kl_12 = min(kl for m, _, _, kl in f2v if m == 12)
    clause_a = min_kl_12 < min_kl_6

    best_rate_12 = min(rate for m, _, rate, _ in f2v if m == 12)
    clause_b = abs(best_rate_12 - h) <= 0.06

    undominated = [
        (m, n, rate, kl)
        for m, n, rate, kl in b2b
        if not any(fr <= rate + 0.02 and fk <= kl for _, _, fr, fk in f2v)
    ]
    clause_c = len(undominated) <= 0.2 * len(b2b)
    if undominated:
        print(f"  criterion 6c undominated block points: {undominated}")

    ok = clause_a and clause_b and clause_c
    assert report(
        6,
        ok,
        f"(a) min kl m=12 {min_kl_12:.3e} < m=6 {min_kl_6:.3e}: {clause_a}; "
        f"(b) best m=12 rate {best_rate_12:.4f} within 0.06 of H={h:.4f}: {clause_b}; "
        f"(c) f2v dominates {len(b2b) - len(undominated)}/{len(b2b)} block points: {clause_c}",
    )


def test_criterion_7_convergence_probe():
    t0 = time.perf_counter()
    reports = convergence_probe(TARGET, [8, 12, 16, 20])
    elapsed = time.perf_counter() - t0
    h = entropy(TARGET)
    kls = [r.kl for r in reports]
    gaps = [abs(r.rate - h) for r in reports]
    monotone = all(a > b for a, b in zip(kls, kls[1:]))
    endpoint = gaps[-1] < gaps[0]
    in_time = elapsed < 60.0
    ok = monotone and endpoint and in_time
    assert report(
        7,
        ok,
        f"kl sequence {[f'{v:.3e}' for v in kls]} monotone: {monotone}; "
        f"|R-H| {gaps[0]:.4f} -> {gaps[-1]:.4f} shrinks: {endpoint}; "
        f"runtime {elapsed:.1f}s < 60s",
    )


def test_criterion_8_statistical_generation():
    t0 = time.perf_counter()
    code = build_code(TARGET, 3072, 12)
    r = rate_report(code, TARGET)
    total = 0
    input_bits = 0
    leaf_counts = np.zeros(code.num_codewords, dtype=np.int64)
    for res in stream(code, RandomBitSource(42), 10**6):
        total += res.output_symbols
        input_bits += res.input_bits
        leaf_counts += res.leaf_counts
    elapsed = time.perf_counter() - t0
    words = input_bits // code.m
    tv = variational_distance(leaf_counts / words, code.counts.probs())
    emp_rate = input_bits / total
    rate_ok = abs(emp_rate - r.rate) <= 0.02 * r.rate
    tv_ok = tv <= 0.01
    in_time = elapsed < 10.0
    ok = tv_ok and rate_ok and in_time
    assert report(
        8,
        ok,
        f"seed 42, {total} symbols ({words} codewords): TV={tv:.4f} <= 0.01: {tv_ok}; "
        f"rate {emp_rate:.5f} within 2% of {r.rate:.5f}: {rate_ok}; runtime {elapsed:.2f}s < 10s",
    )


def test_criterion_9_tv_kl_bound():
    rng = np.random.default_rng(987654321)
    violations = 0
    trials = 0
    for _ in range(1000):
        k = int(rng.integers(2, 7))
        q = rng.dirichlet(np.ones(k))
        t = rng.uniform(0.0, 0.49)
        p = (1 - t) * q + t * rng.dirichlet(np.ones(k))
        tv = variational_distance(p, q)
        assert tv < 1.0
        trials += 1
        if kl_divergence(p, q) * LN2 > kl_tv_bound(p, q) + 1e-12:
            violations += 1
    ok = violations == 0
    assert report(9, ok, f"{trials} random pairs, {violations} bound violations")
