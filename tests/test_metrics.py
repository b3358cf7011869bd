import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rescode import (
    Pmf,
    bound_suite,
    build_block_code,
    build_code,
    convergence_probe,
    entropy,
    rate_report,
    round_size_down,
)


@pytest.fixture
def running_report():
    p = Pmf([0.8, 0.2])
    return rate_report(build_code(p, 3, 3))


class TestRateReport:
    def test_running_example(self, running_report):
        r = running_report
        assert r.exp_len == pytest.approx(1.75, abs=1e-12)
        assert r.rate == pytest.approx(3 / 1.75, abs=1e-12)
        assert r.px_entropy == pytest.approx(1.29879, abs=1e-5)
        assert r.entropy_rate == pytest.approx(0.74217, abs=1e-5)
        assert r.hv_rate == pytest.approx(3 / 1.75, abs=1e-12)
        assert r.kl == pytest.approx(0.014583, abs=1e-5)
        # kl_bound = 2^-q * log2(e) / mu with 2^-q = N/2^m = 3/8
        assert r.kl_bound == pytest.approx((3 / 8) * math.log2(math.e) / 0.2, abs=1e-12)
        assert r.entropy_lower == pytest.approx(math.log2(3) - math.log2(5.375), abs=1e-12)

    def test_trivial_uniform(self):
        p = Pmf([0.5, 0.5])
        r = rate_report(build_code(p, 2, 1))
        assert r.rate == r.entropy_rate == r.hv_rate == pytest.approx(1.0, abs=1e-12)
        assert r.kl == 0.0

    def test_grid_point_bound_value(self):
        p = Pmf([0.211, 0.789])
        r = rate_report(build_code(p, 4096, 12))
        assert r.kl_bound == pytest.approx(math.log2(math.e) / 0.211, abs=1e-9)
        assert r.kl <= r.kl_bound

    def test_bounds_read_the_law_the_code_was_built_from(self):
        p = Pmf([0.211, 0.789])
        code = build_code(p, 3072, 12)
        assert code.target.p is p
        r = rate_report(code)
        assert r.kl_bound == pytest.approx(0.75 * math.log2(math.e) / 0.211, rel=1e-12)

    def test_normalized_kl(self, running_report):
        r = running_report
        assert r.kl_normalized == pytest.approx(r.kl / r.exp_len, abs=1e-15)
        assert r.kl_normalized <= r.kl


class TestBoundSuite:
    def test_running_example_all_pass(self):
        p = Pmf([0.8, 0.2])
        checks = bound_suite(build_code(p, 3, 3))
        assert len(checks) == 6
        assert all(c.passed for c in checks), [c for c in checks if not c.passed]

    def test_trivial_equalities_pass(self):
        p = Pmf([0.5, 0.5])
        checks = bound_suite(build_code(p, 2, 1))
        assert all(c.passed for c in checks)

    def test_b2b_runs_applicable_checks_only(self):
        p = Pmf([0.211, 0.789])
        checks = bound_suite(build_block_code(p, 2, 4))
        names = {c.name for c in checks}
        assert "kl_le_divergence_bound" not in names
        assert "max_prob_le_bound" not in names
        assert all(c.passed for c in checks)

    def test_grid_sample(self):
        p = Pmf([0.211, 0.789])
        for m, n in [(6, 3), (9, 7), (12, 10)]:
            assert all(c.passed for c in bound_suite(build_code(p, 2**n, m)))
            assert all(c.passed for c in bound_suite(build_block_code(p, n, m)))


class TestRandomizedBounds:
    def test_divergence_and_entropy_bounds_hold_broadly(self):
        # 500 random (p, N, m): kl <= 2^-q log2(e)/mu and H(P_X) >= lower
        rng = np.random.default_rng(61)
        for _ in range(500):
            d = int(rng.integers(2, 4))
            raw = rng.dirichlet([1.0] * d)
            p = Pmf(0.05 + (1 - 0.05 * d) * raw)
            m = int(rng.integers(2, 13))
            upper = min(2**m * 2, 256)
            if d == 2:
                n = int(rng.integers(2, upper + 1))
            else:
                n = 3 + 2 * int(rng.integers(0, (upper - 3) // 2 + 1))
            r = rate_report(build_code(p, n, m))
            slack = 1e-9 * max(1.0, abs(r.kl_bound))
            assert r.kl <= r.kl_bound + slack
            assert r.px_entropy >= r.entropy_lower - 1e-9
            assert r.rate >= r.hv_rate - 1e-12
            assert r.hv_rate >= r.entropy_rate - 1e-12


class TestConvergenceProbe:
    def test_binary_sizes_are_the_policy(self):
        reports = convergence_probe(Pmf([0.211, 0.789]), [8, 12, 16, 20])
        assert [r.num_codewords for r in reports] == [2**5, 2**8, 2**12, 2**15]

    def test_ternary_sizes_round_down(self):
        reports = convergence_probe(Pmf([0.5, 0.3, 0.2]), [8, 12, 16, 20])
        assert [r.num_codewords for r in reports] == [31, 255, 4095, 32767]

    @settings(max_examples=40)
    @given(st.integers(2, 5).flatmap(lambda d: st.lists(st.integers(1, 100), min_size=d, max_size=d)),
           st.integers(8, 20))
    def test_every_alphabet_builds(self, weights, m):
        p = Pmf(np.array(weights) / sum(weights))
        (r,) = convergence_probe(p, [m])
        assert r.m == m
        assert round_size_down(p.alphabet_size, r.num_codewords) == r.num_codewords
        assert r.q_bits >= math.ceil(math.sqrt(m))

    def test_uniform_is_exact_along_schedule(self):
        p = Pmf([0.5, 0.5])
        for m in (4, 6, 8):
            r = rate_report(build_code(p, 2**m, m))
            assert r.kl == 0.0
            assert r.rate == pytest.approx(1.0, abs=1e-12)
            # spending excess bits on a smaller codebook keeps the match exact
            assert rate_report(build_code(p, 2 ** (m - 2), m)).kl == 0.0

    def test_skewed_target_trend(self):
        p = Pmf([0.8, 0.2])
        reports = convergence_probe(p, [8, 12, 16])
        assert reports[-1].kl < reports[0].kl
        h = entropy(p)
        assert abs(reports[-1].rate - h) < abs(reports[0].rate - h)

    def test_experiment_target_large_gap_trend(self):
        p = Pmf([0.211, 0.789])
        reports = convergence_probe(p, [8, 16])
        assert reports[-1].kl < reports[0].kl
