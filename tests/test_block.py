import numpy as np
import pytest

from rescode import (
    Pmf,
    build_block_code,
    kl_divergence,
    rate_report,
)
from references import brute_force_quantize, induced_counts


class TestBuildBlockCode:
    def test_single_symbol_block(self):
        p = Pmf([0.211, 0.789])
        code = build_block_code(p, 1, 2)
        assert code.scheme == "b2b"
        assert list(code.counts.counts) == [1, 3]
        r = rate_report(code, p)
        assert r.rate == pytest.approx(2.0, abs=1e-12)
        # frozen from the composition-enumeration oracle below
        assert r.kl == pytest.approx(0.0063202455, abs=1e-9)
        oracle = brute_force_quantize(code.target.leaf_probs, 4)
        assert kl_divergence(oracle, code.target.leaf_probs) == pytest.approx(r.kl, abs=1e-14)

    def test_uniform_is_exact(self):
        p = Pmf([0.5, 0.5])
        code = build_block_code(p, 2, 2)
        assert list(code.counts.counts) == [1, 1, 1, 1]
        r = rate_report(code, p)
        assert r.kl == 0.0
        assert r.rate == pytest.approx(1.0, abs=1e-12)

    def test_three_symbol_block_rate_and_optimality(self):
        # 8 atoms at M=64 is out of the enumeration oracle's range
        # (C(71,7) compositions), so certify by feasible one-exchanges
        p = Pmf([0.211, 0.789])
        code = build_block_code(p, 3, 6)
        r = rate_report(code, p)
        assert r.rate == pytest.approx(2.0, abs=1e-12)
        q = code.target.leaf_probs
        base = r.kl
        counts = code.counts.counts
        cap = np.floor(64 * q) + 1
        for a in range(8):
            if counts[a] == 0:
                continue
            for b in range(8):
                if a == b or counts[b] + 1 > cap[b]:
                    continue
                moved = counts.copy()
                moved[a] -= 1
                moved[b] += 1
                assert kl_divergence(moved / 64, q) >= base - 1e-12

    def test_small_blocks_match_oracle(self):
        p = Pmf([0.211, 0.789])
        for n, m in [(2, 6), (3, 4)]:
            code = build_block_code(p, n, m)
            q = code.target.leaf_probs
            oracle = brute_force_quantize(q, 1 << m)
            assert kl_divergence(code.counts, q) == pytest.approx(
                kl_divergence(oracle, q), abs=1e-12
            )

    def test_size_cap(self):
        with pytest.raises(ValueError):
            build_block_code(Pmf([0.5, 0.5]), 21, 4)


class TestSharedInvariants:
    def test_expected_len_is_block_length(self):
        p = Pmf([0.3, 0.7])
        for n, m in [(1, 3), (2, 5), (4, 7), (8, 10)]:
            r = rate_report(build_block_code(p, n, m), p)
            assert r.exp_len == pytest.approx(n, abs=1e-9)
            assert r.rate == pytest.approx(m / n, abs=1e-9)

    def test_n_bits_for_nonbinary_alphabet(self):
        p = Pmf([0.2, 0.3, 0.5])
        code = build_block_code(p, 3, 7)
        assert code.num_codewords == 27
        assert code.n_bits == pytest.approx(3 * np.log2(3), abs=1e-12)

    def test_counts_are_exact_type(self):
        code = build_block_code(Pmf([0.211, 0.789]), 4, 9)
        assert int(code.counts.counts.sum()) == 2**9
        assert np.array_equal(induced_counts(code), code.counts.counts)

    def test_optimal_among_random_alternatives(self):
        # any random same-denominator type vector is no better
        rng = np.random.default_rng(53)
        p = Pmf([0.211, 0.789])
        code = build_block_code(p, 2, 6)
        q = code.target.leaf_probs
        best = kl_divergence(code.counts, q)
        for _ in range(300):
            alt = rng.multinomial(64, q)
            assert kl_divergence(alt / 64, q) >= best - 1e-12
