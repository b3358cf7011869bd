import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rescode import (
    Pmf,
    TypedPmf,
    entropy,
    kl_divergence,
    kl_tv_bound,
    min_type_order,
    variational_distance,
)
from rescode.probdist import as_prob_vector, checked_probs
from references import lcm_min_type_order

LN2 = math.log(2.0)


def dist(draw_sizes=st.integers(2, 6)):
    """Hypothesis strategy for a full-support probability vector."""
    return draw_sizes.flatmap(
        lambda k: st.lists(st.floats(0.01, 1.0), min_size=k, max_size=k)
    ).map(lambda w: np.asarray(w) / np.sum(w))


class TestPmf:
    def test_renormalizes_once(self):
        p = Pmf([0.2110000001, 0.789])
        assert p.probs.sum() == pytest.approx(1.0, abs=1e-15)

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            Pmf([0.3, 0.3])

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Pmf([1.2, -0.2])

    @pytest.mark.parametrize("probs", [[], [[0.5, 0.5]]], ids=["empty", "2-d"])
    def test_rejects_anything_but_a_nonempty_vector(self, probs):
        with pytest.raises(ValueError, match="^probability vector must be a nonempty 1-d sequence$"):
            checked_probs(probs)

    def test_mu_is_min_support_prob(self):
        p = Pmf([0.5, 0.0, 0.5])
        assert p.mu() == 0.5
        assert not p.has_full_support()

    @given(dist())
    def test_mu_bounded_by_uniform(self, probs):
        p = Pmf(probs)
        assert 0 < p.mu() <= 1 / np.count_nonzero(p.probs) + 1e-12

    def test_immutable(self):
        p = Pmf([0.5, 0.5])
        with pytest.raises(ValueError):
            p.probs[0] = 0.9


class TestTypedPmf:
    def test_counts_must_sum_to_denominator(self):
        with pytest.raises(ValueError):
            TypedPmf(8, [5, 1, 1])

    def test_rejects_non_integer(self):
        with pytest.raises(ValueError):
            TypedPmf(4, [2.5, 1.5])
        t = TypedPmf(4, [2.0, 2.0])  # integer-valued floats are counts
        assert t.counts.dtype == np.int64 and t.counts.tolist() == [2, 2]

    def test_sum_is_exact_past_int64(self):
        # an int64 sum wraps (2^63 - 1) * 2 + 4 around to 2
        with pytest.raises(ValueError, match="counts sum to 18446744073709551618"):
            TypedPmf(2, [2**63 - 1, 2**63 - 1, 4])
        assert TypedPmf(1 << 62, [1 << 61, (1 << 61) - 5, 5]).denominator == 1 << 62

    @pytest.mark.parametrize("denominator, counts", [(2**63, [2**63]), (2, [1.0, 1e19])], ids=["int", "float"])
    def test_counts_past_int64_name_the_range(self, denominator, counts):
        # an int64 cast would wrap 2^63 negative, and 1e19 overflows it
        with pytest.raises(ValueError, match="int64 range"):
            TypedPmf(denominator, counts)

    @pytest.mark.parametrize("denominator, counts, message", [
        (0, [0, 0], "denominator must be a positive integer"),
        (4, [], "counts must be a nonempty 1-d sequence"),
        (4, [5, -1], "counts must be nonnegative"),
    ], ids=["denominator-0", "no-counts", "negative-count"])
    def test_rejects_malformed_types(self, denominator, counts, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            TypedPmf(denominator, counts)

    def test_probs_on_demand(self):
        t = TypedPmf(8, [5, 1, 2])
        assert list(t.probs()) == [5 / 8, 1 / 8, 2 / 8]


class TestEntropy:
    def test_uniform_binary(self):
        assert entropy(Pmf([0.5, 0.5])) == pytest.approx(1.0, abs=1e-15)

    def test_deterministic(self):
        assert entropy(Pmf([1.0, 0.0])) == 0.0

    def test_experiment_target(self):
        # direct evaluation; the value is ~0.00019 below log2-rounded 0.7436
        h = -(0.211 * math.log2(0.211) + 0.789 * math.log2(0.789))
        assert entropy(Pmf([0.211, 0.789])) == pytest.approx(h, abs=1e-15)
        assert entropy(Pmf([0.211, 0.789])) == pytest.approx(0.743394, abs=1e-5)

    @given(dist())
    def test_range(self, probs):
        h = entropy(Pmf(probs))
        assert -1e-12 <= h <= math.log2(len(probs)) + 1e-12

    def test_typed_entropy_le_log_type_order(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            k = int(rng.integers(2, 6))
            m = int(rng.integers(2, 64))
            counts = rng.multinomial(m, rng.dirichlet(np.ones(k)))
            t = TypedPmf(m, counts)
            assert entropy(t) <= math.log2(min_type_order(t)) + 1e-12


class TestKlDivergence:
    def test_identity(self):
        assert kl_divergence([0.3, 0.7], [0.3, 0.7]) == 0.0

    def test_single_atom(self):
        assert kl_divergence([1.0, 0.0], [0.5, 0.5]) == pytest.approx(1.0, abs=1e-15)

    def test_hand_example(self):
        p = [5 / 8, 1 / 8, 2 / 8]
        q = [0.64, 0.16, 0.2]
        expected = (
            0.625 * math.log2(0.625 / 0.64)
            + 0.125 * math.log2(0.125 / 0.16)
            + 0.25 * math.log2(0.25 / 0.2)
        )
        assert kl_divergence(p, q) == pytest.approx(expected, abs=1e-15)
        assert kl_divergence(p, q) == pytest.approx(0.014583, abs=1e-5)

    def test_infinite_when_support_escapes(self):
        assert kl_divergence([0.5, 0.5], [1.0, 0.0]) == math.inf

    def test_index_mismatch(self):
        with pytest.raises(ValueError):
            kl_divergence([0.5, 0.5], [0.5, 0.25, 0.25])

    def test_a_matrix_is_not_a_probability_vector(self):
        with pytest.raises(ValueError, match="^expected a 1-d probability vector$"):
            as_prob_vector([[0.5, 0.5]])

    @given(st.integers(2, 6).flatmap(lambda k: st.tuples(dist(st.just(k)), dist(st.just(k)))))
    def test_nonnegative_and_positive_off_diagonal(self, pair):
        p, q = pair
        kl = kl_divergence(p, q)
        assert kl >= -1e-12
        if np.max(np.abs(np.asarray(p) - np.asarray(q))) > 1e-6:
            assert kl > 0.0

    @given(dist())
    def test_zero_on_diagonal(self, p):
        assert kl_divergence(p, p) == pytest.approx(0.0, abs=1e-12)

    @given(st.integers(2, 6).flatmap(
        lambda k: st.tuples(dist(st.just(k)), st.lists(st.floats(-1e-9, 1e-9), min_size=k, max_size=k))))
    def test_nonnegative_near_the_diagonal(self, pair):
        # rounding can take the sum of near-zero terms below 0
        p, eps = pair
        q = p * (1 + np.asarray(eps))
        assert kl_divergence(p, q / q.sum()) >= 0.0


class TestVariationalDistance:
    def test_identity(self):
        assert variational_distance([0.4, 0.6], [0.4, 0.6]) == 0.0

    def test_disjoint(self):
        assert variational_distance([1.0, 0.0], [0.0, 1.0]) == 2.0

    def test_hand_example(self):
        assert variational_distance([5 / 8, 1 / 8, 2 / 8], [0.64, 0.16, 0.2]) == pytest.approx(
            0.1, abs=1e-12
        )


class TestKlTvBound:
    def test_identity(self):
        assert kl_tv_bound([0.5, 0.5], [0.5, 0.5]) == 0.0

    def test_hand_example(self):
        p = [5 / 8, 1 / 8, 2 / 8]
        q = [0.64, 0.16, 0.2]
        delta = math.sqrt(0.1)
        d_max = math.log(0.25 / 0.2)
        assert kl_tv_bound(p, q) == pytest.approx(delta * (1 + d_max), abs=1e-12)
        assert kl_tv_bound(p, q) == pytest.approx(0.38679, abs=1e-4)
        assert kl_tv_bound(p, q) >= kl_divergence(p, q) * LN2

    def test_second_hand_example(self):
        b = kl_tv_bound([0.6, 0.4], [0.5, 0.5])
        assert b == pytest.approx(math.sqrt(0.2) * (1 + math.log(1.2)), abs=1e-12)
        assert b == pytest.approx(0.52874, abs=1e-4)

    def test_unbounded_ratio(self):
        with pytest.raises(ValueError, match=r"^supp\(p\) must be contained in supp\(q\)$"):
            kl_tv_bound([0.5, 0.5], [1.0, 0.0])

    def test_tv_precondition(self):
        with pytest.raises(ValueError):
            kl_tv_bound([0.99, 0.01], [0.01, 0.99])

    @settings(max_examples=300)
    @given(st.integers(2, 6).flatmap(lambda k: st.tuples(dist(st.just(k)), dist(st.just(k)))),
           st.floats(0.0, 0.49))
    def test_dominates_kl_in_nats(self, pair, t):
        q, raw = pair
        p = (1 - t) * q + t * raw
        assert variational_distance(p, q) < 1
        assert kl_divergence(p, q) * LN2 <= kl_tv_bound(p, q) + 1e-12


class TestMinTypeOrder:
    @pytest.mark.parametrize(
        "m,counts,expected",
        [(4, [2, 1, 1], 4), (8, [5, 1, 2], 8), (8, [4, 4], 2), (6, [2, 2, 2], 3), (12, [6, 6], 2)],
    )
    def test_examples(self, m, counts, expected):
        assert min_type_order(TypedPmf(m, counts)) == expected

    @settings(max_examples=300)
    @given(st.lists(st.integers(0, 60), min_size=1, max_size=8).filter(any), st.integers(1, 1 << 40))
    def test_matches_lcm_oracle(self, counts, scale):
        t = TypedPmf(scale * sum(counts), [scale * c for c in counts])
        assert min_type_order(t) == lcm_min_type_order(t)

    @settings(max_examples=300)
    @given(st.integers(1, 1 << 40).flatmap(
        lambda g: st.tuples(st.just(g), st.lists(st.integers(0, (1 << 62) // g), min_size=1, max_size=40).filter(any))))
    def test_matches_math_gcd_up_to_2_62(self, draw):
        # counts up to 2^62 with a common factor g, and M their sum; the int64 gcd must match Python's
        g, counts = draw
        counts = [g * c for c in counts]
        m = sum(counts)
        assert min_type_order(TypedPmf(m, counts)) == m // math.gcd(m, *counts)

    def test_minimality_by_scan(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            k = int(rng.integers(2, 5))
            m = int(rng.integers(2, 200))
            counts = rng.multinomial(m, rng.dirichlet(np.ones(k)))
            t = TypedPmf(m, counts)
            mx = min_type_order(t)
            assert m % mx == 0
            assert all(int(c) * mx % m == 0 for c in counts)
            for smaller in range(1, mx):
                if any(int(c) * smaller % m != 0 for c in counts):
                    continue
                pytest.fail(f"{smaller} < {mx} also re-expresses counts {counts} over {m}")
