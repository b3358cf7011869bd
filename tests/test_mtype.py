import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rescode import Pmf, TypedPmf, brute_force_quantize, build_tunstall, kl_divergence, quantize
from references import heap_quantize


def random_target(rng, max_support=5):
    k = int(rng.integers(2, max_support + 1))
    return rng.dirichlet(np.ones(k))


def feasible_exchange_improves(t: TypedPmf, q) -> bool:
    """True if moving one unit, staying under the contract cap, lowers KL."""
    m = t.denominator
    counts = t.counts
    base = kl_divergence(t, q)
    cap = np.floor(m * np.asarray(q)) + 1
    for a in range(len(counts)):
        if counts[a] == 0:
            continue
        for b in range(len(counts)):
            if a == b or q[b] == 0 or counts[b] + 1 > cap[b]:
                continue
            moved = counts.copy()
            moved[a] -= 1
            moved[b] += 1
            if kl_divergence(TypedPmf(m, moved), q) < base - 1e-12:
                return True
    return False


def halvings(picks):
    """A dyadic distribution: starting from [1], halve entry i % len and insert the other half after it."""
    q = [1.0]
    for i in picks:
        i %= len(q)
        q[i] /= 2
        q.insert(i + 1, q[i])
    return q


# Supports of 1-40 with zeros, one dominant atom plus tiny ones (the cap
# binds), repeated values (exact cost ties) and exactly dyadic targets.
TARGETS = st.one_of(
    st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1.0)), min_size=1, max_size=40).filter(any),
    st.lists(st.floats(1e-9, 1e-3), min_size=1, max_size=39).map(lambda tiny: [1.0] + tiny),
    st.lists(st.sampled_from([0.0, 1.0, 2.0, 3.0]), min_size=1, max_size=40).filter(any),
    st.lists(st.integers(0, 39), max_size=39).map(halvings),
).map(lambda w: np.asarray(w) / np.sum(w))


class TestQuantize:
    def test_running_example(self):
        t = quantize([0.64, 0.16, 0.2], 8)
        assert list(t.counts) == [5, 1, 2]
        assert kl_divergence(t, [0.64, 0.16, 0.2]) == pytest.approx(0.014583, abs=1e-5)

    def test_uniform_exact(self):
        t = quantize([0.25] * 4, 8)
        assert list(t.counts) == [2, 2, 2, 2]
        assert kl_divergence(t, [0.25] * 4) == 0.0

    def test_two_point_mode_collapse(self):
        t = quantize([0.9, 0.1], 2)
        assert list(t.counts) == [2, 0]
        assert kl_divergence(t, [0.9, 0.1]) == pytest.approx(math.log2(1 / 0.9), abs=1e-12)

    def test_zero_stays_zero(self):
        t = quantize([0.5, 0.0, 0.5], 16)
        assert t.counts[1] == 0

    @pytest.mark.parametrize("probs", [[0.5, -0.1, 0.6], [0.5, math.nan, 0.5], [0.0, 0.0], [0.5, 0.6]],
                             ids=["negative", "nan", "all-zero", "sum-1.1"])
    def test_rejects_what_pmf_rejects(self, probs):
        with pytest.raises(ValueError) as pmf_error:
            Pmf(probs)
        for fn in (quantize, brute_force_quantize):
            with pytest.raises(ValueError) as error:
                fn(probs, 8)
            assert str(error.value) == str(pmf_error.value)

    def test_errors(self):
        with pytest.raises(ValueError):
            quantize([0.5, 0.5], 0)
        with pytest.raises(ValueError):
            quantize([0.0, 0.0], 4)
        # the caps floor(M q) + 1 hold 2^40 - 109 units, short of M = 2^40
        with pytest.raises(ValueError, match="too far from 1"):
            quantize([1 - 1e-10], 1 << 40)

    def test_bound_enforced_on_lopsided_target(self):
        # the unconstrained KL optimum loads 16/16 on the first atom here,
        # which breaks the c/M <= q + 1/M contract; the allocator must not
        q = np.array([0.93, 0.0175, 0.0175, 0.0175, 0.0175])
        t = quantize(q, 16)
        assert np.all(t.counts / 16 <= q + 1 / 16 + 1e-15)
        unconstrained = brute_force_quantize(q, 16)
        assert np.any(unconstrained.counts / 16 > q + 1 / 16)
        assert kl_divergence(t, q) >= kl_divergence(unconstrained, q)
        assert not feasible_exchange_improves(t, q)


class TestBruteForce:
    def test_matches_running_example(self):
        t = brute_force_quantize([0.64, 0.16, 0.2], 8)
        assert list(t.counts) == [5, 1, 2]

    def test_single_unit_goes_to_mode(self):
        assert list(brute_force_quantize([1 / 3, 1 / 3, 1 / 3], 1).counts) == [1, 0, 0]
        assert list(brute_force_quantize([0.2, 0.5, 0.3], 1).counts) == [0, 1, 0]

    def test_symmetric_tie_prefers_low_index(self):
        assert list(brute_force_quantize([0.5, 0.5], 3).counts) == [2, 1]

    def test_instance_too_large(self):
        with pytest.raises(ValueError):
            brute_force_quantize(np.ones(9) / 9, 4)
        with pytest.raises(ValueError):
            brute_force_quantize(np.ones(8) / 8, 4096)


class TestAgainstHeapOracle:
    @settings(max_examples=150)
    @given(TARGETS, st.integers(1, 1 << 12))
    def test_same_counts(self, q, m):
        assert np.array_equal(quantize(q, m).counts, heap_quantize(q, m).counts)

    @pytest.mark.parametrize("p,size,m", [((0.211, 0.789), 3072, 12), ((0.1, 0.2, 0.7), 16385, 16)])
    def test_same_counts_on_tunstall_leaves(self, p, size, m):
        leaf_probs = build_tunstall(Pmf(p), size).leaf_probs
        assert np.array_equal(quantize(leaf_probs, 1 << m).counts, heap_quantize(leaf_probs, 1 << m).counts)


class TestOptimality:
    def test_oracle_equivalence_random(self):
        rng = np.random.default_rng(23)
        for _ in range(60):
            q = random_target(rng)
            for m in (4, 8, 16, 32):
                klg = kl_divergence(quantize(q, m), q)
                klb = kl_divergence(brute_force_quantize(q, m), q)
                assert abs(klg - klb) <= 1e-12

    def test_quant_bound_random(self):
        rng = np.random.default_rng(29)
        for _ in range(120):
            q = random_target(rng)
            m = int(rng.integers(1, 64))
            t = quantize(q, m)
            assert np.all(t.counts / m <= q + 1.0 / m + 1e-15)

    def test_one_exchange_optimal_random(self):
        rng = np.random.default_rng(31)
        for _ in range(40):
            q = random_target(rng)
            m = int(rng.integers(1, 48))
            assert not feasible_exchange_improves(quantize(q, m), q)

    def test_divergence_bound_random(self):
        rng = np.random.default_rng(37)
        for _ in range(120):
            q = random_target(rng)
            m = int(rng.integers(1, 96))
            mu = q[q > 0].min()
            assert kl_divergence(quantize(q, m), q) <= 1.0 / (mu * m) + 1e-12

    @settings(max_examples=150)
    @given(
        st.integers(2, 4).flatmap(
            lambda k: st.lists(st.floats(0.02, 1.0), min_size=k, max_size=k)
        ),
        st.integers(1, 24),
    )
    def test_quant_bound_property(self, weights, m):
        q = np.asarray(weights) / np.sum(weights)
        t = quantize(q, m)
        assert np.all(t.counts / m <= q + 1.0 / m + 1e-15)
