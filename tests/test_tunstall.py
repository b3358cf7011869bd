import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rescode import (
    Pmf,
    StreamResult,
    build_tunstall,
    leaf_distribution,
    round_size_down,
    tunstall,
)
from references import check_balance, heap_tunstall, loop_leaf_probs, paths, tuple_validate_complete


def full_support_pmf(rng, d, floor=0.05):
    raw = rng.dirichlet(np.ones(d))
    return Pmf(floor + (1 - floor * d) * raw)


def random_valid_size(rng, d, upper=4096):
    if d == 2:
        return int(rng.integers(2, upper + 1))
    k = int(rng.integers(0, (upper - d) // (d - 1) + 1))
    return d + k * (d - 1)


class TestBuild:
    def test_three_leaves(self):
        ld = build_tunstall(Pmf([0.8, 0.2]), 3)
        assert paths(ld.codebook) == ((0, 0), (0, 1), (1,))
        assert ld.leaf_probs == pytest.approx([0.64, 0.16, 0.2], abs=1e-15)

    def test_four_leaves_splits_00(self):
        ld = build_tunstall(Pmf([0.8, 0.2]), 4)
        assert paths(ld.codebook) == ((0, 0, 0), (0, 0, 1), (0, 1), (1,))
        assert ld.leaf_probs == pytest.approx([0.512, 0.128, 0.16, 0.2], abs=1e-15)

    def test_uniform_ties_split_lexicographically(self):
        ld = build_tunstall(Pmf([0.5, 0.5]), 4)
        assert paths(ld.codebook) == ((0, 0), (0, 1), (1, 0), (1, 1))

    def test_invalid_size_rejected(self):
        with pytest.raises(ValueError, match="the largest below it is 3$"):
            build_tunstall(Pmf([0.4, 0.3, 0.3]), 4)

    def test_zero_support_rejected(self):
        with pytest.raises(ValueError):
            build_tunstall(Pmf([0.8, 0.2, 0.0]), 5)

    def test_size_helpers(self):
        assert round_size_down(2, 3072) == 3072
        assert round_size_down(3, 5) == 5
        assert round_size_down(3, 4) == 3
        assert round_size_down(3, 4096) == 4095
        assert round_size_down(2, 17) == 17
        with pytest.raises(ValueError, match="at least 2"):
            round_size_down(1, 4)
        assert round_size_down(3, tunstall.MAX_LEAVES) == tunstall.MAX_LEAVES - 1
        with pytest.raises(ValueError, match=f"codebook size {tunstall.MAX_LEAVES + 1} is above the cap"):
            round_size_down(3, tunstall.MAX_LEAVES + 1)

    def test_deterministic_rebuild(self):
        p = Pmf([0.211, 0.789])
        a = build_tunstall(p, 101)
        b = build_tunstall(p, 101)
        assert paths(a.codebook) == paths(b.codebook)
        assert np.array_equal(a.leaf_probs, b.leaf_probs)

    def test_agrees_with_recomputed_leaf_distribution(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            d = int(rng.integers(2, 4))
            p = full_support_pmf(rng, d)
            ld = build_tunstall(p, random_valid_size(rng, d, upper=512))
            ref = leaf_distribution(p, ld.codebook)
            assert np.max(np.abs(ld.leaf_probs - ref.leaf_probs)) < 1e-12
            assert ld.expected_len == pytest.approx(ref.expected_len, abs=1e-12)

    def test_deep_trees_allowed(self):
        # skewed sources legitimately push the heavy path past 64 symbols
        p = Pmf([0.97, 0.03])
        ld = build_tunstall(p, 128)
        assert ld.codebook.max_len() > 64
        assert check_balance(ld).ok

    def test_internal_nodes_dominate_leaves(self):
        # the defining greedy invariant: every split node had maximal
        # probability, so no internal node is lighter than any leaf
        p = Pmf([0.211, 0.789])
        ld = build_tunstall(p, 4096)
        leaf_set = set(paths(ld.codebook))
        internal = {x[:k] for x in leaf_set for k in range(1, len(x))} - leaf_set
        pv = p.probs

        def prob(path):
            acc = 1.0
            for s in path:
                acc *= pv[s]
            return acc

        min_internal = min(prob(x) for x in internal)
        max_leaf = float(ld.leaf_probs.max())
        assert min_internal >= max_leaf * (1 - 1e-12)

    def test_exact_ties_are_settled_by_float_products(self):
        # Paths with the same count of each symbol tie exactly, but their left-to-right
        # float products do not: the stream_packed code's 286 leaves with 4 zeros and
        # 10 ones carry 7 values, and its cut class (2 zeros, 18 ones) is split by them.
        p = Pmf([0.211, 0.789])
        ld = build_tunstall(p, 3072)
        leaves = paths(ld.codebook)
        tied = ld.leaf_probs[[x.count(0) == 4 and len(x) == 14 for x in leaves]]
        assert tied.size == 286 and np.unique(tied).size == 7
        internal = {x[:k] for x in leaves for k in range(1, len(x))}
        cut_internal = sorted(x for x in internal if x.count(0) == 2 and len(x) == 20)
        cut_leaves = sorted(x for x in leaves if x.count(0) == 2 and len(x) == 20)
        assert min(loop_leaf_probs(p.probs, cut_internal)) >= max(loop_leaf_probs(p.probs, cut_leaves))
        assert cut_internal[-1] > cut_leaves[0]  # not in path order
        assert leaves == heap_tunstall(p.probs, 3072)[0]


class TestBalance:
    def test_hand_example(self):
        p = Pmf([0.8, 0.2])
        rep = check_balance(build_tunstall(p, 3))
        assert rep.ok
        assert rep.ratio == pytest.approx(4.0, abs=1e-12)
        assert rep.min_prob == pytest.approx(0.16, abs=1e-12)
        assert rep.max_prob == pytest.approx(0.64, abs=1e-12)

    def test_uniform_ratio_one(self):
        p = Pmf([0.5, 0.5])
        rep = check_balance(build_tunstall(p, 8))
        assert rep.ok
        assert rep.ratio == pytest.approx(1.0, abs=1e-12)

    def test_experiment_codebook(self):
        p = Pmf([0.211, 0.789])
        rep = check_balance(build_tunstall(p, 3072))
        assert rep.ok
        assert rep.ratio <= 1 / 0.211 + 1e-9

    def test_random_trials(self):
        rng = np.random.default_rng(17)
        for _ in range(40):
            d = int(rng.integers(2, 4))
            p = full_support_pmf(rng, d)
            ld = build_tunstall(p, random_valid_size(rng, d, upper=1024))
            assert check_balance(ld).ok


@st.composite
def tunstall_instances(draw):
    """A full-support p with D in 2..4 and any valid size N <= 2^10."""
    weights = draw(st.lists(st.floats(min_value=0.05, max_value=1.0), min_size=2, max_size=4))
    p = Pmf(np.asarray(weights) / math.fsum(weights))
    d = p.alphabet_size
    k = draw(st.integers(min_value=0, max_value=((1 << 10) - d) // (d - 1)))
    return p, d + k * (d - 1)


@st.composite
def tied_levels(draw):
    """Narrow level arrays as tunstall._grow returns them, up to 80 deep, with three probability values; and a k."""
    d = draw(st.integers(min_value=2, max_value=6))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    fronts, probs = [np.zeros(1, dtype=np.int64)], [rng.choice([0.1, 0.2, 0.3], d)]
    for _ in range(draw(st.integers(min_value=0, max_value=79))):
        fronts.append(np.sort(rng.choice(probs[-1].size, size=2, replace=False)))
        probs.append(rng.choice([0.1, 0.2, 0.3], fronts[-1].size * d))
    return fronts, probs, draw(st.integers(min_value=1, max_value=sum(q.size for q in probs)))


class TestProperties:
    """Facts the construction guarantees, checked here instead of on every build."""

    @settings(max_examples=100)
    @given(tunstall_instances())
    def test_complete_exact_and_balanced(self, instance):
        p, n = instance
        ld = build_tunstall(p, n)
        assert len(ld.codebook) == n
        assert tuple_validate_complete(paths(ld.codebook), p.alphabet_size) == paths(ld.codebook)
        logs = np.log2(p.probs)
        for x, prob in zip(paths(ld.codebook), ld.leaf_probs):
            ref = 2.0 ** math.fsum(logs[s] for s in x)
            assert abs(prob - ref) <= 1e-12 * ref, x
        assert check_balance(ld).ok

    @settings(max_examples=50)
    @given(tied_levels())
    def test_ties_are_split_in_path_order(self, levels):
        # Ties across levels and deep paths, so that the order of the tied nodes'
        # packed paths reads every piece and, between a prefix and its extension, the level.
        fronts, probs, k = levels
        d = probs[0].size
        nodes = [[(s,) for s in range(d)]]
        for front in fronts[1:]:
            nodes.append([nodes[-1][i] + (s,) for i in front.tolist() for s in range(d)])
        keys = [(-q, path) for level, prob in zip(nodes, probs) for q, path in zip(prob.tolist(), level)]
        expected = np.zeros(len(keys), dtype=bool)
        expected[sorted(range(len(keys)), key=keys.__getitem__)[:k]] = True
        kth = sorted(np.concatenate(probs).tolist(), reverse=True)[k - 1]  # as _grow returns it
        assert np.array_equal(np.concatenate(tunstall._internal(fronts, probs, k, kth)), expected)


@st.composite
def oracle_instances(draw):
    """D in 2..6 with every branch probability at least a floor down to 0.001, and a valid N <= 2^12."""
    floor = draw(st.sampled_from([0.001, 0.01, 0.1]))
    weight = st.floats(min_value=0.0, max_value=1.0, allow_subnormal=False)
    weights = np.asarray(draw(st.lists(weight, min_size=2, max_size=6)))
    d = weights.size
    total = math.fsum(weights)
    p = Pmf(floor + (1 - floor * d) * weights / total if total else np.full(d, 1 / d))
    most = max(0, ((1 << draw(st.integers(min_value=1, max_value=12))) - d) // (d - 1))
    return p, d + draw(st.integers(min_value=most // 2, max_value=most)) * (d - 1)


class TestHeapOracle:
    """The level-by-level build gives the heap's codebook and bit-identical leaf probabilities."""

    @settings(max_examples=100)
    @given(oracle_instances())
    def test_matches_heap(self, instance):
        p, n = instance
        ld = build_tunstall(p, n)
        leaves, probs = heap_tunstall(p.probs, n)
        assert paths(ld.codebook) == leaves
        assert np.array_equal(ld.leaf_probs, probs)

    @pytest.mark.parametrize(
        "probs, n",
        [((0.211, 0.789), n) for n in (32, 2048, 3072, 4096, 1 << 16)]
        + [((0.5, 0.3, 0.2), 16385), ((0.999, 0.001), 1024)]
        # the build packs paths in 64-bit pieces: symbols that straddle two pieces
        # (3 bits each over 57 symbols; 9 bits each in a uint16 table), and five pieces
        + [((0.9,) + (0.025,) * 4, 4097), ((0.5,) + (0.5 / 299,) * 299, 12260), ((0.02, 0.98), 3072)],
    )
    def test_pinned_sizes_match_heap(self, probs, n):
        p = Pmf(list(probs))
        ld = build_tunstall(p, n)
        leaves, leaf_probs = heap_tunstall(p.probs, n)
        assert paths(ld.codebook) == leaves
        assert np.array_equal(ld.leaf_probs, leaf_probs)

    @pytest.mark.parametrize(
        "probs, n, factor", [((0.211, 0.789), 3072, 8), ((0.5, 0.3, 0.2), 1001, 8), ((0.999, 0.001), 300, 1000)]
    )
    def test_regrows_when_the_cutoff_is_too_high(self, probs, n, factor):
        grow = tunstall._grow
        cutoffs = []

        def high_first(pv, k, cutoff):
            cutoffs.append(cutoff)
            return grow(pv, k, factor * cutoff)

        p = Pmf(list(probs))
        with mock.patch.object(tunstall, "_grow", high_first):
            ld = build_tunstall(p, n)
        assert len(cutoffs) == 2 and cutoffs[1] == 0.0
        leaves, leaf_probs = heap_tunstall(p.probs, n)
        assert paths(ld.codebook) == leaves
        assert np.array_equal(ld.leaf_probs, leaf_probs)

    def test_skewed_build_stays_near_its_table_size(self):
        # a padded path matrix per level would take far more than the table
        tracemalloc.start()
        try:
            ld = build_tunstall(Pmf([0.999, 0.001]), 1 << 12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * ld.codebook.table.nbytes + (1 << 20)

    def test_skewed_build_stays_within_its_derived_table(self):
        # the build keeps the packed codes; a table unpacked beside them would exceed this
        tracemalloc.start()
        try:
            ld = build_tunstall(Pmf([0.02, 0.98]), 1 << 16)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= ld.codebook.table.nbytes

    def test_text_derives_one_array(self):
        # the first symbols read builds the table, which marks its own padding: no mask beside it
        book = build_tunstall(Pmf([0.02, 0.98]), 1 << 16).codebook
        result = StreamResult(codebook=book, codewords=np.arange(0, len(book), 1024), input_bits=0, output_symbols=0)
        tracemalloc.start()
        try:
            result.symbols
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * book.table.nbytes

    def test_binary_build_stays_near_its_table_size(self):
        # the benchmark sweep's largest build, which sets that workload's peak memory
        tracemalloc.start()
        try:
            ld = build_tunstall(Pmf([0.211, 0.789]), 1 << 16)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.75 * ld.codebook.table.nbytes
