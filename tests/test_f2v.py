import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rescode import (
    ArrayBitSource,
    BitSourceExhausted,
    FileBitSource,
    Pmf,
    RandomBitSource,
    build_code,
    encode_word,
    entropy,
    generate_stream,
    induced_distribution,
)


@pytest.fixture
def running_code():
    return build_code(Pmf([0.8, 0.2]), 3, 3)


class TestBuildCode:
    def test_running_example(self, running_code):
        code = running_code
        assert code.codebook.leaves == ((0, 0), (0, 1), (1,))
        assert list(code.counts.counts) == [5, 1, 2]
        assert list(code.cum) == [0, 5, 6, 8]
        assert code.scheme == "f2v"

    def test_trivial_one_bit(self):
        code = build_code(Pmf([0.5, 0.5]), 2, 1)
        assert list(code.counts.counts) == [1, 1]
        assert encode_word(code, 0) == (0,)
        assert encode_word(code, 1) == (1,)

    def test_experiment_excess(self):
        code = build_code(Pmf([0.211, 0.789]), 3072, 12)
        assert code.n_bits == pytest.approx(math.log2(3072), abs=1e-12)
        assert code.q_bits == pytest.approx(12 - math.log2(3072), abs=1e-12)
        assert code.q_bits == pytest.approx(0.41504, abs=1e-5)

    def test_m_cap(self):
        with pytest.raises(ValueError):
            build_code(Pmf([0.5, 0.5]), 2, 63)


class TestEncodeWord:
    @pytest.mark.parametrize("u,leaf", [(0, (0, 0)), (4, (0, 0)), (5, (0, 1)), (6, (1,)), (7, (1,))])
    def test_range_table(self, running_code, u, leaf):
        assert encode_word(running_code, u) == leaf

    def test_out_of_range(self, running_code):
        with pytest.raises(ValueError):
            encode_word(running_code, 8)
        with pytest.raises(ValueError):
            encode_word(running_code, -1)


class TestInducedDistribution:
    def test_exhaustive_equals_counts(self, running_code):
        ind = induced_distribution(running_code)
        assert ind.denominator == 8
        assert list(ind.counts) == [5, 1, 2]

    def test_trivial(self):
        code = build_code(Pmf([0.5, 0.5]), 2, 1)
        assert list(induced_distribution(code).counts) == [1, 1]

    def test_counts_sum_invariant(self):
        code = build_code(Pmf([0.3, 0.7]), 6, 9)
        assert int(code.counts.counts.sum()) == 2**9

    def test_exhaustive_over_random_codes(self):
        rng = np.random.default_rng(41)
        for _ in range(15):
            p = Pmf(rng.dirichlet(np.ones(2)) * 0.9 + 0.05)
            m = int(rng.integers(2, 13))
            n_cw = int(rng.integers(2, min(2**m, 200) + 1))
            code = build_code(p, n_cw, m)
            assert np.array_equal(induced_distribution(code).counts, code.counts.counts)

    def test_beyond_exhaustive_range_is_rejected(self):
        code = build_code(Pmf([0.5, 0.5]), 2, 17)
        with pytest.raises(ValueError, match="exhaustive"):
            induced_distribution(code)


class TestInvariants:
    def test_input_entropy_dominates_output(self):
        # fixed-length dictionary: E[len(U)] = m = H(U) >= H(f(U))
        rng = np.random.default_rng(43)
        for _ in range(10):
            p = Pmf(rng.dirichlet(np.ones(3)) * 0.85 + 0.05)
            m = int(rng.integers(3, 11))
            code = build_code(p, 3 + 2 * int(rng.integers(0, 20)), m)
            assert entropy(code.counts) <= m + 1e-12

    def test_max_prob_bound(self):
        rng = np.random.default_rng(47)
        for _ in range(20):
            p = Pmf(rng.dirichlet(np.ones(2)) * 0.9 + 0.05)
            m = int(rng.integers(2, 13))
            n_cw = int(rng.integers(2, min(2**m, 500) + 1))
            code = build_code(p, n_cw, m)
            bound = 1.0 / (n_cw * p.mu()) + 2.0**-m
            assert code.counts.probs().max() <= bound + 1e-12

    def test_deterministic_json(self):
        p = Pmf([0.211, 0.789])
        a, b = build_code(p, 48, 9), build_code(p, 48, 9)
        assert a.codebook.leaves == b.codebook.leaves
        assert np.array_equal(a.target.leaf_probs, b.target.leaf_probs)
        assert np.array_equal(a.counts.counts, b.counts.counts)


class TestGenerateStream:
    def test_bits_000_101(self, running_code):
        res = generate_stream(running_code, ArrayBitSource("000101"), 2)
        assert list(res.symbols) == [0, 0, 0, 1]
        assert res.input_bits == 6
        assert res.output_symbols == 4
        assert list(res.leaf_counts) == [1, 1, 0]

    def test_exhaustion_reports_partial(self, running_code):
        with pytest.raises(BitSourceExhausted) as exc:
            generate_stream(running_code, ArrayBitSource("000101"), 3)
        assert list(exc.value.result.symbols) == [0, 0, 0, 1]
        assert exc.value.result.input_bits == 6

    def test_seeded_determinism(self, running_code):
        a = generate_stream(running_code, RandomBitSource(1), 100)
        b = generate_stream(running_code, RandomBitSource(1), 100)
        assert np.array_equal(a.symbols, b.symbols)

    def test_pinned_bit_stream(self):
        # seed 1 must always yield these bits: the MSB-first bits of the
        # generator's first 64-bit draw (stream stability is documented)
        first_word = 9441442522235856127
        expected = format(first_word, "064b")[:16]
        got = "".join(str(b) for b in RandomBitSource(1).take_bits(16))
        assert got == expected == "1000001100000110"

    def test_chunking_matches_one_shot(self, running_code):
        one = generate_stream(running_code, RandomBitSource(9), 64)
        src = RandomBitSource(9)
        parts = [generate_stream(running_code, src, k).symbols for k in (10, 30, 24)]
        assert np.array_equal(one.symbols, np.concatenate(parts))

    def test_file_source_msb_first(self, running_code, tmp_path):
        path = tmp_path / "bits.bin"
        path.write_bytes(bytes([0b00010100]))
        res = generate_stream(running_code, FileBitSource(path), 2)
        assert list(res.symbols) == [0, 0, 0, 1]

    def test_statistical_agreement(self):
        # large seeded run: empirical codeword frequencies approach counts/2^m
        p = Pmf([0.211, 0.789])
        code = build_code(p, 64, 9)
        res = generate_stream(code, RandomBitSource(123), 200_000)
        emp = res.leaf_counts / res.leaf_counts.sum()
        tv = np.abs(emp - code.counts.probs()).sum()
        assert tv < 0.02

    def test_peak_memory_per_symbol(self):
        # one call of about 1e6 symbols on the experiment code; per-symbol
        # int64 temporaries would cost 8 B each
        code = build_code(Pmf([0.211, 0.789]), 3072, 12)
        source = RandomBitSource(42)
        tracemalloc.start()
        try:
            res = generate_stream(code, source, int(1e6 / code.exp_len))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / res.output_symbols < 10


@st.composite
def stream_instances(draw):
    """A code (full-support p, D in 2..4, valid N <= 2^8, 2^m >= N, m <= 12),
    a bit string of whole words plus a partial one, and chunk sizes summing
    to the word count."""
    weights = draw(st.lists(st.floats(min_value=0.05, max_value=1.0), min_size=2, max_size=4))
    p = Pmf(np.asarray(weights) / math.fsum(weights))
    d = p.alphabet_size
    n = d + draw(st.integers(min_value=0, max_value=((1 << 8) - d) // (d - 1))) * (d - 1)
    m = draw(st.integers(min_value=max(1, (n - 1).bit_length()), max_value=12))
    words = draw(st.integers(min_value=0, max_value=40))
    bits = draw(st.lists(st.integers(0, 1), min_size=words * m, max_size=words * m + m - 1))
    cuts = sorted(draw(st.lists(st.integers(min_value=0, max_value=words), max_size=4)))
    chunks = np.diff([0, *cuts, words]).tolist()
    return build_code(p, n, m), bits, chunks


class TestStreamProperties:
    @settings(derandomize=True, database=None, deadline=None, max_examples=100)
    @given(stream_instances())
    def test_matches_per_word_oracle_in_any_chunking(self, instance):
        code, bits, chunks = instance
        m, words = code.m, sum(chunks)
        index = {leaf: i for i, leaf in enumerate(code.codebook.leaves)}
        leaves = [encode_word(code, int("".join(map(str, bits[j * m : (j + 1) * m])), 2)) for j in range(words)]
        expected = [s for leaf in leaves for s in leaf]
        expected_counts = np.bincount([index[leaf] for leaf in leaves], minlength=code.num_codewords)

        one = generate_stream(code, ArrayBitSource(bits), words)
        assert one.symbols.tolist() == expected
        assert np.array_equal(one.leaf_counts, expected_counts)
        assert one.input_bits == words * m
        assert one.output_symbols == len(expected)

        source = ArrayBitSource(bits)
        parts = [generate_stream(code, source, k) for k in chunks]
        assert np.concatenate([r.symbols for r in parts]).tolist() == expected
        assert np.array_equal(sum(r.leaf_counts for r in parts), expected_counts)
        assert sum(r.input_bits for r in parts) == one.input_bits
        assert sum(r.output_symbols for r in parts) == one.output_symbols
