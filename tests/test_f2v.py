import math
import tracemalloc
from dataclasses import replace
from functools import lru_cache
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rescode import (
    ArrayBitSource,
    Codebook,
    FileBitSource,
    Pmf,
    RandomBitSource,
    ResolutionCode,
    TypedPmf,
    build_block_code,
    build_code,
    build_tunstall,
    entropy,
    f2v,
    generate_stream,
    product_codebook,
    quantize,
    round_size_down,
    stream,
    validate_complete,
)
from references import (EXHAUSTIVE_BITS, column_words, flat_codebook, induced_counts, interval_map, pack_chunks,
                        pack_symbols, paths, served_bits)


def codeword(code, u):
    """Word u's codeword path, by the interval map oracle."""
    i, book = interval_map(code, [u])[0], code.codebook
    return tuple(book.table[i, : book.lengths[i]].tolist())


@pytest.fixture
def running_code():
    return build_code(Pmf([0.8, 0.2]), 3, 3)


class TestBuildCode:
    def test_running_example(self, running_code):
        code = running_code
        assert paths(code.codebook) == ((0, 0), (0, 1), (1,))
        assert list(code.counts.counts) == [5, 1, 2]
        assert list(code.cum) == [0, 5, 6, 8]
        assert code.scheme == "f2v"

    def test_trivial_one_bit(self):
        code = build_code(Pmf([0.5, 0.5]), 2, 1)
        assert list(code.counts.counts) == [1, 1]
        assert codeword(code, 0) == (0,)
        assert codeword(code, 1) == (1,)

    def test_experiment_excess(self):
        code = build_code(Pmf([0.211, 0.789]), 3072, 12)
        assert code.n_bits == pytest.approx(math.log2(3072), abs=1e-12)
        assert code.q_bits == pytest.approx(12 - math.log2(3072), abs=1e-12)
        assert code.q_bits == pytest.approx(0.41504, abs=1e-5)

    def test_m_cap(self):
        with pytest.raises(ValueError):
            build_code(Pmf([0.5, 0.5]), 2, 63)


# Each call with one size, count or length argument given through k.
SIZED_CALLS = {
    "build_code-N": lambda k: build_code(Pmf([0.3, 0.7]), k(4), 4),
    "build_code-m": lambda k: build_code(Pmf([0.3, 0.7]), 4, k(2)),
    "build_tunstall": lambda k: build_tunstall(Pmf([0.3, 0.7]), k(4)),
    "build_block_code-n": lambda k: build_block_code(Pmf([0.3, 0.7]), k(2), 4),
    "build_block_code-m": lambda k: build_block_code(Pmf([0.3, 0.7]), 2, k(4)),
    "round_size_down-D": lambda k: round_size_down(k(2), 4),
    "round_size_down-N": lambda k: round_size_down(2, k(4)),
    "quantize": lambda k: quantize([0.5, 0.5], k(2)),
    "TypedPmf": lambda k: TypedPmf(k(2), [1, 1]),
    "product_codebook-D": lambda k: product_codebook(k(2), 2),
    "product_codebook-n": lambda k: product_codebook(2, k(2)),
    "validate_complete": lambda k: validate_complete(
        Codebook(k(2), np.array([[0], [1 << 63]], dtype=np.uint64), np.array([1, 1]))).table,
    "generate_stream": lambda k: generate_stream(build_code(Pmf([0.3, 0.7]), 4, 4), RandomBitSource(1), k(2)),
    "stream": lambda k: next(stream(build_code(Pmf([0.3, 0.7]), 4, 4), RandomBitSource(1), k(2))),
}


@pytest.mark.parametrize("call", SIZED_CALLS.values(), ids=SIZED_CALLS.keys())
def test_sizes_are_integers_not_truncated(call):
    call(np.int64)  # numpy integers pass
    with pytest.raises(TypeError):
        call(lambda v: v + 0.5)  # int() would have truncated it


class TestEncodeWord:
    @pytest.mark.parametrize("u,leaf", [(0, (0, 0)), (4, (0, 0)), (5, (0, 1)), (6, (1,)), (7, (1,))])
    def test_range_table(self, running_code, u, leaf):
        assert codeword(running_code, u) == leaf

    def test_out_of_range(self, running_code):
        with pytest.raises(ValueError):
            codeword(running_code, 8)
        with pytest.raises(ValueError):
            codeword(running_code, -1)


class TestInducedDistribution:
    def test_exhaustive_equals_counts(self, running_code):
        ind = induced_counts(running_code)
        assert ind.sum() == 8
        assert list(ind) == [5, 1, 2]

    def test_trivial(self):
        code = build_code(Pmf([0.5, 0.5]), 2, 1)
        assert list(induced_counts(code)) == [1, 1]

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
            assert np.array_equal(induced_counts(code), code.counts.counts)


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
        assert paths(a.codebook) == paths(b.codebook)
        assert np.array_equal(a.target.leaf_probs, b.target.leaf_probs)
        assert np.array_equal(a.counts.counts, b.counts.counts)


def hand_made_code(n, m, seed, probs=(0.211, 0.789)):
    """Tunstall leaves with random counts summing to 2^m, every fifth one zero.

    Constructed directly, because quantize is linear in 2^m.
    """
    p = Pmf(list(probs))
    rng = np.random.default_rng(seed)
    weights = rng.random(n)
    weights[::5] = 0
    counts = rng.multinomial(1 << m, weights / weights.sum())
    return ResolutionCode(scheme="f2v", m=m, target=build_tunstall(p, n), counts=TypedPmf(1 << m, counts))


class TestGenerateStream:
    def test_bits_000_101(self, running_code):
        res = generate_stream(running_code, ArrayBitSource("000101"), 2)
        assert list(res.symbols) == [0, 0, 0, 1]
        assert res.input_bits == 6
        assert res.output_symbols == 4
        assert list(res.leaf_counts) == [1, 1, 0]

    def test_negative_count_is_refused(self, running_code):
        with pytest.raises(ValueError, match="^number of codewords must be nonnegative$"):
            generate_stream(running_code, ArrayBitSource("000101"), -1)

    def test_exhaustion_reports_partial(self, running_code):
        res = generate_stream(running_code, ArrayBitSource("000101"), 3)
        assert list(res.symbols) == [0, 0, 0, 1]
        assert res.input_bits == 6

    @pytest.mark.parametrize("bits", [[0.5, 1], [-1, 0], [256], [2], "012", [[0, 1]]])
    def test_array_source_takes_only_0_and_1(self, bits):
        with pytest.raises(ValueError, match="0/1 values"):
            ArrayBitSource(bits)

    def test_seeded_determinism(self, running_code):
        a = generate_stream(running_code, RandomBitSource(1), 100)
        b = generate_stream(running_code, RandomBitSource(1), 100)
        assert np.array_equal(a.symbols, b.symbols)

    def test_pinned_bit_stream(self):
        # seed 1 must always yield these bits: the MSB-first bits of the
        # generator's first 64-bit draw (stream stability is documented)
        first_word = 9441442522235856127
        expected = format(first_word, "064b")[:16]
        got = "".join(str(b) for b in served_bits(RandomBitSource(1), 16))
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

    @pytest.mark.parametrize("kind", ["array", "file", "random"])
    @settings(max_examples=60)
    @given(bits=st.lists(st.integers(0, 1), max_size=400), takes=st.lists(st.integers(0, 300), max_size=10),
           seed=st.integers(0, 2**32 - 1))
    @example(bits=np.unpackbits(np.random.default_rng(8).integers(0, 256, size=50, dtype=np.uint8)).tolist(),
             takes=[0, 3, 5, 8, 13, 0, 64, 1, 300, 10, 4], seed=8)
    def test_every_source_serves_its_bits_in_any_takes(self, tmp_path_factory, kind, bits, takes, seed):
        """Each take serves, packed, the next bits of the source: all n of them, or what is left."""
        bits = np.asarray(bits, dtype=np.uint8)
        if kind == "random":  # the MSB-first bits of the generator's 64-bit draws, without end
            draws = np.random.Generator(np.random.PCG64(seed)).integers(
                0, 1 << 64, size=-(-sum(takes) // 64), dtype=np.uint64)
            source, expected = RandomBitSource(seed), np.unpackbits(draws.astype(">u8").view(np.uint8))
        elif kind == "file":  # whole bytes: the file ends in the zero bits that pad the last one
            path = tmp_path_factory.getbasetemp() / "bits.bin"
            np.packbits(bits).tofile(path)
            source, expected = FileBitSource(path), np.unpackbits(np.packbits(bits))
        else:
            source, expected = ArrayBitSource(bits), bits
        pos = 0
        for n in takes:
            data, skip, count = source.take_bits(n)
            assert data.dtype == np.uint8 and 0 <= skip < 8 and data.size == (skip + count + 7) // 8
            assert count == min(n, expected.size - pos)
            assert np.array_equal(np.unpackbits(data)[skip : skip + count], expected[pos : pos + count])
            pos += count

    def test_file_source_reads_only_what_it_serves(self, running_code, tmp_path):
        path = tmp_path / "big.bin"
        np.random.default_rng(9).integers(0, 256, size=4 << 20, dtype=np.uint8).tofile(path)
        tracemalloc.start()
        try:
            res = generate_stream(running_code, FileBitSource(path), 100)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.input_bits == 300
        assert peak < 1 << 20

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

    def test_small_call_allocates_nothing_per_codeword(self):
        # leaf counts are made when read, so a call of 8 words costs no O(N) array on a 2^16-leaf code
        code = build_code(Pmf([0.211, 0.789]), 1 << 16, 24)
        source = RandomBitSource(5)
        assert code.guide.size == 1 << 20  # built once per code, before the call
        tracemalloc.start()
        try:
            res = generate_stream(code, source, 8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.codewords.size == 8 and res.leaf_counts.sum() == 8
        assert peak < code.num_codewords * 8


@st.composite
def stream_instances(draw):
    """A code (full-support p, D in 2..4, valid N <= 2^8, 2^m >= N, m <= 62),
    a bit string of whole words plus a partial one, and chunk sizes summing
    to the word count.

    The codeword counts are a multinomial draw of the 2^m words, constructed
    directly as in hand_made_code: the stream map does not depend on how
    they were chosen, and build_code rejects some targets at m >= 57."""
    weights = draw(st.lists(st.floats(min_value=0.05, max_value=1.0), min_size=2, max_size=4))
    p = Pmf(np.asarray(weights) / math.fsum(weights))
    d = p.alphabet_size
    n = d + draw(st.integers(min_value=0, max_value=((1 << 8) - d) // (d - 1))) * (d - 1)
    m = draw(st.integers(min_value=max(1, (n - 1).bit_length()), max_value=f2v.MAX_INPUT_BITS))
    words = draw(st.integers(min_value=0, max_value=40))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    bits = rng.integers(0, 2, size=words * m + draw(st.integers(min_value=0, max_value=m - 1))).tolist()
    cuts = sorted(draw(st.lists(st.integers(min_value=0, max_value=words), max_size=4)))
    chunks = np.diff([0, *cuts, words]).tolist()
    target = build_tunstall(p, n)
    counts = rng.multinomial(1 << m, target.leaf_probs / target.leaf_probs.sum())
    return ResolutionCode(scheme="f2v", m=m, target=target, counts=TypedPmf(1 << m, counts)), bits, chunks


def check_against_per_word_oracle(code, bits, chunks):
    """One-shot and chunked generate_stream calls against the interval map, word by word."""
    m, words = code.m, sum(chunks)
    index = {leaf: i for i, leaf in enumerate(paths(code.codebook))}
    leaves = [codeword(code, int("".join(map(str, bits[j * m : (j + 1) * m])), 2)) for j in range(words)]
    expected = [s for leaf in leaves for s in leaf]
    expected_counts = np.bincount([index[leaf] for leaf in leaves], minlength=code.num_codewords)

    one = generate_stream(code, ArrayBitSource(bits), words)
    assert one.codewords.tolist() == [index[leaf] for leaf in leaves]
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


class TestGuide:
    def test_table_is_the_interval_map_at_the_cutoff(self):
        code = hand_made_code(1 << 12, 20, seed=3)
        assert code.m == f2v.GUIDE_BITS
        generate_stream(code, RandomBitSource(1), 10)
        assert "guide" in vars(code)
        assert np.array_equal(code.guide, interval_map(code))
        assert not code.guide.flags.writeable

    @pytest.mark.parametrize("n, dtype", [(255, np.uint8), (256, np.uint8), (257, np.uint16), (1 << 16, np.uint16)])
    def test_table_keeps_the_width_of_a_codeword_index(self, n, dtype):
        # the split marker N - 1 is itself a codeword index, so N = 2^8 and 2^16 need no wider dtype
        code = hand_made_code(n, f2v.GUIDE_BITS, seed=6)
        assert code.guide.dtype == dtype
        assert np.array_equal(code.guide, interval_map(code))

    def test_search_beyond_the_cutoff(self):
        code = hand_made_code(3072, 24, seed=4)
        bits = np.random.default_rng(5).integers(0, 2, size=500 * 24 + 7)
        res = generate_stream(code, ArrayBitSource(bits), 500)
        words = [int("".join(map(str, bits[j * 24 : (j + 1) * 24])), 2) for j in range(500)]
        assert res.symbols.tolist() == [s for u in words for s in codeword(code, u)]
        assert res.leaf_counts.sum() == 500 and not res.leaf_counts[::5].any()
        assert code.guide.size == 1 << f2v.GUIDE_BITS

    @settings(max_examples=100)
    @given(stream_instances(), st.sampled_from([f2v.GUIDE_BITS, 0, 3]))
    # the table pads with D in the smallest dtype that holds it: D = 255 fits uint8, 256 and 257 need uint16
    @example((hand_made_code(509, 10, seed=7, probs=[1 / 255] * 255),), 3)
    @example((hand_made_code(511, 10, seed=8, probs=[1 / 256] * 256),), f2v.GUIDE_BITS)
    @example((hand_made_code(513, 10, seed=9, probs=[1 / 257] * 257),), 0)
    # 4096 leaves up to 542 symbols long: the binary table is unpacked in three blocks of 1934 rows
    @example((hand_made_code(4096, 13, seed=10, probs=(0.01, 0.99)),), f2v.GUIDE_BITS)
    def test_matches_searchsorted_on_every_boundary_word(self, instance, guide_bits):
        """Each codeword's words cum[i] - 1, cum[i] and cum[i+1] - 1, zero-count codewords included.

        Random words at m > 20 rarely land in a split bucket; guide_bits 0 and 3
        give small-m codes split buckets too."""
        code, m = instance[0], instance[0].m
        words = np.concatenate((code.cum[:-1] - 1, code.cum[:-1], code.cum[1:] - 1))
        words = words[(words >= 0) & (words < 1 << m)]
        bits = [int(b) for u in words.tolist() for b in format(u, f"0{m}b")]
        with mock.patch.object(f2v, "GUIDE_BITS", guide_bits):
            res = generate_stream(code, ArrayBitSource(bits), words.size)
        assert code.guide.size == 1 << min(m, guide_bits) <= 1 << f2v.GUIDE_BITS
        if m <= min(guide_bits, EXHAUSTIVE_BITS):
            assert np.array_equal(code.guide, interval_map(code))
        idx = interval_map(code, words)
        book = code.codebook
        assert res.symbols.tolist() == [s for i in idx for s in book.table[i, : book.lengths[i]].tolist()]
        assert res.symbols.dtype == book.table.dtype
        assert (book.table[np.arange(book.max_len()) >= book.lengths[:, None]] == book.alphabet_size).all()
        assert np.array_equal(res.leaf_counts, np.bincount(idx, minlength=code.num_codewords))


@st.composite
def word_takes(draw):
    """A word width, the word counts of successive takes, a bit string that
    may end before them (or mid-word), and a generator seed."""
    width = draw(st.integers(min_value=1, max_value=f2v.MAX_INPUT_BITS))
    takes = draw(st.lists(st.integers(min_value=0, max_value=40), max_size=4))
    size = draw(st.integers(min_value=0, max_value=(sum(takes) + 1) * width))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return width, takes, np.random.default_rng(seed).integers(0, 2, size=size, dtype=np.uint8), seed


class TestWordReader:
    @settings(max_examples=200)
    @given(word_takes())
    def test_matches_the_column_loop_from_every_source(self, tmp_path_factory, instance):
        width, takes, bits, seed = instance
        path = tmp_path_factory.getbasetemp() / "words.bin"
        np.packbits(bits).tofile(path)
        for make in (lambda: ArrayBitSource(bits), lambda: FileBitSource(path), lambda: RandomBitSource(seed)):
            source, twin = make(), make()
            for count in takes:
                words = f2v._take_words(source, count, width)
                assert words.dtype == np.int64
                assert np.array_equal(words, column_words(served_bits(twin, count * width), width))


class TestStreamProperties:
    @settings(max_examples=100)
    @given(stream_instances())
    def test_matches_per_word_oracle_in_any_chunking(self, instance):
        check_against_per_word_oracle(*instance)
        if instance[0].m <= EXHAUSTIVE_BITS:
            assert np.array_equal(instance[0].guide, interval_map(instance[0]))

    @settings(max_examples=100)
    @given(stream_instances())
    def test_search_path_matches_per_word_oracle(self, instance):
        # one bucket over all 2^m words: every word is searched
        with mock.patch.object(f2v, "GUIDE_BITS", 0):
            check_against_per_word_oracle(*instance)
        assert instance[0].guide.size == 1

    @settings(max_examples=100)
    @given(stream_instances(), st.integers(min_value=1, max_value=150), st.integers(min_value=1, max_value=5))
    def test_stream_keeps_its_schedule_in_any_chunk_size(self, instance, min_symbols, chunk_words):
        code, bits, _ = instance
        m = code.m
        leaves = [codeword(code, int("".join(map(str, bits[j * m : (j + 1) * m])), 2))
                  for j in range(len(bits) // m)]
        # the schedule: rounds of int(remaining / exp_len) + 1 words until
        # min_symbols symbols are out or the whole words run out
        words = total = 0
        while total < min_symbols and words < len(leaves):
            k = min(int((min_symbols - total) / code.exp_len) + 1, len(leaves) - words)
            total += sum(len(leaf) for leaf in leaves[words : words + k])
            words += k
        index = {leaf: i for i, leaf in enumerate(paths(code.codebook))}
        expected_counts = np.bincount([index[leaf] for leaf in leaves[:words]], minlength=code.num_codewords)

        def chunked(source_bits):
            """The stream in calls of at most chunk_words words; no chunk may follow a short one."""
            with (mock.patch.object(f2v, "STREAM_CHUNK_WORDS", chunk_words),
                  mock.patch.object(f2v, "generate_stream", wraps=f2v.generate_stream) as spy):
                parts = list(stream(code, ArrayBitSource(source_bits), min_symbols))
            asked = [call.args[2] for call in spy.call_args_list]
            assert len(asked) == len(parts)
            assert all(r.input_bits == k * m for r, k in zip(parts[:-1], asked[:-1]))
            return parts

        chunks = chunked(bits)
        whole = list(stream(code, ArrayBitSource(bits), min_symbols))
        # bits that end where the last chunk began: that chunk comes back empty, and is the last
        ended = chunked(bits[: sum(r.input_bits for r in chunks[:-1])])
        assert [r.input_bits for r in ended] == [r.input_bits for r in chunks[:-1]] + [0]
        assert all(r.input_bits <= chunk_words * m for r in chunks)
        assert list(stream(code, ArrayBitSource(bits), 0)) == []
        assert np.concatenate([r.symbols for r in chunks]).tolist() == [s for leaf in leaves[:words] for s in leaf]
        for parts in (chunks, whole):
            assert sum(r.input_bits for r in parts) == words * m
            assert sum(r.output_symbols for r in parts) == total
            assert np.array_equal(sum(r.leaf_counts for r in parts), expected_counts)


# (p, N, m) for D = 2, 3, 5, 16 and 300; the longest codeword of "D2-long" is 134 bits, three pieces
PACK_CODES = {
    "D2": ([0.211, 0.789], 64, 9),
    "D2-long": ([0.05, 0.95], 4096, 13),
    "D3": ([0.5, 0.3, 0.2], 99, 8),
    "D5": ([0.1, 0.2, 0.3, 0.15, 0.25], 61, 8),
    "D16": ([1 / 16] * 16, 46, 8),
    "D300": ([1 / 300] * 300, 300, 10),
}


# the codes of the benchmark's stream_packed and stream_text workloads
STREAM_CODES = {"stream_packed": ([0.211, 0.789], 3072, 12), "stream_text": ([0.5, 0.3, 0.2], 16385, 16)}


@lru_cache(maxsize=None)
def pack_code(name):
    p, n, m = {**PACK_CODES, **STREAM_CODES}[name]
    return build_code(Pmf(p), n, m)


def expanded(code, idx) -> np.ndarray:
    leaves = paths(code.codebook)
    return np.array([s for i in idx for s in leaves[i]], dtype=code.codebook.table.dtype)


class TestPackCodewords:
    def test_long_codewords_take_several_pieces(self):
        code = pack_code("D2-long")
        values, sizes = code.codebook.pieces
        assert values.shape[1] == 3 and code.codebook.max_len() > 128
        assert np.array_equal(sizes.sum(axis=1), code.codebook.lengths)

    @pytest.mark.parametrize("name", [*PACK_CODES, *STREAM_CODES])
    def test_pieces_are_contiguous_rows_of_the_codes(self, name):
        book = pack_code(name).codebook
        values, sizes = book.pieces
        assert book.codes.flags.c_contiguous and values.flags.c_contiguous and sizes.flags.c_contiguous
        assert np.array_equal(values, book.codes) and sizes.shape == values.shape and sizes.dtype == np.uint8
        assert np.shares_memory(values, book.codes)

    @pytest.mark.parametrize("name", [*PACK_CODES, *STREAM_CODES])
    def test_table_rows_cut_at_the_lengths_are_the_paths(self, name):
        book = pack_code(name).codebook
        assert tuple(tuple(row[:n].tolist()) for row, n in zip(book.table, book.lengths)) == paths(book)

    def test_first_pieces_read_traces_little_beyond_the_sizes(self):
        book = build_tunstall(Pmf([0.02, 0.98]), 1 << 16).codebook  # 7 pieces
        tracemalloc.start()
        try:
            _, sizes = book.pieces
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= sizes.nbytes + 32 * len(book)  # a few int64 columns, no int64 array of every piece

    def test_piece_major_codes_pack_from_a_row_copy(self):
        # codes in Fortran order lie piece by piece in memory, so pieces copies them into rows
        code = pack_code("D2-long")
        book = flat_codebook(paths(code.codebook), 2)
        book = replace(book, codes=np.asfortranarray(book.codes))
        values, _ = book.pieces
        assert book.codes.shape[1] > 1 and not book.codes.flags.c_contiguous
        assert values.flags.c_contiguous and not np.shares_memory(values, book.codes)
        assert np.array_equal(values, code.codebook.pieces[0])
        idx = np.random.default_rng(2).integers(0, code.num_codewords, size=500)
        copied = replace(code, target=replace(code.target, codebook=book))
        assert pack_chunks(copied, [idx[:7], idx[7:]]) == pack_chunks(code, [idx[:7], idx[7:]])

    def test_an_index_out_of_range_raises(self):
        code = pack_code("D2-long")
        with pytest.raises(IndexError):
            f2v.pack_codewords(code, np.array([0, code.num_codewords]), 0, 0)

    @pytest.mark.parametrize("name", list(PACK_CODES))
    def test_full_chunk_matches_the_symbols_and_leaves_its_inputs_unchanged(self, name):
        # a whole STREAM_CHUNK_WORDS chunk between two short ones: the wrapped running sum spans every word of it
        code = pack_code(name)
        values, sizes = (a.copy() for a in code.codebook.pieces)
        codes, source = code.codebook.codes.copy(), RandomBitSource(5)
        chunks = [generate_stream(code, source, k) for k in (1, f2v.STREAM_CHUNK_WORDS, 2)]
        # the guide's narrow dtype, and intp, which pack_codewords indexes with as it is
        idx = [chunks[0].codewords, chunks[1].codewords.astype(np.intp), chunks[2].codewords]
        drawn = [a.copy() for a in idx]
        got, _ = pack_chunks(code, idx)
        symbols = np.concatenate([chunk.symbols for chunk in chunks])
        assert got == pack_symbols(symbols, code.codebook.alphabet_size)
        assert all(np.array_equal(a, b) and a.dtype == b.dtype for a, b in zip(idx, drawn))
        assert np.array_equal(code.codebook.codes, codes)
        assert np.array_equal(code.codebook.pieces[0], values) and np.array_equal(code.codebook.pieces[1], sizes)

    @pytest.mark.parametrize("name", list(PACK_CODES))
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_matches_packbits_of_the_symbols_in_any_chunking(self, name, data):
        code = pack_code(name)
        idx = np.array(data.draw(st.lists(st.integers(0, code.num_codewords - 1), max_size=60)), dtype=np.int64)
        cuts = sorted(data.draw(st.lists(st.integers(0, idx.size), max_size=5)))
        got, _ = pack_chunks(code, np.split(idx, cuts) + [idx[:0]])  # the last chunk is empty
        assert got == pack_symbols(expanded(code, idx), code.codebook.alphabet_size)

    @pytest.mark.parametrize("name", list(PACK_CODES))
    def test_one_codeword_chunks_carry_every_bit_offset(self, name):
        # every offset a multiple of the symbol width can reach: all 64 for D = 2, 5 and 300
        code = pack_code(name)
        idx = np.random.default_rng(1).integers(0, code.num_codewords, size=1000)
        got, carried = pack_chunks(code, np.split(idx, np.arange(1, idx.size)))
        assert set(carried) == set(range(0, 64, math.gcd(64, (code.codebook.alphabet_size - 1).bit_length())))
        assert got == pack_symbols(expanded(code, idx), code.codebook.alphabet_size)
