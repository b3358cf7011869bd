import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rescode import (
    Codebook,
    CodebookError,
    Pmf,
    build_tunstall,
    leaf_distribution,
    product_codebook,
    validate_complete,
)
from references import flat_codebook, loop_leaf_probs, paths, tuple_validate_complete


def chain(depth: int, d: int) -> list:
    """A complete D-ary leaf set branching off the all-zero path of the given depth.

    In sorted order, neighbours first differ at every depth from depth - 1 up to 0.
    """
    return [(0,) * j + (a,) for j in range(depth - 1) for a in range(1, d)] + [(0,) * (depth - 1) + (a,) for a in range(d)]


class TestValidateComplete:
    def test_valid_binary(self):
        cb = validate_complete(flat_codebook([(0, 0), (0, 1), (1,)], 2))
        assert paths(cb) == ((0, 0), (0, 1), (1,))
        assert cb.leaves == paths(cb)  # the benchmark's oracle reads leaves
        assert len(cb) == 3

    def test_prefix_violation(self):
        with pytest.raises(CodebookError, match=r"^leaf \(0,\) is a prefix of leaf \(0, 1\)$"):
            validate_complete(flat_codebook([(0,), (0, 1)], 2))

    def test_incomplete_reports_exact_deficit(self):
        with pytest.raises(CodebookError) as exc:
            validate_complete(flat_codebook([(0,)], 2))
        assert str(exc.value) == f"Kraft sum differs from 1 by exact deficit {Fraction(1, 2)}"

    def test_duplicate(self):
        with pytest.raises(CodebookError, match=r"^duplicate leaf \(0,\)$"):
            validate_complete(flat_codebook([(0,), (0,), (1,)], 2))

    def test_symbol_out_of_range(self):
        # a field of ceil(log2 D) bits holds values up to 2^width - 1, at or above D unless D is a power of two
        for d, leaves in [(3, [(0,), (1,), (3,)]), (5, [(0,), (1,), (2,), (3,), (4, 7)])]:
            with pytest.raises(ValueError, match=rf"outside \[0, {d}\)"):
                validate_complete(flat_codebook(leaves, d))

    def test_negative_symbol(self):
        # signed pieces would shift their sign bit in as they are unpacked
        book = Codebook(alphabet_size=2, codes=np.array([[0], [-(1 << 63)]]), lengths=np.array([1, 1]))
        with pytest.raises(ValueError, match="uint64"):
            validate_complete(book)

    def test_codes_wider_than_longest_leaf(self):
        # the stream's pieces would carry a piece that no leaf reaches
        codes = np.array([[0, 0], [1 << 63, 0]], dtype=np.uint64)
        book = Codebook(alphabet_size=2, codes=codes, lengths=np.array([1, 1]))
        with pytest.raises(ValueError, match="codes shape"):
            validate_complete(book)

    def test_piece_major_codes(self):
        # the transpose, [pieces, N]: each reader takes leaf i's pieces from row i
        book = flat_codebook(chain(100, 2), 2)
        codes = np.ascontiguousarray(book.codes.T)
        with pytest.raises(ValueError, match=r"^codes shape \(2, 101\) is not \(N, pieces\) = \(101, 2\)$"):
            validate_complete(Codebook(alphabet_size=2, codes=codes, lengths=book.lengths))

    def test_float_codes(self):
        book = Codebook(alphabet_size=2, codes=np.array([[0.0], [1.0]]), lengths=np.array([1, 1]))
        with pytest.raises(ValueError, match="uint64"):
            validate_complete(book)

    def test_float_lengths(self):
        codes = np.array([[0], [1 << 63]], dtype=np.uint64)
        book = Codebook(alphabet_size=2, codes=codes, lengths=np.array([1.0, 1.0]))
        with pytest.raises(ValueError, match="integer arrays"):
            validate_complete(book)

    # chain(100, 2)'s leaves in order are 0^100, 0^99 1, then 0^(100-k) 1 at row k: row 37 is 64 bits long
    @pytest.mark.parametrize("row, piece, bit", [(-1, 0, 1), (-1, 1, 63), (0, 1, 36), (37, 1, 0)])
    def test_bits_past_a_leafs_end(self, row, piece, bit):
        book = flat_codebook(chain(100, 2), 2)
        codes, row = book.codes.copy(), row % len(book)
        codes[row, piece] |= np.uint64(1 << 63 - bit)  # bit 0 is the piece's most significant
        with pytest.raises(ValueError, match=f"^code {row} has bits set past its leaf's end$"):
            validate_complete(Codebook(alphabet_size=2, codes=codes, lengths=book.lengths))

    def test_ternary(self):
        cb = validate_complete(flat_codebook([(0,), (1,), (2, 0), (2, 1), (2, 2)], 3))
        assert len(cb) == 5


@pytest.fixture(scope="module")
def skewed_book():
    """4096 leaves up to 4095 symbols long: a 16.8 MB table, compared in blocks of 256 rows."""
    return build_tunstall(Pmf([0.999, 0.001]), 1 << 12).codebook


class TestValidateSkewedCodebook:
    def test_peak_memory_well_under_the_table(self, skewed_book):
        tracemalloc.start()
        try:
            validate_complete(skewed_book)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < skewed_book.table.nbytes / 8

    def test_finds_a_duplicate_past_the_first_block(self, skewed_book):
        codes, lengths = skewed_book.codes.copy(), skewed_book.lengths.copy()
        codes[3001], lengths[3001] = codes[3000], lengths[3000]
        with pytest.raises(CodebookError) as exc:
            validate_complete(Codebook(alphabet_size=2, codes=codes, lengths=lengths))
        assert str(exc.value) == f"duplicate leaf {paths(skewed_book)[3000]}"


@st.composite
def mutated_leaf_sets(draw):
    """A complete D-ary leaf set grown by random splits, then mutated one to three times.

    It may start from a deep chain, so that some leaves cross a 64-bit piece
    boundary (D = 5 packs 3-bit fields, and one straddles the boundary).
    """
    d = draw(st.integers(min_value=2, max_value=5))
    leaves = chain(draw(st.one_of(st.just(1), st.integers(min_value=20, max_value=70))), d)
    for _ in range(draw(st.integers(min_value=0, max_value=30))):
        x = leaves.pop(draw(st.integers(min_value=0, max_value=len(leaves) - 1)))
        leaves.extend(x + (a,) for a in range(d))
    for kind in draw(st.lists(st.sampled_from(["drop", "duplicate", "split", "prefix"]), min_size=1, max_size=3)):
        if not leaves:
            break
        i = draw(st.integers(min_value=0, max_value=len(leaves) - 1))
        x = leaves[i]
        if kind == "drop":
            del leaves[i]
        elif kind == "duplicate":
            leaves.append(x)
        elif kind == "split":  # some of its children, never all
            kept = draw(st.sets(st.integers(min_value=0, max_value=d - 1), min_size=1, max_size=d - 1))
            leaves[i : i + 1] = [x + (a,) for a in sorted(kept)]
        elif len(x) > 1:
            leaves.append(x[: draw(st.integers(min_value=1, max_value=len(x) - 1))])
        else:
            leaves.append(x + (0,))
    return d, leaves


def outcome(check, *args):
    try:
        return check(*args), None
    except ValueError as exc:
        return None, exc


def assert_same_verdict(d, leaves):
    ref, ref_error = outcome(tuple_validate_complete, leaves, d)
    book, error = outcome(validate_complete, flat_codebook(leaves, d))
    assert type(error) is type(ref_error), (leaves, error, ref_error)
    if isinstance(ref_error, CodebookError):  # the same defect: duplicate, prefix pair or exact deficit
        assert str(error) == str(ref_error)
    if ref_error is None:
        assert paths(book) == ref


class TestAgainstTupleReference:
    @settings(max_examples=100)
    @given(mutated_leaf_sets())
    def test_same_verdict_as_tuple_check(self, instance):
        assert_same_verdict(*instance)

    # Chain neighbours first differ at each depth.  For D = 2 at depth 128 that is
    # bit 63 of piece 0, bit 0 of piece 1 and the lowest bit of the full piece 1;
    # D = 3 puts symbol 32 at bit 0 of piece 1, and D = 5 splits symbol 21 over both.
    @pytest.mark.parametrize("d, depth", [(2, 64), (2, 65), (2, 128), (3, 33), (5, 22)])
    @pytest.mark.parametrize("defect", ["none", "prefix", "duplicate", "drop"])
    def test_deep_chains_across_piece_boundaries(self, d, depth, defect):
        leaves, bottom = chain(depth, d), (0,) * (depth - 1)
        if defect == "prefix":  # the bottom node's first child becomes the node itself
            leaves[leaves.index(bottom + (0,))] = bottom
        elif defect == "duplicate":
            leaves.append(bottom + (1,))
        elif defect == "drop":
            leaves.remove(bottom + (d - 1,))
        assert_same_verdict(d, leaves)

    def test_codebook_rows_out_of_order(self):
        # chain(128, 2)'s rows k and k + 1 first differ at bit 127 - k: in piece 1 up to row 63
        book = flat_codebook(chain(128, 2), 2)
        for row in (0, 62, 63, 64, 127):
            order = np.arange(len(book))
            order[[row, row + 1]] = row + 1, row
            with pytest.raises(CodebookError) as exc:
                validate_complete(Codebook(alphabet_size=2, codes=book.codes[order], lengths=book.lengths[order]))
            assert str(exc.value) == f"leaf {paths(book)[row + 1]} sorts after leaf {paths(book)[row]}"


class TestLeafDistribution:
    def test_hand_products(self):
        p = Pmf([0.8, 0.2])
        ld = leaf_distribution(p, validate_complete(flat_codebook([(0, 0), (0, 1), (1,)], 2)))
        assert ld.leaf_probs == pytest.approx([0.64, 0.16, 0.2], abs=1e-15)
        assert ld.expected_len == pytest.approx(1.8, abs=1e-12)

    def test_uniform_depth2(self):
        ld = leaf_distribution(Pmf([0.5, 0.5]), product_codebook(2, 2))
        assert ld.leaf_probs == pytest.approx([0.25] * 4, abs=1e-15)
        assert ld.expected_len == pytest.approx(2.0, abs=1e-12)

    def test_identity_codebook(self):
        ld = leaf_distribution(Pmf([0.211, 0.789]), validate_complete(flat_codebook([(0,), (1,)], 2)))
        assert ld.leaf_probs == pytest.approx([0.211, 0.789], abs=1e-15)
        assert ld.expected_len == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize(
        "probs, codebook",
        [
            ((0.211, 0.789), product_codebook(2, 16)),
            ((0.3, 0.2, 0.5), product_codebook(3, 7)),
            ((0.211, 0.789), build_tunstall(Pmf([0.211, 0.789]), 3072).codebook),
        ],
    )
    def test_bit_identical_to_the_per_leaf_fold(self, probs, codebook):
        p = Pmf(list(probs))
        assert np.array_equal(leaf_distribution(p, codebook).leaf_probs, loop_leaf_probs(p.probs, paths(codebook)))

    def test_keeps_its_branching_law(self):
        p = Pmf([0.8, 0.2])
        assert leaf_distribution(p, product_codebook(2, 2)).p is p
        assert build_tunstall(p, 5).p is p

    def test_alphabet_mismatch(self):
        with pytest.raises(ValueError):
            leaf_distribution(Pmf([0.5, 0.3, 0.2]), product_codebook(2, 2))

    def test_zero_probability_symbol_rejected(self):
        with pytest.raises(ValueError):
            leaf_distribution(Pmf([1.0, 0.0]), product_codebook(2, 2))

    def test_random_split_trees_sum_to_one(self):
        # grow trees by random leaf splits; completeness is preserved
        rng = np.random.default_rng(7)
        for _ in range(50):
            d = int(rng.integers(2, 4))
            leaves = [(a,) for a in range(d)]
            for _ in range(int(rng.integers(0, 40))):
                i = int(rng.integers(0, len(leaves)))
                path = leaves.pop(i)
                leaves.extend(path + (a,) for a in range(d))
            cb = validate_complete(flat_codebook(leaves, d))
            probs = rng.dirichlet(np.ones(d)) * 0.9 + 0.1 / d
            ld = leaf_distribution(Pmf(probs / probs.sum()), cb)
            assert ld.leaf_probs.sum() == pytest.approx(1.0, abs=1e-9)
            assert ld.expected_len >= 1.0


class TestProductCodebook:
    def test_depth2_binary(self):
        assert paths(product_codebook(2, 2)) == ((0, 0), (0, 1), (1, 0), (1, 1))

    def test_ternary_depth1(self):
        assert paths(product_codebook(3, 1)) == ((0,), (1,), (2,))

    def test_depth12(self):
        cb = product_codebook(2, 12)
        assert len(cb) == 4096 and cb.codes.shape == (4096, 1) and cb.codes.flags.c_contiguous
        assert all(len(x) == 12 for x in paths(cb))

    def test_size_cap(self):
        with pytest.raises(ValueError):
            product_codebook(2, 21)

    def test_matches_product_distribution(self):
        p = Pmf([0.3, 0.2, 0.5])
        ld = leaf_distribution(p, product_codebook(3, 4))
        expected = np.ones(1)
        for _ in range(4):
            expected = np.kron(expected, p.probs)
        assert np.max(np.abs(ld.leaf_probs - expected)) < 1e-12
