"""Fixed-to-variable resolution codes.

A resolution code parses m fair input bits into an integer u, maps u to a
codeword through contiguous integer ranges in canonical leaf order, and
emits the codeword's index, which expands to its symbols or packs to
their bits.  The codeword distribution is exactly the 2^m-type
quantization of the codebook's target leaf distribution.

Bit order is pinned for reproducibility: each m-bit word is built
most-significant-bit first from consecutive bits, which every bit source
serves packed, MSB-first, as ``take_bits(n) -> (data, skip, count)``: the
count <= n bits (fewer only when the source runs out) from bit skip < 8
of the uint8 bytes data on.  The seeded source serves the big-endian
bytes of 64-bit PCG64 draws.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import mtype, tunstall
from .codetree import Codebook, LeafDistribution
from .probdist import Pmf, TypedPmf, _frozen

# 2^m must stay exact in int64 arithmetic.
MAX_INPUT_BITS = 62

# Most words one generate_stream call of stream() draws; read at each call.
STREAM_CHUNK_WORDS = 1 << 16

# ResolutionCode.guide buckets words by their top min(m, GUIDE_BITS) bits (<= 4 MB); read when it is built.
GUIDE_BITS = 20


@dataclass(frozen=True, eq=False)
class ResolutionCode:
    """A built resolution code: a target leaf distribution and its 2^m-type codeword counts.

    ``cum``, built on first use, holds the cumulative count offsets, so
    input integers [cum[i], cum[i+1]) map to codeword i.  ``n_bits`` is
    log2(N), and ``q_bits = m - log2(N)`` is the excess input length that
    drives the divergence to zero.
    """

    scheme: str
    m: int
    target: LeafDistribution
    counts: TypedPmf

    @property
    def n_bits(self) -> float:
        return math.log2(self.num_codewords)

    @property
    def q_bits(self) -> float:
        return self.m - math.log2(self.num_codewords)

    @cached_property
    def cum(self) -> np.ndarray:
        return _frozen(np.concatenate(([0], np.cumsum(self.counts.counts, dtype=np.int64))))

    @property
    def codebook(self) -> Codebook:
        return self.target.codebook

    @property
    def num_codewords(self) -> int:
        return len(self.target.codebook)

    @property
    def exp_len(self) -> float:
        """Expected codeword length under the 2^m-type codeword distribution."""
        return float((self.counts.probs() * self.codebook.lengths).sum())

    @cached_property
    def guide(self) -> np.ndarray:
        """Chen and Asau's (1974) guide: per bucket, its first word's codeword, or N - 1 if a boundary splits it."""
        n, shift = self.num_codewords, max(0, self.m - GUIDE_BITS)
        ids = np.arange(n, dtype=np.min_scalar_type(n - 1))
        first = np.repeat(ids, np.diff(-(-self.cum >> shift)))
        first[first != np.repeat(ids, np.diff(self.cum >> shift))] = n - 1
        return _frozen(first)


def build_code(p: Pmf, num_codewords: int, m: int) -> ResolutionCode:
    """Tunstall codebook of the requested size plus 2^m-type codeword counts."""
    m = operator.index(m)
    if not 1 <= m <= MAX_INPUT_BITS:
        raise ValueError(f"input length must be in [1, {MAX_INPUT_BITS}] bits")
    target = tunstall.build_tunstall(p, num_codewords)
    counts = mtype.quantize(target.leaf_probs, 1 << m)
    return ResolutionCode(scheme="f2v", m=m, target=target, counts=counts)


@dataclass(frozen=True, eq=False)
class StreamResult:
    """Generated codeword indices into ``codebook`` plus the bookkeeping an empirical check needs.

    ``symbols``, the codewords' table rows end to end less their padding, and
    ``leaf_counts``, how often each codeword was drawn, are computed when first read.
    """

    codebook: Codebook
    codewords: np.ndarray
    input_bits: int
    output_symbols: int

    @cached_property
    def leaf_counts(self) -> np.ndarray:
        return np.bincount(self.codewords, minlength=len(self.codebook))

    @cached_property
    def symbols(self) -> np.ndarray:
        rows = np.take(self.codebook.table, self.codewords, axis=0)
        return rows[rows < self.codebook.alphabet_size]


class ArrayBitSource:
    """Bit source over a fixed array of 0/1 values (or a '0101' string), packed once."""

    def __init__(self, bits):
        if isinstance(bits, str):
            bits = [int(ch) for ch in bits]
        b = np.asarray(bits)
        if b.ndim != 1 or not np.isin(b, (0, 1)).all():
            raise ValueError("bits must be a 1-d sequence of 0/1 values")
        self._data, self._size = np.packbits(b.astype(np.uint8)), b.size
        self._pos = 0

    def take_bits(self, n: int) -> tuple[np.ndarray, int, int]:
        start, count = self._pos, min(n, self._size - self._pos)
        self._pos += count
        return self._data[start // 8 : (start + count + 7) // 8], start % 8, count


class FileBitSource:
    """Bits of a raw byte file, most-significant bit of each byte first, read as they are taken."""

    def __init__(self, path):
        open(path, "rb").close()  # a missing or unreadable file fails here, by name
        self._path = path
        self._pos = 0

    def take_bits(self, n: int) -> tuple[np.ndarray, int, int]:
        skip = self._pos % 8
        data = np.fromfile(self._path, dtype=np.uint8, count=(skip + n + 7) // 8, offset=self._pos // 8)
        count = min(n, 8 * data.size - skip)
        self._pos += count
        return data, skip, count


class RandomBitSource:
    """Deterministic pseudorandom bits from a seeded PCG64 generator.

    Draws 64-bit values and serves their big-endian bytes; never exhausts.
    """

    def __init__(self, seed: int):
        self._rng = np.random.Generator(np.random.PCG64(seed))
        self._bytes = np.empty(0, dtype=np.uint8)
        self._skip = 0

    def take_bits(self, n: int) -> tuple[np.ndarray, int, int]:
        need = self._skip + n - 8 * self._bytes.size
        if need > 0:
            raw = self._rng.integers(0, 1 << 64, size=(need + 63) // 64, dtype=np.uint64)
            self._bytes = np.concatenate((self._bytes, raw.astype(">u8").view(np.uint8)))
        data, skip, end = self._bytes, self._skip, self._skip + n
        self._bytes, self._skip = data[end // 8 :], end % 8
        return data[: (end + 7) // 8], skip, n


def _take_words(source, count: int, width: int) -> np.ndarray:
    # Eight words span width bytes: word 8g + j starts at bit s % 8 of byte g*width + s // 8, s = skip + j*width.
    # It is the big-endian 64-bit window there, shifted left by that bit offset and filled from the top
    # of the ninth byte when it runs into it (only for width > 56), then shifted right to width bits.
    data, skip, served = source.take_bits(count * width)
    full = served // width
    groups = -(-full // 8)
    packed = np.zeros((groups + 1) * width + 9, dtype=np.uint8)  # a spare group: every view fits
    packed[: data.size] = data
    words = np.empty((groups, 8), dtype=np.uint64)
    for j in range(8):
        byte, shift = divmod(skip + j * width, 8)
        word = np.ndarray(groups, ">u8", packed, byte, (width,)) << shift
        if shift + width > 64:
            word |= np.ndarray(groups, np.uint8, packed, byte + 8, (width,)) >> (8 - shift)
        words[:, j] = word >> (64 - width)
    return words.reshape(-1)[:full].view(np.int64)


def generate_stream(code: ResolutionCode, bits, num_codewords: int) -> StreamResult:
    """Consume m bits per codeword and emit the codewords' indices.

    A source that runs out serves fewer words: then input_bits < k * m,
    and the result holds the whole words it did serve.
    """
    k = operator.index(num_codewords)
    if k < 0:
        raise ValueError("number of codewords must be nonnegative")
    words = _take_words(bits, k, code.m)
    guide = code.guide
    idx = guide[words >> (code.m + 1 - guide.size.bit_length())]
    split = np.flatnonzero(idx == code.num_codewords - 1)  # a bucket that starts in the last codeword ends in it
    idx[split] = np.searchsorted(code.cum, words[split], side="right") - 1
    return StreamResult(
        codebook=code.codebook,
        codewords=idx,
        input_bits=int(words.size) * code.m,
        output_symbols=int(code.codebook.lengths[idx].sum()),  # one k-sized temporary; np.take adds an intp copy of idx
    )


def pack_codewords(code: ResolutionCode, codewords: np.ndarray, word: int, bits: int):
    """The codewords' symbols at ceil(log2 D) bits each, MSB first, after the top ``bits`` (< 64) bits of ``word``.

    Returns the whole 64-bit output words as a big-endian uint64 array,
    then the last, partial word and its bit count (< 64), to pass on with
    the next codewords.  Each piece's head is shifted to its offset in the
    word it starts in; the heads of one word do not overlap, so a running
    sum of the heads, which wraps mod 2^64, gives each word as the sum at
    its last piece less the sum at the word before.  Only that last piece
    can run past the word, and its tail goes into the next.
    """
    values, sizes = code.codebook.pieces
    idx, p = np.asarray(codewords, dtype=np.intp), values.shape[1]
    span = sizes.view(f"V{p}")[:, 0][idx].view(np.uint8)  # one record per codeword; an index out of range raises here
    heads = np.empty(span.size + 1, dtype=np.uint64)  # cell 0 holds the carried word, cell i + 1 piece i
    start = heads.view(np.int64)  # first the bit each piece starts at, then the total
    start[0], start[1:] = bits, span
    total = int(np.cumsum(start, out=start)[-1])
    offset = np.bitwise_and(start[:-1], 63, out=np.empty_like(span), casting="unsafe")
    last = np.flatnonzero(np.add(span, offset, out=span) >= 64) + 1  # the last cell of each whole word
    heads[0] = word
    # "wrap" gathers straight into heads where "raise" would gather into a copy first; span's gather checked the indices
    np.take(values.view(f"V{8 * p}")[:, 0], idx, out=heads[1:].view(f"V{8 * p}"), mode="wrap")
    tails = heads[last] << (64 - offset[last - 1])  # a shift by 64 gives 0
    np.right_shift(heads[1:], offset, out=heads[1:])
    np.cumsum(heads, out=heads)
    out = np.append(heads[last], heads[-1])
    out[1:] -= out[:-1]
    out[1:] |= tails
    return out[:-1].astype(">u8"), int(out[-1]), total % 64


def stream(code: ResolutionCode, bits, min_symbols: int):
    """Yield StreamResult chunks until at least min_symbols symbols are out, or the bits run out.

    Each round draws int(remaining / exp_len) + 1 words in generate_stream calls
    of at most STREAM_CHUNK_WORDS words; the symbols do not depend on that size.
    A short chunk, possibly empty, is the last one: the source ran out.
    """
    min_symbols, total = operator.index(min_symbols), 0
    while total < min_symbols:
        words = int((min_symbols - total) / code.exp_len) + 1
        for start in range(0, words, STREAM_CHUNK_WORDS):
            k = min(STREAM_CHUNK_WORDS, words - start)
            result = generate_stream(code, bits, k)
            total += result.output_symbols
            yield result
            if result.input_bits < k * code.m:
                return
