"""Fixed-to-variable resolution codes.

A resolution code parses m fair input bits into an integer u, maps u to a
codeword through contiguous integer ranges in canonical leaf order, and
emits the codeword's symbols.  The codeword distribution is exactly the
2^m-type quantization of the codebook's target leaf distribution.

Bit order is pinned for reproducibility: every bit source serves bits
most-significant-first, and each m-bit word is built most-significant-bit
first from consecutive bits.  The seeded source draws 64-bit values from
a PCG64 generator and serves their bits MSB-first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import mtype, tunstall
from .codetree import Codebook, LeafDistribution
from .probdist import Pmf, TypedPmf, _frozen

__all__ = [
    "MAX_INPUT_BITS",
    "ResolutionCode",
    "StreamResult",
    "BitSourceExhausted",
    "RandomBitSource",
    "ArrayBitSource",
    "FileBitSource",
    "build_code",
    "encode_word",
    "induced_distribution",
    "generate_stream",
]

# 2^m must stay exact in int64 arithmetic.
MAX_INPUT_BITS = 62

# Exhaustive enumeration of all inputs is done up to this input length.
EXHAUSTIVE_BITS = 16


@dataclass(frozen=True, eq=False)
class ResolutionCode:
    """A built resolution code.

    ``counts`` is the 2^m-type codeword distribution; ``cum`` holds the
    cumulative count offsets, so input integers [cum[i], cum[i+1]) map to
    codeword i.  ``q_bits = m - log2(N)`` is the excess input length that
    drives the divergence to zero.
    """

    scheme: str
    m: int
    source: Pmf
    target: LeafDistribution
    counts: TypedPmf
    cum: np.ndarray
    n_bits: float
    q_bits: float

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


def _assemble(scheme: str, p: Pmf, target: LeafDistribution, m: int, counts: TypedPmf) -> ResolutionCode:
    cum = np.concatenate(([0], np.cumsum(counts.counts, dtype=np.int64)))
    n = len(target.codebook)
    return ResolutionCode(
        scheme=scheme,
        m=m,
        source=p,
        target=target,
        counts=counts,
        cum=_frozen(cum),
        n_bits=math.log2(n),
        q_bits=m - math.log2(n),
    )


def build_code(p: Pmf, num_codewords: int, m: int) -> ResolutionCode:
    """Tunstall codebook of the requested size plus 2^m-type codeword counts."""
    m = int(m)
    if not 1 <= m <= MAX_INPUT_BITS:
        raise ValueError(f"input length must be in [1, {MAX_INPUT_BITS}] bits")
    target = tunstall.build_tunstall(p, num_codewords)
    counts = mtype.quantize(target.leaf_probs, 1 << m)
    return _assemble("f2v", p, target, m, counts)


def encode_word(code: ResolutionCode, u: int) -> tuple[int, ...]:
    """Map one m-bit input word (as an integer) to its codeword path."""
    u = int(u)
    if not 0 <= u < (1 << code.m):
        raise ValueError(f"input word {u} outside [0, 2^{code.m})")
    i = int(np.searchsorted(code.cum, u, side="right")) - 1
    return code.codebook.leaves[i]


def induced_distribution(code: ResolutionCode) -> TypedPmf:
    """Distribution of codewords over all 2^m input words, by enumeration.

    Only defined for m up to EXHAUSTIVE_BITS; the result always equals the
    stored counts (the map is built from them).
    """
    if code.m > EXHAUSTIVE_BITS:
        raise ValueError(f"exhaustive enumeration needs m <= {EXHAUSTIVE_BITS}, got m = {code.m}")
    words = np.arange(1 << code.m, dtype=np.int64)
    idx = np.searchsorted(code.cum, words, side="right") - 1
    hist = np.bincount(idx, minlength=code.num_codewords)
    return TypedPmf(1 << code.m, hist)


@dataclass(frozen=True, eq=False)
class StreamResult:
    """Generated symbols plus the bookkeeping an empirical check needs."""

    symbols: np.ndarray
    input_bits: int
    output_symbols: int
    leaf_counts: np.ndarray

    @property
    def empirical_rate(self) -> float:
        return self.input_bits / self.output_symbols


class BitSourceExhausted(RuntimeError):
    """The bit source ran out mid-stream; ``result`` holds what was emitted."""

    def __init__(self, result: StreamResult):
        self.result = result
        super().__init__(
            f"bit source exhausted after {result.output_symbols} symbols "
            f"({result.input_bits} bits consumed)"
        )


class ArrayBitSource:
    """Bit source over a fixed array of 0/1 values (or a '0101' string)."""

    def __init__(self, bits):
        if isinstance(bits, str):
            bits = [int(ch) for ch in bits]
        b = np.asarray(bits, dtype=np.uint8)
        if b.ndim != 1 or np.any(b > 1):
            raise ValueError("bits must be a 1-d sequence of 0/1 values")
        self._bits = b
        self._pos = 0

    def take_bits(self, n: int) -> np.ndarray:
        chunk = self._bits[self._pos : self._pos + n]
        self._pos += len(chunk)
        return chunk


class FileBitSource(ArrayBitSource):
    """Bits of a raw byte file, most-significant bit of each byte first."""

    def __init__(self, path):
        data = np.fromfile(path, dtype=np.uint8)
        super().__init__(np.unpackbits(data))


class RandomBitSource:
    """Deterministic pseudorandom bits from a seeded PCG64 generator.

    Draws 64-bit values and serves their bits MSB-first; never exhausts.
    """

    def __init__(self, seed: int):
        self._rng = np.random.Generator(np.random.PCG64(seed))
        self._buffer = np.empty(0, dtype=np.uint8)

    def take_bits(self, n: int) -> np.ndarray:
        need = n - self._buffer.size
        if need > 0:
            n_words = (need + 63) // 64
            raw = self._rng.integers(0, 1 << 64, size=n_words, dtype=np.uint64)
            fresh = np.unpackbits(raw.astype(">u8").view(np.uint8))
            self._buffer = np.concatenate((self._buffer, fresh))
        out, self._buffer = self._buffer[:n], self._buffer[n:]
        return out


def _take_words(source, count: int, width: int) -> np.ndarray:
    bits = source.take_bits(count * width)
    full = bits.size // width
    words = np.zeros(full, dtype=np.int64)
    for column in bits[: full * width].reshape(full, width).T:
        words <<= 1
        words |= column
    return words


def generate_stream(code: ResolutionCode, bits, num_codewords: int) -> StreamResult:
    """Consume m bits per codeword and emit the concatenated codeword symbols.

    Raises BitSourceExhausted (with the partial result attached) when the
    source cannot supply all requested words.
    """
    k = int(num_codewords)
    if k < 0:
        raise ValueError("number of codewords must be nonnegative")
    words = _take_words(bits, k, code.m)
    idx = np.searchsorted(code.cum, words, side="right") - 1
    table = code.codebook.table
    symbols = table[idx][np.arange(table.shape[1]) < code.codebook.lengths[idx][:, None]]
    result = StreamResult(
        symbols=symbols,
        input_bits=int(words.size) * code.m,
        output_symbols=int(symbols.size),
        leaf_counts=np.bincount(idx, minlength=code.num_codewords),
    )
    if words.size < k:
        raise BitSourceExhausted(result)
    return result
