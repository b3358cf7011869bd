"""Optimal block-to-block baseline encoder.

The codebook is the full n-fold product alphabet, so the map turns m input
bits into exactly n output symbols; the codeword counts are the kl-optimal
2^m-type quantization of the product distribution.  Serves as the
reference the variable-length scheme is measured against.
"""

from __future__ import annotations

from . import mtype
from .codetree import leaf_distribution, product_codebook
from .f2v import MAX_INPUT_BITS, ResolutionCode
from .probdist import Pmf


def build_block_code(p: Pmf, n: int, m: int) -> ResolutionCode:
    """m-bit-to-n-symbol block code over the product codebook.

    The rate is exactly m/n bits per symbol; the divergence is that of the
    optimal 2^m-type quantization of the n-fold product distribution.
    """
    m = int(m)
    if not 1 <= m <= MAX_INPUT_BITS:
        raise ValueError(f"input length must be in [1, {MAX_INPUT_BITS}] bits")
    codebook = product_codebook(p.alphabet_size, n)
    target = leaf_distribution(p, codebook)
    counts = mtype.quantize(target.leaf_probs, 1 << m)
    return ResolutionCode(scheme="b2b", m=m, target=target, counts=counts)
