"""Optimal block-to-block baseline encoder.

The codebook is the full n-fold product alphabet, so the map turns m input
bits into exactly n output symbols; the codeword counts are the kl-optimal
2^m-type quantization of the product distribution.  Serves as the
reference the variable-length scheme is measured against.
"""

from __future__ import annotations

from .codetree import leaf_distribution, product_codebook
from .f2v import ResolutionCode, input_length
from .probdist import Pmf


def build_block_code(p: Pmf, n: int, m: int) -> ResolutionCode:
    """m-bit-to-n-symbol block code over the product codebook.

    The rate is exactly m/n bits per symbol; the divergence is that of the
    optimal 2^m-type quantization of the n-fold product distribution.
    """
    input_length(m)
    return ResolutionCode.quantized("b2b", leaf_distribution(p, product_codebook(p.alphabet_size, n)), m)
