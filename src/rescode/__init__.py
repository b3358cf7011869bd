"""rescode: resolution coding for finite target distributions.

Build fixed-to-variable resolution codes that turn fair random bits into
symbol streams approximating a target memoryless source, quantify how
well they do it, and compare against the optimal block-to-block baseline.
"""

from .probdist import (
    Pmf,
    TypedPmf,
    entropy,
    kl_divergence,
    kl_tv_bound,
    min_type_order,
    variational_distance,
)
from .codetree import (
    Codebook,
    CodebookError,
    LeafDistribution,
    leaf_distribution,
    product_codebook,
    validate_complete,
)
from .tunstall import build_tunstall, round_size_down
from .mtype import quantize
from .f2v import (
    ArrayBitSource,
    FileBitSource,
    RandomBitSource,
    ResolutionCode,
    StreamResult,
    build_code,
    generate_stream,
    pack_codewords,
    stream,
)
from .block import build_block_code
from .metrics import (
    BoundCheck,
    RateReport,
    bound_suite,
    convergence_probe,
    rate_report,
)

__version__ = "0.1.0"
