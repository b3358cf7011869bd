"""rescode: resolution coding for finite target distributions.

Build fixed-to-variable resolution codes that turn fair random bits into
symbol streams approximating a target memoryless source, quantify how
well they do it, and compare against the optimal block-to-block baseline.
"""

from .probdist import (
    Pmf,
    TypedPmf,
    UnboundedRatioError,
    entropy,
    kl_divergence,
    kl_tv_bound,
    min_type_order,
    variational_distance,
)
from .codetree import (
    Codebook,
    CodebookError,
    DuplicateLeafError,
    IncompleteCodebookError,
    LeafDistribution,
    PrefixViolationError,
    leaf_distribution,
    product_codebook,
    validate_complete,
)
from .tunstall import build_tunstall, is_valid_size, round_size_down
from .mtype import quantize
from .f2v import (
    ArrayBitSource,
    FileBitSource,
    RandomBitSource,
    ResolutionCode,
    StreamResult,
    build_code,
    generate_stream,
    stream,
)
from .block import build_block_code
from .metrics import (
    BoundCheck,
    RateReport,
    bound_suite,
    convergence_probe,
    rate_report,
    sqrt_gap_policy,
)

__version__ = "0.1.0"
