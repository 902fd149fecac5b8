"""Rate-distortion analysis and optimization for federated model aggregation."""

import logging

__version__ = "0.1.0"

from .model import (  # noqa: F401
    GaussianSourceModel,
    MbtcParams,
    RateBudget,
    SymmetricSourceModel,
    symmetric_covariance,
    validate_psd,
)
from .region import (  # noqa: F401
    cond_mutual_info,
    distortion,
    is_feasible,
    mmse_combiner,
    single_source_rd,
    sum_mutual_info,
)

# Library logging is silent unless the application configures a handler.
logging.getLogger(__name__).addHandler(logging.NullHandler())
