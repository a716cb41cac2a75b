"""Ordinal non-negative matrix factorization for recommendation."""

from .baselines import binarize
from .data import (
    OrdinalMatrix,
    load_triplets,
    quantize_counts,
    train_test_split,
)
from .errors import (
    ConfigError,
    DataError,
    NumericalError,
    OrdnmfError,
    ParseError,
)
from .evaluation import (
    PPCReport,
    RankingMetricsReport,
    evaluate_ranking,
    log_lik_nonzeros,
    ppc_histogram,
)
from .inference import (
    FitConfig,
    FitResult,
    VariationalState,
    fit,
    load_state,
    save_state,
)
from .model import ThresholdSequence

__version__ = "0.1.0"
