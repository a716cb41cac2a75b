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
    ndcg_at_m,
    ppc_histogram,
)
from .inference import (
    FitConfig,
    FitResult,
    GammaVariationalMatrix,
    VariationalState,
    compute_elbo,
    fit,
    init_state,
    load_state,
    predict_scores,
    save_state,
    ztp_mean,
)
from .model import ThresholdSequence, log1mexp
from .synthetic import GroundTruth, default_thresholds, generate_dataset

__version__ = "0.1.0"
