"""Binary-data baselines expressible as restrictions of the full model.

Bernoulli-link factorization of binarized data is the V = 1, theta_0 = 1
corner of the ordinal model (FitConfig variant "bepof"); plain Poisson
factorization is the same corner with the truncated count posterior
replaced by a point mass at 1 (variant "pf").
"""

import numpy as np

from .data import OrdinalMatrix
from .errors import ConfigError
from .inference import entry_intensities, local_update


def binarize(matrix, threshold):
    """Collapse an ordinal matrix to V = 1: keep entries with y >= threshold,
    which must lie in 1..V."""
    if not 1 <= threshold <= matrix.n_classes:
        raise ConfigError(f"binarization threshold {threshold} outside "
                          f"1..{matrix.n_classes}")
    keep = matrix.vals >= threshold
    return OrdinalMatrix(matrix.n_users, matrix.n_items, 1,
                         matrix.rows[keep], matrix.cols[keep],
                         [1] * int(keep.sum()))


def count_approximation_gap(state, data):
    """Max |E[n] - 1| over non-zeros when the truncated-count mean is
    re-evaluated exactly; a posteriori check of the point-mass shortcut."""
    stats = local_update(state, data, entry_intensities(state, data))
    return float(np.abs(stats.e_n - 1.0).max())
