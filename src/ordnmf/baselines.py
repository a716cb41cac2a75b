"""Binary-data baselines expressible as restrictions of the full model.

Bernoulli-link factorization of binarized data is the V = 1, theta_0 = 1
corner of the ordinal model (FitConfig variant "bepof"); plain Poisson
factorization is the same corner with the truncated count posterior
replaced by a point mass at 1 (variant "pf").
"""

import numpy as np

from .data import OrdinalMatrix
from .errors import ConfigError


def binarize(matrix, threshold):
    """Collapse an ordinal matrix to V = 1: keep entries with y >= threshold,
    which must lie in 1..V."""
    if not 1 <= threshold <= matrix.n_classes:
        raise ConfigError(f"binarization threshold {threshold} outside "
                          f"1..{matrix.n_classes}")
    keep = matrix.vals >= threshold
    arrays = [matrix.rows[keep], matrix.cols[keep],
              np.ones(np.count_nonzero(keep), matrix.vals.dtype)]
    for a in arrays:
        a.setflags(write=False)  # in CSR order, so the matrix keeps them
    return OrdinalMatrix(matrix.n_users, matrix.n_items, 1, *arrays)

