"""Binary-data baselines expressible as restrictions of the full model.

Bernoulli-link factorization of binarized data is the V = 1, theta_0 = 1
corner of the ordinal model; plain Poisson factorization is the same corner
with the truncated count posterior replaced by a point mass at 1.
"""

from dataclasses import replace

from .data import OrdinalMatrix
from .errors import ConfigError


class BinarizationRule:
    """Maps class y to 1[y >= threshold]; entries below threshold vanish."""

    def __init__(self, threshold):
        if threshold < 1:
            raise ConfigError("binarization threshold must be >= 1")
        self.threshold = int(threshold)

    def validate_for(self, matrix):
        if self.threshold > matrix.n_classes:
            raise ConfigError(
                f"binarization threshold {self.threshold} exceeds "
                f"V = {matrix.n_classes}")


def binarize(matrix, rule):
    """Collapse an ordinal matrix to V = 1: keep entries with y >= threshold."""
    rule.validate_for(matrix)
    keep = matrix.vals >= rule.threshold
    return OrdinalMatrix(matrix.n_users, matrix.n_items, 1,
                         matrix.rows[keep], matrix.cols[keep],
                         [1] * int(keep.sum()))


def make_bepof_config(base):
    """Bernoulli-link configuration: V = 1, theta_0 = 1, frozen thresholds."""
    return replace(base, bepof_mode=True, learn_thresholds=False,
                   pf_approximation=False)


def make_pf_config(base):
    """Poisson-factorization configuration: Bernoulli-link corner plus the
    point-mass count approximation."""
    return replace(make_bepof_config(base), pf_approximation=True)


def count_approximation_gap(state, data):
    """Max |E[n] - 1| over non-zeros when the truncated-count mean is
    re-evaluated exactly; a posteriori check of the point-mass shortcut."""
    import numpy as np

    from .inference import entry_dot, local_update

    lam_big = entry_dot(state.W.geo_mean, state.H.geo_mean, data.rows, data.cols)
    stats = local_update(state, data, lam_big, pf_approximation=False)
    return float(np.abs(stats.e_n - 1.0).max())
