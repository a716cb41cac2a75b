"""Synthetic ordinal matrices drawn from the generative model, for tests.

Builds dense U x I arrays, so it suits only small matrices.
"""

from dataclasses import dataclass

import numpy as np

from ordnmf.data import OrdinalMatrix
from ordnmf.model import ThresholdSequence


@dataclass
class GroundTruth:
    W: np.ndarray
    H: np.ndarray
    thresholds: ThresholdSequence


def generate_dataset(n_users, n_items, n_components, thresholds, rng,
                     alpha_w=0.3, alpha_h=0.3, scale=1.0):
    """Sample factors from their gamma priors and classes cell by cell.

    `scale` multiplies the intensities and controls sparsity: with
    theta_0 = 1, the zero fraction per cell is exp(-scale * lambda).
    Returns the observed matrix plus the generating factors.
    """
    K = n_components
    W = rng.gamma(alpha_w, scale=1.0, size=(n_users, K))
    H = rng.gamma(alpha_h, scale=1.0, size=(n_items, K))
    W *= np.sqrt(scale) / max(W.mean(), 1e-12)
    H *= np.sqrt(scale) / max(H.mean(), 1e-12)
    lam = W @ H.T
    # cells with lambda == 0 are almost surely class 0; skip sampling them
    classes = np.zeros(lam.shape, dtype=np.int64)
    positive = lam > 0
    lam = lam[positive]
    classes[positive] = thresholds.inverse_cdf(lam, exp_draws(rng, lam.shape))
    rows, cols = np.nonzero(classes)
    vals = classes[rows, cols]
    matrix = OrdinalMatrix(n_users, n_items, thresholds.n_classes,
                           rows, cols, vals)
    return matrix, GroundTruth(W=W, H=H, thresholds=thresholds)


def exp_draws(rng, shape):
    """e = -log(u) for uniforms u from rng.random: the draws that
    ThresholdSequence.inverse_cdf turns into classes, as ppc's are."""
    with np.errstate(divide="ignore"):  # u = 0 gives e = +inf
        return -np.log(rng.random(size=shape))


def default_thresholds(n_classes):
    """Geometric-decay decrements normalized so theta_0 = 1."""
    delta = 0.5 ** np.arange(1, n_classes + 1)
    delta /= delta.sum()
    return ThresholdSequence.from_delta(delta)
