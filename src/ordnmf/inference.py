"""Coordinate-ascent variational inference for the ordinal factor model.

Factors w_uk ~ Gamma(alpha_w, beta_w_u) and h_ik ~ Gamma(alpha_h, beta_h_i)
get factorized gamma posteriors.  Each non-zero entry is augmented with a
zero-truncated Poisson count n_ui (intensity Lambda_ui * delta_{y_ui}) and a
multinomial allocation c_ui of that count over components; zero entries
contribute n = 0, c = 0 and are never enumerated, so every update touches
only the stored entries.

One iteration runs: local (n, c) statistics -> user factors -> item factors
-> entry intensities (reused by the next local step) -> thresholds -> rate
hyperparameters -> ELBO.  The ELBO is exact for this
variational family and must be non-decreasing; a decrease beyond roundoff
raises NumericalError since it indicates an update bug.
"""

import json
import zipfile
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse, special

from .errors import ConfigError, DataError, NumericalError
from .model import ThresholdSequence, log1mexp

_STATE_VERSION = 1
# Decrement given to a class absent from the train data.
DELTA_FLOOR = 1e-10
VARIANTS = ("ordinal", "bepof", "pf")
# Cells per dense float64 temporary (~16 MB): bounds the per-entry gathers
# of entry_dot and the score blocks of evaluation.score_blocks.
BLOCK_CELLS = 1 << 21


def ztp_mean(x):
    """Mean of a zero-truncated Poisson with intensity x: x / (1 - e^{-x}).

    Always >= 1; tends to 1 as x -> 0 and to x as x -> infinity.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0):
        raise ValueError("ztp_mean requires x > 0")
    out = x / -np.expm1(-x)
    return float(out) if out.ndim == 0 else out


class GammaVariationalMatrix:
    """Entrywise gamma posterior over a factor matrix.

    Caches the per-entry mean E = shape/rate, the geometric mean
    G = exp(digamma(shape))/rate (so log G = E[log .]), and the column sums
    of E, which the opposite side's updates consume.
    """

    def __init__(self, shape, rate):
        self.set(shape, rate)

    def set(self, shape, rate):
        shape = np.asarray(shape, dtype=float)
        rate = np.asarray(rate, dtype=float)
        if np.any(shape <= 0) or np.any(rate <= 0):
            raise NumericalError("gamma variational parameters must be positive")
        self.shape = shape
        self.rate = rate
        self.mean = shape / rate
        self.geo_mean = np.exp(special.digamma(shape)) / rate
        self.mean_colsum = self.mean.sum(axis=0)

    @property
    def n_rows(self):
        return self.shape.shape[0]

    @property
    def n_components(self):
        return self.shape.shape[1]

    def mean_log(self):
        return special.digamma(self.shape) - np.log(self.rate)


@dataclass
class FitConfig:
    """Knobs for a single fit.  variant "ordinal" learns the thresholds;
    "bepof" (Bernoulli link) and "pf" (Poisson factorization: point-mass
    counts) fit binary data (V = 1) with theta_0 = 1 frozen."""

    n_components: int
    alpha_w: float = 0.3
    alpha_h: float = 0.3
    tol: float = 1e-5
    max_iter: int = 500
    seed: int = 0
    variant: str = "ordinal"

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ConfigError(f"variant {self.variant!r} not in {VARIANTS}")
        if self.n_components < 1:
            raise ConfigError("n_components must be >= 1")
        if self.alpha_w <= 0 or self.alpha_h <= 0:
            raise ConfigError("prior shapes must be positive")
        if self.tol <= 0:
            raise ConfigError("tol must be positive")
        if self.max_iter < 1:
            raise ConfigError("max_iter must be >= 1")


@dataclass
class VariationalState:
    """Complete fitted model: both factor posteriors, thresholds, rates."""

    W: GammaVariationalMatrix
    H: GammaVariationalMatrix
    thresholds: ThresholdSequence
    beta_w: np.ndarray
    beta_h: np.ndarray
    alpha_w: float
    alpha_h: float

    @property
    def n_users(self):
        return self.W.n_rows

    @property
    def n_items(self):
        return self.H.n_rows

    @property
    def n_components(self):
        return self.W.n_components

    @property
    def n_classes(self):
        return self.thresholds.n_classes


@dataclass
class FitResult:
    state: VariationalState
    elbo_trace: np.ndarray
    iterations: int
    converged: bool
    floored_classes: list = field(default_factory=list)


@dataclass
class LocalStats:
    """Per-entry and aggregated statistics from one local sweep."""

    e_n: np.ndarray            # E[n_ui] per non-zero entry
    cw: np.ndarray             # sum_i E[c_uik], shape (U, K)
    ch: np.ndarray             # sum_u E[c_uik], shape (I, K)


def entry_dot(A, B, rows, cols):
    """sum_k A[rows, k] * B[cols, k]: entries (rows, cols) of A B^T.

    Gathers BLOCK_CELLS cells of A and B at a time, so extra memory does
    not grow with len(rows) * K; each entry's sum is the same as in one
    call over all entries.
    """
    out = np.empty(len(rows), dtype=np.result_type(A, B))
    step = max(1, BLOCK_CELLS // A.shape[1])
    for start in range(0, out.size, step):
        block = slice(start, start + step)
        out[block] = np.einsum("jk,jk->j", A[rows[block]], B[cols[block]])
    return out


def entry_intensities(state, data):
    """(Lambda, E[lambda]) at data's non-zeros: sum_k G_w G_h (geometric
    means) and sum_k E[w_uk] E[h_ik].  Both depend only on the factors."""
    return (entry_dot(state.W.geo_mean, state.H.geo_mean, data.rows, data.cols),
            entry_dot(state.W.mean, state.H.mean, data.rows, data.cols))


def _entry_csr(data, values):
    """CSR matrix over the data's sparsity pattern with the given entry data."""
    return sparse.csr_matrix(
        (values, data.cols, data.indptr),
        shape=(data.n_users, data.n_items))


def init_thresholds(data):
    """Initial decrements proportional to freq(y = l) / freq(y <= l),
    rescaled so theta_0 = 1.  Mirrors the threshold update at a flat start."""
    v_counts = data.class_counts.astype(float)
    n_cells = float(data.n_users) * float(data.n_items)
    at_most = n_cells - data.nnz + np.cumsum(v_counts)
    delta = v_counts / at_most
    delta = np.maximum(delta, DELTA_FLOOR)
    delta /= delta.sum()
    return ThresholdSequence.from_delta(delta)


def init_state(config, data):
    """Deterministic (per seed) starting point for the CAVI loop."""
    if data.nnz == 0:
        raise DataError("cannot fit an empty matrix")
    if config.variant != "ordinal" and data.n_classes != 1:
        raise ConfigError(f"variant {config.variant!r} needs binary data "
                          f"(V = 1), got V = {data.n_classes}")
    rng = np.random.default_rng(config.seed)
    U, I, K = data.n_users, data.n_items, config.n_components
    # target factor magnitudes ~ sqrt(mean nnz per row / K)
    t_w = np.sqrt(max(data.nnz / U, 1e-8) / K)
    t_h = np.sqrt(max(data.nnz / I, 1e-8) / K)
    shape_w = config.alpha_w * (1.0 + 0.01 * rng.random((U, K)))
    shape_h = config.alpha_h * (1.0 + 0.01 * rng.random((I, K)))
    W = GammaVariationalMatrix(shape_w, shape_w / t_w)
    H = GammaVariationalMatrix(shape_h, shape_h / t_h)
    return VariationalState(
        W=W, H=H,
        thresholds=init_thresholds(data),
        beta_w=np.full(U, config.alpha_w / t_w),
        beta_h=np.full(I, config.alpha_h / t_h),
        alpha_w=config.alpha_w, alpha_h=config.alpha_h)


def local_update(state, data, lam_big, point_mass=False):
    """E-step over the non-zero entries.

    Lambda_uik = G_w[u,k] * G_h[i,k] (exp of expected logs), and lam_big
    holds Lambda_ui = sum_k Lambda_uik; n_ui has mean ztp_mean(Lambda_ui *
    delta_y) (or exactly 1 under the point-mass approximation); c allocates
    n proportionally to Lambda_uik.  Returns the per-(u,k) and per-(i,k)
    allocation totals.
    """
    if not np.all(np.isfinite(lam_big)):
        j = int(np.flatnonzero(~np.isfinite(lam_big))[0])
        raise NumericalError(
            f"non-finite intensity at (u={data.rows[j]}, i={data.cols[j]})")
    if point_mass:
        e_n = np.ones_like(lam_big)
    else:
        delta_y = state.thresholds.delta[data.vals - 1]
        e_n = ztp_mean(lam_big * delta_y)
    # sum_i E[c_uik] = G_w[u,k] * sum_i (E[n]/Lambda) G_h[i,k]; ditto for items
    GW, GH = state.W.geo_mean, state.H.geo_mean
    ratio = _entry_csr(data, e_n / lam_big)
    cw = GW * (ratio @ GH)
    ch = GH * (ratio.T @ GW)
    return LocalStats(e_n=e_n, cw=cw, ch=ch)


def _rate_correction(data, exposures, theta0, other_mean, transpose=False):
    """sum over non-zeros of (exposure(y) - theta_0) * E[other factor].

    Exposure equals theta_0 at y = 0, so the full sum over all cells splits
    into a dense theta_0 * colsum term plus this sparse correction.
    """
    weights = exposures - theta0
    mat = _entry_csr(data, weights)
    return (mat.T @ other_mean) if transpose else (mat @ other_mean)


def update_user_factors(state, data, stats):
    """shape = alpha_w + sum_i E[c_uik]; rate = beta_w_u + sum_i T_y E[h_ik]."""
    theta0 = state.thresholds.theta[0]
    exposures = state.thresholds.exposure(data.vals)
    rate = (state.beta_w[:, None]
            + theta0 * state.H.mean_colsum[None, :]
            + _rate_correction(data, exposures, theta0, state.H.mean))
    state.W.set(state.alpha_w + stats.cw, rate)


def update_item_factors(state, data, stats):
    """Mirror of the user update with the roles of the axes swapped."""
    theta0 = state.thresholds.theta[0]
    exposures = state.thresholds.exposure(data.vals)
    rate = (state.beta_h[:, None]
            + theta0 * state.W.mean_colsum[None, :]
            + _rate_correction(data, exposures, theta0, state.W.mean,
                               transpose=True))
    state.H.set(state.alpha_h + stats.ch, rate)


def total_expected_lambda(state):
    """sum over all U x I cells of E[lambda_ui], in O(K)."""
    return float(state.W.mean_colsum @ state.H.mean_colsum)


def update_thresholds(state, data, stats, e_lam):
    """Point-estimate update of the decrements; e_lam is E[lambda] per entry.

    delta_l = (sum over entries with y = l of E[n]) /
              (sum over cells with y <= l of E[lambda]).

    The denominator is the all-cells total minus a suffix sum over classes
    above l, so only non-zeros are touched.  Classes absent from the data
    get DELTA_FLOOR.  Returns the new sequence and the list of floored
    classes.
    """
    V = data.n_classes
    num = np.bincount(data.vals, weights=stats.e_n, minlength=V + 1)[1:]
    lam_by_class = np.bincount(data.vals, weights=e_lam, minlength=V + 1)[1:]
    # above[l-1] = sum of E[lambda] over entries with y > l
    above = np.concatenate((np.cumsum(lam_by_class[::-1])[::-1][1:], [0.0]))
    den = total_expected_lambda(state) - above
    ok = num > 0
    delta = np.full(V, DELTA_FLOOR)
    delta[ok] = num[ok] / den[ok]
    floored = [int(1 + f) for f in np.flatnonzero(~ok)]
    return ThresholdSequence.from_delta(delta), floored


def update_rate_hyperparams(state):
    """Empirical-Bayes rates: beta_u = K * alpha / sum_k E[w_uk].

    Closed-form maximizer of the expected gamma prior term in beta.
    """
    sum_w = state.W.mean.sum(axis=1)
    sum_h = state.H.mean.sum(axis=1)
    if np.any(sum_w <= 0) or np.any(sum_h <= 0):
        raise NumericalError("zero factor sum in rate update")
    state.beta_w = state.n_components * state.alpha_w / sum_w
    state.beta_h = state.n_components * state.alpha_h / sum_h


def _gamma_prior_minus_entropy(var, prior_shape, prior_rate):
    """sum over entries of E_q[log p(x; a, b) - log q(x)] in closed form."""
    a_t, b_t = var.shape, var.rate
    e_log = var.mean_log()
    e_x = var.mean
    term = (prior_shape * np.log(prior_rate[:, None]) - special.gammaln(prior_shape)
            + (prior_shape - a_t) * e_log - prior_rate[:, None] * e_x
            - a_t * np.log(b_t) + special.gammaln(a_t) + a_t)
    return float(term.sum())


def compute_elbo(state, data, lam_big, e_lam, point_mass=False):
    """Exact variational objective for the state and its entry intensities.

    Per non-zero entry the augmented-likelihood and local-entropy terms
    collapse to -E[lambda] * theta_{y-1} + x + log(1 - e^{-x}) with
    x = Lambda * delta_y (under the point-mass count approximation the last
    two terms become log x).  Zero cells contribute -E[lambda] * theta_0,
    accumulated as total-minus-nonzero.  Factor terms are closed-form gamma
    cross-entropy minus entropy.
    """
    thr = state.thresholds
    x = lam_big * thr.delta[data.vals - 1]
    if point_mass:
        nonlinear = np.log(x)
    else:
        nonlinear = x + log1mexp(x)
    nz_part = float((-e_lam * thr.exposure(data.vals) + nonlinear).sum())
    zero_part = -thr.theta[0] * (total_expected_lambda(state) - float(e_lam.sum()))
    elbo = (nz_part + zero_part
            + _gamma_prior_minus_entropy(state.W, state.alpha_w, state.beta_w)
            + _gamma_prior_minus_entropy(state.H, state.alpha_h, state.beta_h))
    if not np.isfinite(elbo):
        raise NumericalError("non-finite ELBO")
    return elbo


def fit(data, config):
    """Run the coordinate-ascent loop until the relative ELBO increment
    falls below config.tol or max_iter is reached."""
    state = init_state(config, data)
    point_mass = config.variant == "pf"
    lam_big, e_lam = entry_intensities(state, data)
    prev = compute_elbo(state, data, lam_big, e_lam, point_mass)
    trace = []
    floored = []
    converged = False
    iterations = 0
    for _ in range(config.max_iter):
        stats = local_update(state, data, lam_big, point_mass)
        update_user_factors(state, data, stats)
        update_item_factors(state, data, stats)
        # threshold and rate updates leave W and H, hence these, unchanged
        lam_big, e_lam = entry_intensities(state, data)
        if config.variant == "ordinal":
            state.thresholds, newly_floored = update_thresholds(
                state, data, stats, e_lam)
            for cls in newly_floored:
                if cls not in floored:
                    floored.append(cls)
        update_rate_hyperparams(state)
        elbo = compute_elbo(state, data, lam_big, e_lam, point_mass)
        iterations += 1
        trace.append(elbo)
        if elbo < prev - 1e-8 * abs(prev):
            raise NumericalError(
                f"ELBO decreased at iteration {iterations}: {prev} -> {elbo}")
        if (elbo - prev) < config.tol * abs(prev):
            converged = True
            break
        prev = elbo
    return FitResult(state=state, elbo_trace=np.asarray(trace),
                     iterations=iterations, converged=converged,
                     floored_classes=floored)


def predict_scores(state, user_indices=None):
    """Ranking scores s_ui = sum_k E[w_uk] E[h_ik]; rows of E[W] E[H]^T."""
    EW = state.W.mean
    if user_indices is not None:
        user_indices = np.asarray(user_indices)
        bad = user_indices[(user_indices < 0)
                           | (user_indices >= state.n_users)]
        if bad.size:
            raise ConfigError(f"user index {bad[0]} outside "
                              f"0..{state.n_users - 1}")
        EW = EW[user_indices]
    return EW @ state.H.mean.T


def save_state(path, state, metadata=None):
    """Versioned serialization; loading reproduces scores bit-exactly."""
    np.savez(
        path,
        schema_version=np.int64(_STATE_VERSION),
        theta=state.thresholds.theta,
        w_shape=state.W.shape, w_rate=state.W.rate,
        h_shape=state.H.shape, h_rate=state.H.rate,
        beta_w=state.beta_w, beta_h=state.beta_h,
        alpha_w=np.float64(state.alpha_w), alpha_h=np.float64(state.alpha_h),
        metadata=np.bytes_(json.dumps(metadata or {}).encode()))


def load_state(path):
    """(state, metadata) from a save_state file; DataError naming path for
    any other file, including a truncated or corrupted model."""
    try:
        z = np.load(path)  # ValueError, EOFError: neither .npz nor .npy
        version = int(z["schema_version"])  # KeyError, IndexError: not ours
        with z:
            if version != _STATE_VERSION:
                raise DataError(
                    f"{path}: unsupported model schema version {version}")
            state = VariationalState(
                W=GammaVariationalMatrix(z["w_shape"], z["w_rate"]),
                H=GammaVariationalMatrix(z["h_shape"], z["h_rate"]),
                thresholds=ThresholdSequence(z["theta"]),
                beta_w=z["beta_w"], beta_h=z["beta_h"],
                alpha_w=float(z["alpha_w"]), alpha_h=float(z["alpha_h"]))
            metadata = json.loads(bytes(z["metadata"]).decode())
    except (ValueError, EOFError, zipfile.BadZipFile, KeyError, IndexError,
            NumericalError):
        raise DataError(f"{path}: not a valid ordnmf model file") from None
    return state, metadata
