"""Coordinate-ascent variational inference for the ordinal factor model.

Factors w_uk ~ Gamma(alpha_w, beta_w_u) and h_ik ~ Gamma(alpha_h, beta_h_i)
get factorized gamma posteriors; each factor carries its prior (alpha and
one rate per row), so each per-side step is written once, for W then H.
Each non-zero entry is augmented with a zero-truncated Poisson count n_ui
(intensity Lambda_ui * delta_{y_ui}) and a multinomial allocation c_ui of
that count over components; zero entries contribute n = 0, c = 0 and are
never enumerated, so every update touches only the stored entries.

One iteration runs: local (n, c) statistics -> factors (users, then items)
-> entry intensities (reused by the next local step) -> thresholds -> rate
hyperparameters -> ELBO.  Lambda_ui (geometric means) is the one per-entry
product of an iteration.  E[lambda_ui] enters only through its per-class sums
S_l, sparse-times-dense products over 0/1 class-indicator matrices whose rows
are the shorter side of the data (items when I < U, users otherwise).  The
ELBO is exact for this variational family and must be non-decreasing; a
decrease beyond roundoff raises NumericalError since it indicates an update
bug.
"""

import json
import zipfile
from dataclasses import dataclass

import numpy as np
from scipy import special

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
    """Entrywise gamma posterior over a factor matrix, with its prior
    x_rk ~ Gamma(alpha, beta_r): one shape alpha, one rate per row.

    Caches the per-entry mean E = shape/rate, the geometric mean
    G = exp(digamma(shape))/rate (so log G = E[log .]), and the column sums
    of E, which the opposite side's updates consume.  ValueError unless
    shape and rate are equal 2-d shapes and beta has one entry per row.
    """

    def __init__(self, shape, rate, alpha, beta):
        self.set(shape, rate)
        self.alpha = float(alpha)
        self.beta = np.asarray(beta, dtype=float)
        if (self.shape.ndim != 2 or self.rate.shape != self.shape.shape
                or self.beta.shape != self.shape.shape[:1]):
            raise ValueError("factor arrays disagree in shape")

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

    def prior_minus_entropy(self):
        """sum of E_q[log p(x; alpha, beta_r) - log q(x)], in closed form."""
        a, b, a_t = self.alpha, self.beta[:, None], self.shape
        e_log = special.digamma(a_t) - np.log(self.rate)
        term = (a * np.log(b) - special.gammaln(a)
                + (a - a_t) * e_log - b * self.mean
                - a_t * np.log(self.rate) + special.gammaln(a_t) + a_t)
        return float(term.sum())


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
    """Complete fitted model: both factors, each with its prior; thresholds."""

    W: GammaVariationalMatrix
    H: GammaVariationalMatrix
    thresholds: ThresholdSequence

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
    converged: bool

    @property
    def iterations(self):
        return len(self.elbo_trace)


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
    """Lambda at data's non-zeros: sum_k G_w G_h (geometric means)."""
    return entry_dot(state.W.geo_mean, state.H.geo_mean, data.rows, data.cols)


def class_indicators(data):
    """(rows_are_items, [Y_1 .. Y_V]): one 0/1 CSR matrix per class l, with
    a 1 at each entry y_ui = l.  Rows are items when I < U and users
    otherwise, so class_sums' temporaries are (shorter side) x K."""
    by_item = data.n_items < data.n_users
    mats = []
    for cls in range(1, data.n_classes + 1):
        Y = data.csr((data.vals == cls).astype(float))
        Y.eliminate_zeros()
        mats.append(Y.T.tocsr() if by_item else Y)
    return by_item, mats


def class_sums(state, indicators):
    """S_l = sum over entries with y = l of E[lambda_ui], for l = 1..V:
    vdot(E[A], Y_l E[B]), A the factor on the indicators' row side."""
    by_item, mats = indicators
    A, B = (state.H, state.W) if by_item else (state.W, state.H)
    return np.array([np.vdot(A.mean, Y @ B.mean) for Y in mats])


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
    K = config.n_components
    factors = []
    for alpha, n_rows in ((config.alpha_w, data.n_users),
                          (config.alpha_h, data.n_items)):
        # target factor magnitude ~ sqrt(mean nnz per row / K)
        t = np.sqrt(max(data.nnz / n_rows, 1e-8) / K)
        shape = alpha * (1.0 + 0.01 * rng.random((n_rows, K)))
        factors.append(GammaVariationalMatrix(shape, shape / t, alpha,
                                              np.full(n_rows, alpha / t)))
    W, H = factors
    return VariationalState(W=W, H=H, thresholds=init_thresholds(data))


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
    ratio = data.csr(e_n / lam_big)
    cw = GW * (ratio @ GH)
    ch = GH * (ratio.T @ GW)
    return LocalStats(e_n=e_n, cw=cw, ch=ch)


def update_factors(state, data, stats):
    """shape = alpha + sum E[c]; rate = beta_r + sum over the row's cells of
    exposure(y) * E[other factor].  Users first, so item rates see the new
    user means.  Exposure is theta_0 at y = 0, so a rate is a dense theta_0
    * colsum term plus a sparse term from one CSR of exposure(y) - theta_0
    over the non-zeros (its transpose for the items)."""
    theta0 = state.thresholds.theta[0]
    weights = data.csr(state.thresholds.exposure(data.vals) - theta0)
    for side, counts, mat, other in ((state.W, stats.cw, weights, state.H),
                                     (state.H, stats.ch, weights.T, state.W)):
        rate = (side.beta[:, None] + theta0 * other.mean_colsum[None, :]
                + mat @ other.mean)
        side.set(side.alpha + counts, rate)


def total_expected_lambda(state):
    """sum over all U x I cells of E[lambda_ui], in O(K)."""
    return float(state.W.mean_colsum @ state.H.mean_colsum)


def update_thresholds(state, data, stats, lam_by_class):
    """Point-estimate update of the decrements; lam_by_class is class_sums.

    delta_l = (sum over entries with y = l of E[n]) /
              (sum over cells with y <= l of E[lambda]).

    The denominator is the all-cells total minus a suffix sum over classes
    above l, so only non-zeros are touched.  Classes absent from the data
    get DELTA_FLOOR.  Returns the new sequence and the list of floored
    classes.
    """
    V = data.n_classes
    num = np.bincount(data.vals, weights=stats.e_n, minlength=V + 1)[1:]
    # above[l-1] = sum of E[lambda] over entries with y > l
    above = np.concatenate((np.cumsum(lam_by_class[::-1])[::-1][1:], [0.0]))
    den = total_expected_lambda(state) - above
    ok = num > 0
    delta = np.full(V, DELTA_FLOOR)
    delta[ok] = num[ok] / den[ok]
    floored = [int(1 + f) for f in np.flatnonzero(~ok)]
    return ThresholdSequence.from_delta(delta), floored


def update_rate_hyperparams(state):
    """Empirical-Bayes rates: beta_r = K * alpha / sum_k E[x_rk], W then H.

    Closed-form maximizer of the expected gamma prior term in beta.
    """
    for factor in (state.W, state.H):
        row_sum = factor.mean.sum(axis=1)
        if np.any(row_sum <= 0):
            raise NumericalError("zero factor sum in rate update")
        factor.beta = state.n_components * factor.alpha / row_sum


def compute_elbo(state, data, lam_big, lam_by_class, point_mass=False):
    """Exact variational objective for the state, its entry intensities
    Lambda and its class sums of E[lambda] (class_sums).

    Per non-zero entry the augmented-likelihood and local-entropy terms
    collapse to -E[lambda] * theta_{y-1} + x + log(1 - e^{-x}) with
    x = Lambda * delta_y (under the point-mass count approximation the last
    two terms become log x); the first term is linear in E[lambda], so it
    sums per class.  Zero cells contribute -E[lambda] * theta_0,
    accumulated as total-minus-nonzero.  Factor terms are closed-form gamma
    cross-entropy minus entropy.
    """
    thr = state.thresholds
    x = lam_big * thr.delta[data.vals - 1]
    if point_mass:
        nonlinear = np.log(x)
    else:
        nonlinear = x + log1mexp(x)
    exposures = thr.exposure(np.arange(1, thr.n_classes + 1))
    nz_part = float(nonlinear.sum() - lam_by_class @ exposures)
    zero_part = -thr.theta[0] * (total_expected_lambda(state)
                                 - float(lam_by_class.sum()))
    elbo = (nz_part + zero_part + state.W.prior_minus_entropy()
            + state.H.prior_minus_entropy())
    if not np.isfinite(elbo):
        raise NumericalError("non-finite ELBO")
    return elbo


def fit(data, config):
    """Run the coordinate-ascent loop until the relative ELBO increment
    falls below config.tol or max_iter is reached."""
    state = init_state(config, data)
    point_mass = config.variant == "pf"
    indicators = class_indicators(data)
    lam_big = entry_intensities(state, data)
    prev = compute_elbo(state, data, lam_big, class_sums(state, indicators),
                        point_mass)
    trace = []
    converged = False
    for _ in range(config.max_iter):
        stats = local_update(state, data, lam_big, point_mass)
        update_factors(state, data, stats)
        # threshold and rate updates leave W and H, hence these, unchanged
        lam_big = entry_intensities(state, data)
        lam_by_class = class_sums(state, indicators)
        if config.variant == "ordinal":
            state.thresholds, _ = update_thresholds(state, data, stats,
                                                    lam_by_class)
        update_rate_hyperparams(state)
        elbo = compute_elbo(state, data, lam_big, lam_by_class, point_mass)
        trace.append(elbo)
        if elbo < prev - 1e-8 * abs(prev):
            raise NumericalError(
                f"ELBO decreased at iteration {len(trace)}: {prev} -> {elbo}")
        if (elbo - prev) < config.tol * abs(prev):
            converged = True
            break
        prev = elbo
    return FitResult(state=state, elbo_trace=np.asarray(trace),
                     converged=converged)


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
        beta_w=state.W.beta, beta_h=state.H.beta,
        alpha_w=np.float64(state.W.alpha), alpha_h=np.float64(state.H.alpha),
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
            # each factor's constructor checks its own shapes
            W = GammaVariationalMatrix(z["w_shape"], z["w_rate"],
                                       z["alpha_w"], z["beta_w"])
            H = GammaVariationalMatrix(z["h_shape"], z["h_rate"],
                                       z["alpha_h"], z["beta_h"])
            if H.n_components != W.n_components:
                raise ValueError("factors disagree in K")
            state = VariationalState(W=W, H=H,
                                     thresholds=ThresholdSequence(z["theta"]))
            metadata = json.loads(bytes(z["metadata"]).decode())
    except (ValueError, EOFError, zipfile.BadZipFile, KeyError, IndexError,
            NumericalError):
        raise DataError(f"{path}: not a valid ordnmf model file") from None
    return state, metadata
