"""Independent reference implementations used to cross-check the library.

The observation model is written from its class c.d.f. alone.  The
inference references enumerate all (u, i, k) cells with plain loops and make
no use of the sparse update paths they validate.  Slow on purpose; only for
tiny instances.
"""

import copy
import struct

import mpmath
import numpy as np
from scipy import integrate, special, stats

from ordnmf.data import RawTriplets, _parse_line
from ordnmf.errors import ParseError
from ordnmf.model import ThresholdSequence


def exposure(thr, v):
    return thr.theta[0] if v == 0 else thr.theta[v - 1]


# The reference observation model, from thr.theta and the class c.d.f.
# P[y <= v | lambda] = exp(-lambda * theta_v) alone (theta_V = 0).

def cdf(thr, v, lam):
    """P[y <= v | lambda] for classes v in 0..V (vectorized); 1 at v = V."""
    v = np.asarray(v)
    if np.any(v < 0) or np.any(v > thr.theta.size):
        raise ValueError(f"class out of range 0..{thr.theta.size}")
    theta = np.append(thr.theta, 0.0)
    return np.exp(-np.asarray(lam, dtype=float) * theta[v])[()]


def pmf(thr, v, lam):
    """P[y = v | lambda] = cdf(v) - cdf(v - 1), with cdf(-1) = 0."""
    v = np.asarray(v)
    below = np.where(v == 0, 0.0, cdf(thr, np.maximum(v - 1, 0), lam))
    return (cdf(thr, v, lam) - below)[()]


def pmf_all(thr, lam):
    """The vector pmf(v, lam), v = 0..V, of one scalar lambda."""
    return np.diff(cdf(thr, np.arange(thr.theta.size + 1), float(lam)),
                   prepend=0.0)


def quantize(thr, x):
    """The generative definition of a class: lambda * eps quantized against
    the raw thresholds b_v = 1 / theta_v, class v when b_{v-1} <= x < b_v
    (b_{-1} = 0, b_V = +inf)."""
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise ValueError("quantize requires x >= 0")
    return np.searchsorted(1.0 / thr.theta, x, side="right")[()]


def expected_class(thr, lam):
    """E[y | lambda] = sum_{v < V} P[y > v] = V - sum_v exp(-lambda theta_v)."""
    lam = np.asarray(lam, dtype=float)
    return (thr.theta.size
            - np.exp(-np.multiply.outer(lam, thr.theta)).sum(axis=-1))[()]


# 50-digit references for the scalar numerics, as mpmath numbers, each from
# its definition.  1 - e^{-x} is taken as -expm1(-x) below x = 1, where e^{-x}
# is near 1 and would cancel, and log(1 - e^{-x}) as log1p(-e^{-x}) above,
# where log of a number near 1 would lose digits: each form keeps well over
# 40 of the 50 digits on its side of x = 1.

def log1mexp_mp(x):
    """log(1 - e^{-x}) for a float or mpmath number x > 0."""
    with mpmath.workdps(50):
        x = mpmath.mpf(x)
        if x < 1:
            return mpmath.log(-mpmath.expm1(-x))
        return mpmath.log1p(-mpmath.exp(-x))


def ztp_mean_mp(x):
    """x / (1 - e^{-x}), the zero-truncated Poisson mean, for a float x > 0."""
    with mpmath.workdps(50):
        x = mpmath.mpf(float(x))
        return x / -mpmath.expm1(-x)


def elbo_entry_mp(x):
    """x + log(1 - e^{-x}) = log(e^x - 1), the collapsed ELBO term of a
    non-zero entry with x = Lambda * delta_y, for a float x > 0."""
    with mpmath.workdps(50):
        return mpmath.log(mpmath.expm1(mpmath.mpf(float(x))))


def log_pmf_mp(theta, v, lam):
    """log P[y = v | lambda] = log(e^{-lambda theta_v} - e^{-lambda
    theta_{v-1}}) for class v in 0..V, from the float thresholds theta
    taken exactly (theta_{-1} = +inf, theta_V = 0), for a float lam > 0:
    -lambda theta_v + log(1 - e^{-lambda (theta_{v-1} - theta_v)})."""
    with mpmath.workdps(50):
        lam = mpmath.mpf(float(lam))
        ext = [mpmath.mpf(float(t)) for t in theta] + [mpmath.mpf(0)]
        if v == 0:
            return -lam * ext[0]
        return -lam * ext[v] + log1mexp_mp(lam * (ext[v - 1] - ext[v]))


def dense(matrix):
    """Dense class matrix of an OrdinalMatrix, explicit zeros included."""
    out = np.zeros((matrix.n_users, matrix.n_items), dtype=np.int64)
    out[matrix.rows, matrix.cols] = matrix.vals
    return out


def ztp_mean_series(x, n_max=500):
    """E[n] for n ~ ZTP(x) by truncated summation of the p.m.f."""
    n = np.arange(1, n_max + 1)
    log_p = n * np.log(x) - np.log(np.expm1(x)) - special.gammaln(n + 1)
    p = np.exp(log_p)
    return float((n * p).sum())


def dense_iteration(state, data, pf_approximation=False,
                    learn_thresholds=True):
    """One full coordinate-ascent iteration over the dense class matrix.

    Returns (w_shape, w_rate, h_shape, h_rate, theta, beta_w, beta_h)
    following the same phase order as the library: locals from the current
    state, then user factors, then item factors (whose rates see the fresh
    user means), then thresholds, then rate hyperparameters.  Variant pf
    is pf_approximation (E[n] = 1); bepof and pf keep theta
    (learn_thresholds=False).
    """
    y = dense(data)
    U, I = y.shape
    K = state.n_components
    thr = state.thresholds
    GW = state.W.geo_mean.copy()
    GH = state.H.geo_mean.copy()
    EH_old = state.H.mean.copy()

    e_n = np.zeros((U, I))
    e_c = np.zeros((U, I, K))
    for u in range(U):
        for i in range(I):
            if y[u, i] == 0:
                continue
            lam_k = GW[u] * GH[i]
            lam = lam_k.sum()
            if pf_approximation:
                e_n[u, i] = 1.0
            else:
                x = lam * thr.delta[y[u, i] - 1]
                e_n[u, i] = x / (1.0 - np.exp(-x))
            e_c[u, i] = e_n[u, i] * lam_k / lam

    w_shape = np.zeros((U, K))
    w_rate = np.zeros((U, K))
    for u in range(U):
        for k in range(K):
            w_shape[u, k] = state.W.alpha + e_c[u, :, k].sum()
            w_rate[u, k] = state.W.beta[u] + sum(
                exposure(thr, y[u, i]) * EH_old[i, k] for i in range(I))
    EW_new = w_shape / w_rate

    h_shape = np.zeros((I, K))
    h_rate = np.zeros((I, K))
    for i in range(I):
        for k in range(K):
            h_shape[i, k] = state.H.alpha + e_c[:, i, k].sum()
            h_rate[i, k] = state.H.beta[i] + sum(
                exposure(thr, y[u, i]) * EW_new[u, k] for u in range(U))
    EH_new = h_shape / h_rate

    theta = thr.theta.copy()
    if learn_thresholds:
        V = data.n_classes
        e_lam = EW_new @ EH_new.T
        delta = np.empty(V)
        for l in range(1, V + 1):
            num = e_n[y == l].sum()
            den = e_lam[y <= l].sum()
            delta[l - 1] = num / den if num > 0 else 1e-10  # DELTA_FLOOR
        theta = np.cumsum(delta[::-1])[::-1]

    beta_w = K * state.W.alpha / EW_new.sum(axis=1)
    beta_h = K * state.H.alpha / EH_new.sum(axis=1)

    return w_shape, w_rate, h_shape, h_rate, theta, beta_w, beta_h


def _gamma_term_quadrature(var_shape, var_rate, prior_shape, prior_rate):
    """E_q[log p(x) - log q(x)] per entry with numeric expectations."""
    total = 0.0
    it = np.nditer([var_shape, var_rate, prior_rate])
    for a_t, b_t, b_p in it:
        dist = stats.gamma(float(a_t), scale=1.0 / float(b_t))
        e_x = dist.mean()
        e_log, _ = integrate.quad(lambda x: np.log(x) * dist.pdf(x),
                                  0, np.inf, limit=200)
        log_p = (prior_shape * np.log(float(b_p)) - special.gammaln(prior_shape)
                 + (prior_shape - 1.0) * e_log - float(b_p) * e_x)
        total += log_p + dist.entropy()
    return total


def elbo_bruteforce(state, data, n_max=500, pf_approximation=False):
    """Exhaustive-expectation variational objective.

    Truncated-count expectations are summed explicitly to n_max; the
    E[sum_k log c_k!] term appears identically in the joint likelihood and
    in the allocation entropy and is dropped from both.  Gamma factor terms
    use quadrature for E[log x] and the library-free entropy formula.
    """
    y = dense(data)
    U, I = y.shape
    thr = state.thresholds
    GW, GH = state.W.geo_mean, state.H.geo_mean
    EW, EH = state.W.mean, state.H.mean
    total = 0.0
    for u in range(U):
        for i in range(I):
            e_lam = float(EW[u] @ EH[i])
            if y[u, i] == 0:
                total += -e_lam * thr.theta[0]
                continue
            v = y[u, i]
            lam_k = GW[u] * GH[i]
            lam = lam_k.sum()
            phi = lam_k / lam
            x = lam * thr.delta[v - 1]
            if pf_approximation:
                e_n = 1.0
                e_logfact_n = 0.0
                e_log_q_n = 0.0
            else:
                n = np.arange(1, n_max + 1)
                log_p = (n * np.log(x) - np.log(np.expm1(x))
                         - special.gammaln(n + 1))
                p = np.exp(log_p)
                e_n = float((n * p).sum())
                e_logfact_n = float((special.gammaln(n + 1) * p).sum())
                e_log_q_n = float((log_p * p).sum())
            e_c = e_n * phi
            e_log_p = (-e_lam * exposure(thr, v)
                       + e_n * np.log(thr.delta[v - 1])
                       + float((e_c * np.log(lam_k)).sum()))
            e_log_q_c = e_logfact_n + float((e_c * np.log(phi)).sum())
            total += e_log_p - e_log_q_n - e_log_q_c
    for factor in (state.W, state.H):
        total += _gamma_term_quadrature(
            factor.shape, factor.rate, factor.alpha,
            np.broadcast_to(factor.beta[:, None], factor.shape.shape))
    return total


def bepof_iteration(shape_w, rate_w, shape_h, rate_h, y, alpha_w, alpha_h,
                    beta_w, beta_h, point_mass_counts=False):
    """Standalone update for the Bernoulli-link binary model (V=1, theta=1).

    y is a dense 0/1 matrix.  With point_mass_counts the truncated-count
    mean is pinned to 1, giving the plain Poisson-factorization update.
    Returns fresh (shape_w, rate_w, shape_h, rate_h).
    """
    U, K = shape_w.shape
    I = shape_h.shape[0]
    GW = np.exp(special.digamma(shape_w)) / rate_w
    GH = np.exp(special.digamma(shape_h)) / rate_h
    EH = shape_h / rate_h

    new_shape_w = np.full((U, K), alpha_w, dtype=float)
    new_rate_w = np.zeros((U, K))
    e_c = np.zeros((U, I, K))
    for u in range(U):
        for i in range(I):
            if y[u, i] != 1:
                continue
            lam_k = GW[u] * GH[i]
            lam = lam_k.sum()
            e_n = 1.0 if point_mass_counts else lam / (1.0 - np.exp(-lam))
            e_c[u, i] = e_n * lam_k / lam
    for u in range(U):
        new_shape_w[u] += e_c[u].sum(axis=0)
        new_rate_w[u] = beta_w[u] + EH.sum(axis=0)
    EW_new = new_shape_w / new_rate_w

    new_shape_h = np.full((I, K), alpha_h, dtype=float)
    new_rate_h = np.zeros((I, K))
    for i in range(I):
        new_shape_h[i] += e_c[:, i].sum(axis=0)
        new_rate_h[i] = beta_h[i] + EW_new.sum(axis=0)
    return new_shape_w, new_rate_w, new_shape_h, new_rate_h


def sample_class_table(thr, lam, u):
    """Classes from the whole (n, V+1) c.d.f. table: per entry, the number
    of v in 0..V with exp(-lam * theta_v) < u, given the uniforms u."""
    cdf = np.exp(-np.asarray(lam, dtype=float)[..., None]
                 * np.append(thr.theta, 0.0))
    return (cdf < np.asarray(u)[..., None]).sum(axis=-1)


def ppc_counts_unscreened(state, rng, n_cells):
    """Class counts 0..V of ppc_histogram's random stream with every cell's
    intensity formed, and the number of cells whose intensity is 0.

    The stream: one gamma sample of W, then of H; then per chunk of a
    million cells, uint32 users, uint32 items and one uniform per cell
    (ppc_histogram's per-block uniforms, in order, are one stream).  Each
    cell's class is the package's inverse c.d.f. at its intensity and
    e = -log(u)."""
    W = rng.gamma(state.W.shape, 1.0 / state.W.rate)
    H = rng.gamma(state.H.shape, 1.0 / state.H.rate)
    counts = np.zeros(state.n_classes + 1, dtype=np.int64)
    n_zero, chunk = 0, 1_000_000
    for start in range(0, n_cells, chunk):
        n = min(chunk, n_cells - start)
        users = rng.integers(0, state.n_users, size=n, dtype=np.uint32)
        items = rng.integers(0, state.n_items, size=n, dtype=np.uint32)
        with np.errstate(divide="ignore"):  # u = 0 gives e = +inf
            e = -np.log(rng.random(n))
        lam = np.einsum("jk,jk->j", W[users], H[items])
        n_zero += np.count_nonzero(lam == 0)
        counts += np.bincount(state.thresholds.inverse_cdf(lam, e),
                              minlength=state.n_classes + 1)
    return counts, n_zero


def threshold_objective(delta, y, e_n, e_lam):
    """sum_l [ (sum_{y=l} E[n]) log delta_l - (sum_{y<=l} E[lambda]) delta_l ]."""
    total = 0.0
    for l in range(1, len(delta) + 1):
        total += e_n[y == l].sum() * np.log(delta[l - 1])
        total -= e_lam[y <= l].sum() * delta[l - 1]
    return total


def local_step(state, data, point_mass=False):
    """(n_by_class, e_n, lam): local_update's class sums of E[n] on state,
    E[n] per entry taken as ztp_mean(Lambda * delta_y) (1 under the point
    mass) from the same Lambda, and the Lambda array, over which
    local_update must have written e_n / Lambda (checked here, bit for
    bit).  local_update leaves the allocation totals in state.W.shape and
    state.H.shape."""
    from ordnmf.inference import entry_intensities, local_update, ztp_mean

    lam = entry_intensities(state, data)
    before = lam.copy()
    e_n = (np.ones_like(lam) if point_mass else
           ztp_mean(lam * state.thresholds.delta[data.vals - 1]))
    n_by_class = local_update(state, data, lam, point_mass)
    assert lam.tobytes() == (e_n / before).tobytes()
    return n_by_class, e_n, lam


def random_state_like(data, n_components, rng, alpha_w=0.3, alpha_h=0.3):
    """A valid but arbitrary variational state for oracle comparisons."""
    from ordnmf.inference import GammaVariationalMatrix, VariationalState

    U, I = data.n_users, data.n_items
    V = data.n_classes
    delta = rng.uniform(0.2, 1.0, size=V)
    thr = ThresholdSequence.from_delta(delta)
    # draw order: both posteriors, then both prior rates
    posteriors = [(rng.uniform(0.3, 2.0, (n, n_components)),
                   rng.uniform(0.5, 3.0, (n, n_components))) for n in (U, I)]
    beta_w, beta_h = rng.uniform(0.5, 2.0, U), rng.uniform(0.5, 2.0, I)
    W = GammaVariationalMatrix(*posteriors[0], alpha_w, beta_w)
    H = GammaVariationalMatrix(*posteriors[1], alpha_h, beta_h)
    return VariationalState(W=W, H=H, thresholds=thr)


def random_matrix(n_users, n_items, n_classes, rng, density=0.5):
    """Random sparse ordinal matrix with at least one entry per class."""
    from ordnmf.data import OrdinalMatrix

    while True:
        dense = np.where(rng.random((n_users, n_items)) < density,
                         rng.integers(1, n_classes + 1,
                                      size=(n_users, n_items)), 0)
        present = np.unique(dense[dense > 0])
        if present.size == n_classes:
            break
    rows, cols = np.nonzero(dense)
    return OrdinalMatrix(n_users, n_items, n_classes, rows, cols,
                         dense[rows, cols])


def top_m_bruteforce(scores, train_dense, list_length):
    """Per-user top lists by a full sort of the candidates on (-score, item).

    train_dense is None when train items stay candidates.
    """
    lists = []
    for u in range(scores.shape[0]):
        candidates = [i for i in range(scores.shape[1])
                      if train_dense is None or train_dense[u, i] == 0]
        candidates.sort(key=lambda i: (-scores[u, i], i))
        lists.append(candidates[:list_length])
    return lists


def ndcg_bruteforce(lists, test_dense, threshold, list_length):
    """(mean NDCG, users evaluated) of top lists; NaN when no user counts."""
    total, n_users = 0.0, 0
    for u, ranked in enumerate(lists):
        relevant = set(np.flatnonzero(test_dense[u] >= threshold).tolist())
        if not relevant:
            continue
        dcg = sum(1.0 / np.log2(r + 2) for r, i in enumerate(ranked)
                  if i in relevant)
        idcg = sum(1.0 / np.log2(r + 2)
                   for r in range(min(list_length, len(relevant))))
        total += dcg / idcg
        n_users += 1
    return (total / n_users if n_users else float("nan")), n_users


def damaged_ordmat(kind):
    """Bytes of an .ordmat file that load must reject, one per kind."""
    header = struct.Struct("<4sIIIIQ")
    if kind == "short-header":
        return b"ORDM" + bytes(10)
    if kind == "huge-nnz":
        return header.pack(b"ORDM", 1, 2, 3, 1, 1 << 40)
    entries = {"trailing-bytes": ([0, 1], [1, 2], [1, 2]),
               "index-out-of-range": ([0, 5], [1, 2], [1, 2]),
               "duplicate": ([0, 0], [1, 1], [1, 2])}[kind]
    body = np.asarray(entries, dtype="<i8").tobytes()
    tail = b"\0" if kind == "trailing-bytes" else b""
    return header.pack(b"ORDM", 1, 2, 3, 2, 2) + body + tail


def ordmat_bytes(matrix):
    """Bytes of matrix's .ordmat file, from the format alone: the header,
    then rows, cols and vals as little-endian int64."""
    header = struct.Struct("<4sIIIIQ").pack(
        b"ORDM", 1, matrix.n_users, matrix.n_items, matrix.n_classes,
        matrix.nnz)
    return header + np.asarray([matrix.rows, matrix.cols, matrix.vals],
                               dtype="<i8").tobytes()


def widened(matrix):
    """A copy of matrix whose entry arrays are rebuilt as read-only int64,
    the dtype a matrix stores them in when U, I and V reach 2^31."""
    wide = copy.copy(matrix)
    wide.__dict__.pop("indptr", None)  # cached from the narrow rows
    for name in ("rows", "cols", "vals"):
        a = getattr(matrix, name).astype(np.int64)
        a.setflags(write=False)
        setattr(wide, name, a)
    return wide


def load_triplets_by_line(path, delimiter=None, skip_header=False):
    """data.load_triplets, one line at a time: every line through
    _parse_line, first-appearance indices by setdefault, duplicates by a
    set of index pairs."""
    user_index, item_index = {}, {}
    rows, cols, counts = [], [], []
    seen = set()
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            if lineno == 1 and skip_header:
                continue
            try:
                triplet = _parse_line(line, delimiter)
            except ValueError as exc:
                raise ParseError(path, lineno, exc) from None
            if triplet is None:
                continue
            uid, iid, value = triplet
            u = user_index.setdefault(uid, len(user_index))
            i = item_index.setdefault(iid, len(item_index))
            if (u, i) in seen:
                raise ParseError(path, lineno, f"duplicate entry for ({uid}, {iid})")
            seen.add((u, i))
            rows.append(u)
            cols.append(i)
            counts.append(value)
    return RawTriplets(
        len(user_index), len(item_index),
        np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64),
        np.asarray(counts, dtype=np.int64),
        list(user_index), list(item_index))
