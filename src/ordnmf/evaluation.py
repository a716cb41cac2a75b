"""Ranking metrics, held-out likelihood, and posterior predictive checks."""

from dataclasses import dataclass

import numpy as np

from . import inference
from .errors import ConfigError, DataError, NumericalError
from .inference import entry_dot
from .model import log1mexp

# Cells per dense float64 score block of top_lists (4 MB).  top_lists
# allocates its three block buffers (the scores, their partitioned copy, a
# bool mask) once per call, so selection costs ~6 ns per cell at 2^18 to
# 2^20 cells on the benchmark's rank shape (I = 20000, m = 100, one BLAS
# thread, a 2-core x86 box).  Smaller blocks cost the score product more,
# as BLAS repacks E[H]^T for every block: 3.1-4.6 ns per cell at 2^18
# against 2.4-3.3 at 2^19
BLOCK_CELLS = 1 << 19


@dataclass
class RankingMetricsReport:
    threshold: int
    list_length: int
    mean_ndcg: float
    n_users_evaluated: int


@dataclass
class PPCReport:
    """Observed vs simulated class frequencies, classes 0..V."""

    observed_freq: np.ndarray
    simulated_freq: np.ndarray
    simulated_nonzero_pct: float
    n_cells_sampled: int
    n_intensities_formed: int  # cells not screened out as class 0


def top_m_items(scores, users, train, list_length, copy=None, mask=None):
    """Top-m lists (items, lengths) of a block of score rows of users.

    Row j's list is items[j, :lengths[j]], ordered by score descending and
    ascending item.  Unless train (an OrdinalMatrix) is None, the users'
    train items are set to -inf in scores (in place) and never listed.
    copy (float) and mask (bool), of scores' shape, are scratch written
    over, allocated here unless given.
    """
    if list_length < 1:
        raise ConfigError(f"list length must be >= 1, got {list_length}")
    if scores.size and np.isnan(scores.max()):  # max propagates NaN
        raise NumericalError("NaN ranking score")
    n_rows, n_items = scores.shape
    m = min(int(list_length), n_items)
    lengths = np.full(n_rows, m)
    if train is not None:
        row, at = train.block_entries(users)
        scores[row, train.cols[at]] = -np.inf
        lengths = np.minimum(m, n_items - np.bincount(row, minlength=n_rows))
    if copy is None:
        copy = np.empty_like(scores)
    np.copyto(copy, scores)
    k = n_items - m
    copy.partition(k, axis=1)
    cut = copy[:, k:k + 1]  # each row's m-th largest score
    mask = np.greater_equal(scores, cut, out=mask)  # m or more per row
    if np.count_nonzero(mask) != n_rows * m:
        # where over m items reach the cut, keep the items above it, then
        # the lowest-index tied ones up to m
        straddle = np.flatnonzero(np.count_nonzero(mask, axis=1) > m)
        block, cut = scores[straddle], cut[straddle]
        chosen = block > cut
        tied = block == cut
        need = m - chosen.sum(axis=1, keepdims=True)
        chosen |= tied & (np.cumsum(tied, axis=1, dtype=np.int32) <= need)
        mask[straddle] = chosen
    # ascending items per row; then a stable sort by score keeps them so
    items = (np.flatnonzero(mask) % n_items).reshape(n_rows, m)
    top = np.take_along_axis(scores, items, axis=1)
    order = np.argsort(-top, axis=1, kind="stable")
    return np.take_along_axis(items, order, axis=1), lengths


def top_lists(state, users, train, list_length):
    """Yield top_m_items' (users, items, lengths) and the listed items'
    scores E[W] E[H]^T for blocks of users (any order, repeats allowed) of
    BLOCK_CELLS score cells at most (one row at least).  Every block is
    scored into one buffer allocated once per call, so ranking's dense
    score memory (8 MB) does not grow with U x I; the yielded scores are
    copies.  ConfigError unless every user index lies in 0..U-1."""
    users = np.asarray(users, dtype=np.int64)
    bad = users[(users < 0) | (users >= state.n_users)]
    if bad.size:
        raise ConfigError(f"user index {bad[0]} outside "
                          f"0..{state.n_users - 1}")
    step = max(1, BLOCK_CELLS // state.n_items)
    shape = (min(step, users.size), state.n_items)
    buffer, copy = np.empty(shape), np.empty(shape)
    mask = np.empty(shape, dtype=bool)
    for start in range(0, users.size, step):
        block = users[start:start + step]
        n = block.size
        scores = np.matmul(state.W.mean[block], state.H.mean.T,
                           out=buffer[:n])
        items, lengths = top_m_items(scores, block, train, list_length,
                                     copy=copy[:n], mask=mask[:n])
        yield block, items, lengths, np.take_along_axis(scores, items, axis=1)


def _ndcg_reports(lists, test, thresholds, list_length):
    """RankingMetricsReports over top_lists' blocks; see evaluate_ranking."""
    thresholds = sorted({int(s) for s in thresholds})
    for s in thresholds:
        if not 1 <= s <= test.n_classes:
            raise ConfigError(f"relevance threshold {s} outside 1..{test.n_classes}")
    total = np.zeros(len(thresholds))
    n_eval = np.zeros(len(thresholds), dtype=np.int64)
    # every block's list width; top_m_items refuses a list_length below 1
    m = max(0, min(int(list_length), test.n_items))
    discounts = 1.0 / np.log2(np.arange(2, m + 2))
    ideal = np.cumsum(discounts)
    for users, items, lengths, _ in lists:
        ranked = test.classes_at(users[:, None], items)
        ranked[np.arange(m) >= lengths[:, None]] = 0
        row, at = test.block_entries(users)
        classes = test.vals[at]
        for j, s in enumerate(thresholds):
            n_rel = np.bincount(row[classes >= s], minlength=users.size)
            dcg = (ranked >= s) @ discounts  # 0 where n_rel is 0
            total[j] += (dcg / ideal[np.clip(n_rel, 1, m) - 1]).sum()
            n_eval[j] += np.count_nonzero(n_rel)
    return [RankingMetricsReport(threshold=s, list_length=int(list_length),
                                 mean_ndcg=t / n if n else float("nan"),
                                 n_users_evaluated=int(n))
            for s, t, n in zip(thresholds, total, n_eval)]


def evaluate_ranking(state, train, test, thresholds, list_length=100):
    """NDCG@list_length reports at several relevance thresholds.

    Each user's items are ranked by predicted score descending, ties broken
    by ascending item index.  Items non-zero in train are not candidates,
    so a list is shorter than list_length when fewer candidates remain.
    Relevance at threshold s is 1[test class >= s] for s in 1..V; users with
    no relevant test item are skipped, and a threshold no user reaches
    reports NaN.  The ideal DCG truncates at min(list_length, number of
    relevant items).  One report per distinct threshold, in ascending order.
    """
    lists = top_lists(state, np.arange(train.n_users), train, list_length)
    return _ndcg_reports(lists, test, thresholds, list_length)


def log_lik_nonzeros(test, state):
    """Sum over held-out entries of log p(y | y > 0, fitted factors).

    Uses the posterior-mean intensity and subtracts the log probability of
    being non-zero; never positive.  NumericalError naming the first entry
    whose intensity is not finite and normal (inference.require_positive)
    or whose lambda * delta_y, which log_pmf takes log1mexp of, is not
    normal; delta_y <= theta_0, so lambda * theta_0 is normal too.  The
    intensities are one length-nnz array; the check and the terms run over
    the blocks of the fit's inference.scaled_blocks, so the rest of the
    memory does not grow with nnz.
    """
    if test.nnz == 0:
        raise DataError("test matrix is empty")
    thr, floor = state.thresholds, np.finfo(float).tiny
    lam = inference.require_positive(
        entry_dot(state.W.mean, state.H.mean, test.rows, test.cols), test)
    total = 0.0
    for block, x in inference.scaled_blocks(state, test, lam):
        j = np.argmax(x < floor)  # the block's first entry below, if any
        if x[j] < floor:
            raise NumericalError(
                f"lambda * delta {x[j]:.4g} at (u={test.rows[block][j]}, "
                f"i={test.cols[block][j]}) is below {floor:.4g}")
        lam_b = lam[block]
        log_p = thr.log_pmf(test.vals[block], lam_b)
        log_p -= log1mexp(np.multiply(lam_b, thr.theta[0], out=x))
        total += log_p.sum()
    return float(total)


def ppc_histogram(state, train, rng, n_cells=10_000_000):
    """Simulate classes from the fitted posterior and compare histograms.

    Draws one (W, H) sample from the variational posteriors, then samples
    classes at n_cells uniformly random (user, item) cells.  Observed
    frequencies come from the train matrix over all U x I cells (class 0 is
    the implicit remainder).  ConfigError unless n_cells >= 1.

    Cells are drawn a million at a time, users then items, as uint32 (the
    same values and stream as int64 draws for U, I <= 2^32), and each
    sub-block of inference.blocks of the chunk then draws one uniform u per
    cell, e = -log(u).  A cell is class 0 exactly when fl(e / lambda) >=
    theta_0 (ThresholdSequence.inverse_cdf), which holds whenever
    lambda * theta_0 <= e, since division rounds monotonically.  So each
    cell is first screened by a bound b = min(wmax[u] hsum[i], wsum[u]
    hmax[i]) >= lambda, from the row maxima and sums of the two samples,
    and counted as class 0 without forming its lambda when
    b * theta_0 * (1 + m) + d <= e.  Only the other cells go through
    entry_dot and inverse_cdf, whose intensities are the ones an
    unscreened pass forms (entry_dot's sums do not depend on how many
    entries it gets, for K <= 8192), so the classes are the same: 0.29%
    of the cells of the benchmark's ingest-pf model, 0.44% of rank's and
    23% of sweep's are not screened out.  A bound that is inf or NaN is
    never screened.

    The margin covers rounding for any K, with eps = 2^-53: a K-term sum
    of non-negative products, in any order, rounds at most K times along
    any term's path, so the computed lambda is at most (1 + eps)^K lambda
    + K 2^-1074 (a product that underflows is off by up to 2^-1075), and
    the computed bound at least (1 - eps)^K b - 2^-1075.  theta_0 (1 + m)
    = theta_0 exp(4 (K + 3) eps), rounded, exceeds theta_0 (1 + eps)^K /
    (1 - eps)^(K + 2), the screen's own two roundings included, and d =
    (K + 3) (1 + theta_0 (1 + m)) 2^-1074 covers the underflows, so the
    screened value is at least theta_0 times the computed lambda.

    Memory beyond the two samples is 8 bytes per cell of a chunk, a few
    arrays of a sub-block, and two floats per row of each sample.
    """
    if n_cells < 1:
        raise ConfigError(f"n_cells must be >= 1, got {n_cells}")
    U, I, V = state.n_users, state.n_items, state.n_classes
    thr = state.thresholds
    w_sample = rng.gamma(state.W.shape, 1.0 / state.W.rate)
    h_sample = rng.gamma(state.H.shape, 1.0 / state.H.rate)
    K = w_sample.shape[1]
    with np.errstate(over="ignore"):  # an inf bound is never screened
        w_max, w_sum = w_sample.max(axis=1), w_sample.sum(axis=1)
        h_max, h_sum = h_sample.max(axis=1), h_sample.sum(axis=1)
        scale = thr.theta[0] * np.exp(4 * (K + 3) * 2.0 ** -53)
        floor = (K + 3) * (1 + scale) * 2.0 ** -1074
    chunk = 1_000_000  # users, items, then uniforms: sets the stream
    # scratch of one sub-block, the longest
    longest = next(inference.blocks(min(chunk, int(n_cells)))).stop
    e, bound, x, y = (np.empty(longest) for _ in range(4))
    u, i = np.empty(longest, dtype=np.intp), np.empty(longest, dtype=np.intp)
    screened = np.empty(longest, dtype=bool)
    counts = np.zeros(V + 1, dtype=np.int64)
    n_formed = 0
    remaining = int(n_cells)
    while remaining > 0:
        n = min(chunk, remaining)
        users = rng.integers(0, U, size=n, dtype=np.uint32)
        items = rng.integers(0, I, size=n, dtype=np.uint32)
        for block in inference.blocks(n):
            m = block.stop - block.start
            u_b, i_b, s = u[:m], i[:m], screened[:m]
            e_b, b, x_b, y_b = e[:m], bound[:m], x[:m], y[:m]
            np.copyto(u_b, users[block])
            np.copyto(i_b, items[block])
            rng.random(out=e_b)
            with np.errstate(divide="ignore"):  # u = 0 gives e = +inf
                np.negative(np.log(e_b, out=e_b), out=e_b)
            # in range by construction; mode="raise" would buffer the output
            with np.errstate(over="ignore", invalid="ignore"):
                np.take(w_max, u_b, out=b, mode="clip")
                b *= np.take(h_sum, i_b, out=x_b, mode="clip")
                np.take(w_sum, u_b, out=x_b, mode="clip")
                x_b *= np.take(h_max, i_b, out=y_b, mode="clip")
                np.minimum(b, x_b, out=b)  # NaN stays NaN
                b *= scale
                b += floor
            np.less_equal(b, e_b, out=s)  # False at NaN
            rest = np.flatnonzero(np.logical_not(s, out=s))
            lam = entry_dot(w_sample, h_sample, u_b[rest], i_b[rest])
            counts += np.bincount(thr.inverse_cdf(lam, e_b[rest]),
                                  minlength=V + 1)
            counts[0] += m - rest.size
            n_formed += rest.size
        remaining -= n
    simulated = counts / counts.sum()
    observed = np.zeros(V + 1)
    observed[1:] = train.class_counts
    observed[0] = float(train.n_users) * train.n_items - train.nnz
    observed /= observed.sum()
    return PPCReport(observed_freq=observed, simulated_freq=simulated,
                     simulated_nonzero_pct=100.0 * (1.0 - simulated[0]),
                     n_cells_sampled=int(n_cells),
                     n_intensities_formed=n_formed)


def ranking_report_text(reports):
    lines = ["threshold\tlist_length\tndcg\tn_users"]
    for r in reports:
        lines.append(f"{r.threshold}\t{r.list_length}\t{r.mean_ndcg:.6f}\t"
                     f"{r.n_users_evaluated}")
    return "\n".join(lines) + "\n"


def ppc_report_text(report):
    lines = [f"# simulated non-zero: {report.simulated_nonzero_pct:.3f}%, "
             f"cells sampled: {report.n_cells_sampled}, "
             f"intensities formed: {report.n_intensities_formed}",
             "class\tobserved_freq\tsimulated_freq"]
    for v in range(report.observed_freq.size):
        lines.append(f"{v}\t{report.observed_freq[v]:.8f}\t"
                     f"{report.simulated_freq[v]:.8f}")
    return "\n".join(lines) + "\n"
