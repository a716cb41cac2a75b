"""Ranking metrics, held-out likelihood, and posterior predictive checks."""

from dataclasses import dataclass

import numpy as np

from . import inference
from .errors import ConfigError, DataError, NumericalError
from .inference import _entry_csr, entry_dot, predict_scores
from .model import log1mexp


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


def score_blocks(state, users):
    """Yield (users, predict_scores rows) for consecutive blocks of users,
    inference.BLOCK_CELLS score cells at most (one row at least)."""
    users = np.asarray(users, dtype=np.int64)
    step = max(1, inference.BLOCK_CELLS // state.n_items)
    for start in range(0, users.size, step):
        block = users[start:start + step]
        yield block, predict_scores(state, block)


def top_m_items(scores, users, train, list_length):
    """Top-m lists (items, lengths) of a block of score rows of users.

    Row j's list is items[j, :lengths[j]], ordered by score descending and
    ascending item.  Unless train is None, the users' train items are set
    to -inf in scores (in place) and never listed.
    """
    if list_length < 1:
        raise ConfigError(f"list length must be >= 1, got {list_length}")
    if np.isnan(scores).any():
        raise NumericalError("NaN ranking score")
    n_rows, n_items = scores.shape
    m = min(int(list_length), n_items)
    lengths = np.full(n_rows, m)
    if train is not None:
        in_train = _entry_csr(train, train.vals)[users].toarray() > 0
        scores[in_train] = -np.inf
        lengths = np.minimum(m, n_items - in_train.sum(axis=1))
    # every item above the m-th largest score, then the lowest-index items
    # tied with it until the row holds m
    cut = np.partition(scores, n_items - m, axis=1)[:, n_items - m, None]
    chosen = scores > cut
    tied = scores == cut
    need = m - chosen.sum(axis=1, keepdims=True)
    chosen |= tied & (np.cumsum(tied, axis=1, dtype=np.int32) <= need)
    items = np.nonzero(chosen)[1].reshape(n_rows, m)
    top = np.take_along_axis(scores, items, axis=1)
    order = np.argsort(-top, axis=1, kind="stable")
    return np.take_along_axis(items, order, axis=1), lengths


def _ndcg_reports(blocks, train, test, thresholds, list_length):
    """RankingMetricsReports over (users, scores) blocks; see evaluate_ranking."""
    thresholds = sorted({int(s) for s in thresholds})
    for s in thresholds:
        if not 1 <= s <= test.n_classes:
            raise ConfigError(f"relevance threshold {s} outside 1..{test.n_classes}")
    total = np.zeros(len(thresholds))
    n_eval = np.zeros(len(thresholds), dtype=np.int64)
    for users, scores in blocks:
        items, lengths = top_m_items(scores, users, train, list_length)
        m = items.shape[1]
        classes = _entry_csr(test, test.vals)[users].toarray()
        ranked = np.take_along_axis(classes, items, axis=1)
        ranked[np.arange(m) >= lengths[:, None]] = 0
        discounts = 1.0 / np.log2(np.arange(2, m + 2))
        ideal = np.cumsum(discounts)
        for j, s in enumerate(thresholds):
            n_rel = (classes >= s).sum(axis=1)
            dcg = (ranked >= s) @ discounts  # 0 where n_rel is 0
            total[j] += (dcg / ideal[np.clip(n_rel, 1, m) - 1]).sum()
            n_eval[j] += np.count_nonzero(n_rel)
    return [RankingMetricsReport(threshold=s, list_length=int(list_length),
                                 mean_ndcg=t / n if n else float("nan"),
                                 n_users_evaluated=int(n))
            for s, t, n in zip(thresholds, total, n_eval)]


def ndcg_at_m(scores, train, test, threshold, list_length, exclude_train=True):
    """NDCG report of a dense users x items score matrix; see evaluate_ranking."""
    scores = np.array(scores, dtype=float)
    if scores.shape != (train.n_users, train.n_items):
        raise DataError("scores must cover every (user, item) pair")
    return _ndcg_reports([(np.arange(train.n_users), scores)],
                         train if exclude_train else None, test,
                         [threshold], list_length)[0]


def evaluate_ranking(state, train, test, thresholds, list_length=100,
                     exclude_train=True):
    """NDCG@list_length reports at several relevance thresholds.

    Each user's items are ranked by predicted score descending, ties broken
    by ascending item index.  Items non-zero in train are not candidates
    unless exclude_train is off, so a list is shorter than list_length when
    fewer candidates remain.  Relevance at threshold s is 1[test class >= s]
    for s in 1..V; users with no relevant test item are skipped, and a
    threshold no user reaches reports NaN.  The ideal DCG truncates at
    min(list_length, number of relevant items).  One report per distinct
    threshold, in ascending order.
    """
    return _ndcg_reports(score_blocks(state, np.arange(train.n_users)),
                         train if exclude_train else None, test, thresholds,
                         list_length)


def log_lik_nonzeros(test, state):
    """Sum over held-out entries of log p(y | y > 0, fitted factors).

    Uses the posterior-mean intensity and subtracts the log probability of
    being non-zero; never positive.
    """
    if test.nnz == 0:
        raise DataError("test matrix is empty")
    thr = state.thresholds
    lam = entry_dot(state.W.mean, state.H.mean, test.rows, test.cols)
    if np.any(lam <= 0):
        raise NumericalError("zero predicted intensity in held-out likelihood")
    log_p = thr.log_pmf(test.vals, lam)
    log_nonzero = log1mexp(lam * thr.theta[0])
    return float((log_p - log_nonzero).sum())


def ppc_histogram(state, train, rng, n_cells=10_000_000):
    """Simulate classes from the fitted posterior and compare histograms.

    Draws one (W, H) sample from the variational posteriors, then samples
    classes at n_cells uniformly random (user, item) cells.  Observed
    frequencies come from the train matrix over all U x I cells (class 0 is
    the implicit remainder).  ConfigError unless n_cells >= 1.
    """
    if n_cells < 1:
        raise ConfigError(f"n_cells must be >= 1, got {n_cells}")
    U, I, V = state.n_users, state.n_items, state.n_classes
    w_sample = rng.gamma(state.W.shape, 1.0 / state.W.rate)
    h_sample = rng.gamma(state.H.shape, 1.0 / state.H.rate)
    counts = np.zeros(V + 1, dtype=np.int64)
    chunk = 1_000_000
    remaining = int(n_cells)
    while remaining > 0:
        n = min(chunk, remaining)
        users = rng.integers(0, U, size=n)
        items = rng.integers(0, I, size=n)
        lam = entry_dot(w_sample, h_sample, users, items)
        classes = state.thresholds.sample_class(lam, rng)
        counts += np.bincount(classes, minlength=V + 1)
        remaining -= n
    simulated = counts / counts.sum()
    observed = np.zeros(V + 1)
    observed[1:] = train.class_counts
    observed[0] = float(train.n_users) * train.n_items - train.nnz
    observed /= observed.sum()
    return PPCReport(observed_freq=observed, simulated_freq=simulated,
                     simulated_nonzero_pct=100.0 * (1.0 - simulated[0]),
                     n_cells_sampled=int(n_cells))


def ranking_report_text(reports):
    lines = ["threshold\tlist_length\tndcg\tn_users"]
    for r in reports:
        lines.append(f"{r.threshold}\t{r.list_length}\t{r.mean_ndcg:.6f}\t"
                     f"{r.n_users_evaluated}")
    return "\n".join(lines) + "\n"


def ppc_report_text(report):
    lines = [f"# simulated non-zero: {report.simulated_nonzero_pct:.3f}%",
             "class\tobserved_freq\tsimulated_freq"]
    for v in range(report.observed_freq.size):
        lines.append(f"{v}\t{report.observed_freq[v]:.8f}\t"
                     f"{report.simulated_freq[v]:.8f}")
    return "\n".join(lines) + "\n"
