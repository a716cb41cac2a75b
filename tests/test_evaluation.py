"""Ranking metric, held-out likelihood, and predictive-check reports."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ordnmf import evaluation
from ordnmf.data import OrdinalMatrix
from ordnmf.errors import ConfigError, NumericalError
from ordnmf.evaluation import (_ndcg_reports, evaluate_ranking,
                               log_lik_nonzeros, ppc_histogram,
                               ppc_report_text, ranking_report_text,
                               score_blocks, top_m_items)
from ordnmf.inference import FitConfig, fit, predict_scores
from ordnmf.model import ThresholdSequence
from ordnmf.synthetic import default_thresholds, generate_dataset

from oracles import (ndcg_bruteforce, pmf_all, random_matrix,
                     random_state_like, top_m_bruteforce)


def ndcg_at_m(scores, train, test, threshold, list_length):
    """NDCG report of a dense users x items score matrix (copied, since
    ranking writes -inf over train items), by evaluate_ranking's kernel."""
    scores = np.array(scores, dtype=float)
    assert scores.shape == (train.n_users, train.n_items)
    return _ndcg_reports([(np.arange(train.n_users), scores)], train, test,
                         [threshold], list_length)[0]


def matrices_for_ranking():
    """3 users x 6 items; user 0 trains on item 0, tests on items 1 and 2."""
    train = OrdinalMatrix(3, 6, 3, [0, 1, 2], [0, 1, 0], [2, 1, 3])
    test = OrdinalMatrix(3, 6, 3, [0, 0, 1, 2], [1, 2, 2, 3], [3, 1, 2, 2])
    return train, test


class TestNdcg:
    def test_ideal_ranking_scores_one(self):
        train, test = matrices_for_ranking()
        # user 0 relevant test items (s=1): 1 and 2; rank them on top
        scores = np.zeros((3, 6))
        scores[0, 1] = 5.0
        scores[0, 2] = 4.0
        scores[1, 2] = 9.0
        scores[2, 3] = 9.0
        report = ndcg_at_m(scores, train, test, threshold=1, list_length=3)
        assert report.mean_ndcg == pytest.approx(1.0)
        assert report.n_users_evaluated == 3

    def test_single_relevant_item_at_rank_two(self):
        train = OrdinalMatrix(1, 6, 3, [], [], [])
        test = OrdinalMatrix(1, 6, 3, [0], [2], [3])
        scores = np.array([[0.1, 0.9, 0.8, 0.2, 0.0, 0.05]])
        report = ndcg_at_m(scores, train, test, threshold=1, list_length=3)
        assert report.mean_ndcg == pytest.approx(1.0 / np.log2(3.0))
        assert abs(report.mean_ndcg - 0.63093) < 1e-5

    def test_vacuous_relevance_threshold(self):
        train, test = matrices_for_ranking()
        scores = np.random.default_rng(0).random((3, 6))
        report = ndcg_at_m(scores, train, test, threshold=3, list_length=3)
        # only user 0 has a class-3 test item
        assert report.n_users_evaluated == 1
        test_low = OrdinalMatrix(3, 6, 3, [0], [1], [1])
        report = ndcg_at_m(scores, train, test_low, threshold=3, list_length=3)
        assert report.n_users_evaluated == 0
        assert np.isnan(report.mean_ndcg)

    def test_train_items_excluded(self):
        train = OrdinalMatrix(1, 3, 1, [0], [0], [1])
        test = OrdinalMatrix(1, 3, 1, [0], [1], [1])
        # train item 0 has the best score but must not occupy a slot;
        # with it excluded the relevant item 1 sits at rank 2
        scores = np.array([[9.0, 1.0, 2.0]])
        report = ndcg_at_m(scores, train, test, threshold=1, list_length=2)
        assert report.mean_ndcg == pytest.approx(1.0 / np.log2(3.0))

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(1)
        train = random_matrix(5, 12, 2, rng, density=0.2)
        test = random_matrix(5, 12, 2, rng, density=0.2)
        scores = rng.random((5, 12))
        a = ndcg_at_m(scores, train, test, 1, 5)
        b = ndcg_at_m(np.exp(3.0 * scores) + 2.0, train, test, 1, 5)
        assert a.mean_ndcg == pytest.approx(b.mean_ndcg, rel=1e-12)

    def test_full_list_all_relevant(self):
        train = OrdinalMatrix(2, 4, 1, [], [], [])
        test = random_matrix(2, 4, 1, np.random.default_rng(2), density=0.9)
        scores = np.random.default_rng(3).random((2, 4))
        report = ndcg_at_m(scores, train, test, 1, 4)
        assert report.mean_ndcg == pytest.approx(1.0)

    def test_config_errors(self):
        train, test = matrices_for_ranking()
        scores = np.zeros((3, 6))
        with pytest.raises(ConfigError, match="list length must be >= 1, got 0"):
            ndcg_at_m(scores, train, test, 1, 0)
        with pytest.raises(ConfigError, match="threshold 9 outside 1..3"):
            ndcg_at_m(scores, train, test, 9, 5)
        with pytest.raises(ConfigError, match="threshold 0 outside 1..3"):
            ndcg_at_m(scores, train, test, 0, 5)

    def test_negative_list_length_rejected(self):
        train, _ = matrices_for_ranking()
        with pytest.raises(ConfigError, match="list length must be >= 1, got -2"):
            top_m_items(np.zeros((3, 6)), np.arange(3), train, -2)

    @pytest.mark.parametrize("item", [3, 0], ids=["candidate", "train-item"])
    def test_nan_score_rejected(self, item):
        train, _ = matrices_for_ranking()  # user 0 trains on item 0 only
        scores = np.zeros((3, 6))
        scores[0, item] = np.nan
        with pytest.raises(NumericalError, match="^NaN ranking score$"):
            top_m_items(scores, np.arange(3), train, 2)

    def test_batch_evaluator_matches_single(self):
        rng = np.random.default_rng(4)
        data = random_matrix(12, 10, 3, rng, density=0.4)
        res = fit(data, FitConfig(n_components=3, max_iter=15, tol=1e-12))
        scores = predict_scores(res.state)
        test = random_matrix(12, 10, 3, np.random.default_rng(5), density=0.2)
        for s in (1, 2, 3):
            single = ndcg_at_m(scores, data, test, s, 5)
            batch = [r for r in evaluate_ranking(res.state, data, test,
                                                 [1, 2, 3], list_length=5)
                     if r.threshold == s][0]
            assert batch.mean_ndcg == pytest.approx(single.mean_ndcg, rel=1e-12)
            assert batch.n_users_evaluated == single.n_users_evaluated


def _matrix(dense, n_classes):
    rows, cols = np.nonzero(dense)
    return OrdinalMatrix(*dense.shape, n_classes, rows, cols, dense[rows, cols])


@st.composite
def ranking_cases(draw):
    """Small train/test class matrices and a state with integer scores."""
    U, I = draw(st.integers(1, 6)), draw(st.integers(1, 9))
    V, K = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    classes = st.integers(0, V)
    train = draw(hnp.arrays(np.int64, (U, I), elements=classes))
    test = draw(hnp.arrays(np.int64, (U, I), elements=classes))
    factor = st.sampled_from([1.0, 2.0, 3.0])
    w = draw(hnp.arrays(float, (U, K), elements=factor))
    h = draw(hnp.arrays(float, (I, K), elements=factor))
    return dict(train=train, test=test, n_classes=V, w=w, h=h,
                list_length=draw(st.integers(1, I + 2)),
                exclude=draw(st.booleans()),
                block_cells=draw(st.integers(1, U * I)))


class TestRankingKernel:
    @settings(max_examples=300, deadline=None)
    @given(ranking_cases())
    def test_matches_full_sort(self, case):
        V, m = case["n_classes"], case["list_length"]
        train = _matrix(case["train"], V)
        test = _matrix(case["test"], V)
        state = random_state_like(train, case["w"].shape[1],
                                  np.random.default_rng(0))
        state.W.set(case["w"], np.ones_like(case["w"]))
        state.H.set(case["h"], np.ones_like(case["h"]))
        scores = predict_scores(state)
        exclude = train if case["exclude"] else None
        want = top_m_bruteforce(
            scores, case["train"] if case["exclude"] else None, m)

        with mock.patch.object(evaluation, "BLOCK_CELLS", case["block_cells"]):
            got = []
            for users, block in score_blocks(state, np.arange(train.n_users)):
                items, lengths = top_m_items(block, users, exclude, m)
                got += [row[:n] for row, n in zip(items.tolist(), lengths)]
            reports = evaluate_ranking(state, train, test, range(1, V + 1),
                                       list_length=m)
        assert got == want
        # NDCG always ranks with the train items excluded
        ranked = top_m_bruteforce(scores, case["train"], m)
        for s, report in zip(range(1, V + 1), reports):
            ndcg, n_users = ndcg_bruteforce(ranked, case["test"], s, m)
            single = ndcg_at_m(scores, train, test, s, m)
            for r in (report, single):
                assert r.threshold == s
                assert r.n_users_evaluated == n_users
                assert r.mean_ndcg == pytest.approx(ndcg, rel=1e-12,
                                                    nan_ok=True)

    def test_large_rows_match_full_sort(self):
        rng = np.random.default_rng(11)
        I, m = 2000, 100
        scores = rng.random((5, I))
        # ~20 and ~200 items per level, so ties straddle the m-th score
        scores[0] = np.round(scores[0], 2)
        scores[1] = np.round(scores[1], 1)
        train_dense = np.zeros((5, I), dtype=np.int64)
        # row 3 keeps m // 2 candidates, so its m-th score is -inf
        train_dense[3, rng.permutation(I)[:I - m // 2]] = 1
        train_dense[4, rng.random(I) < 0.3] = 2
        scores[4] = np.round(scores[4], 2)
        candidates = np.where(train_dense > 0, -np.inf, scores)
        cut = np.sort(candidates, axis=1)[:, I - m, None]
        assert ((candidates >= cut).sum(axis=1) > m).tolist() == [
            True, True, False, True, True]
        assert np.isneginf(cut[3]) and not np.isneginf(cut[[0, 1, 2, 4]]).any()
        train = _matrix(train_dense, 2)
        for exclude, dense in ((train, train_dense), (None, None)):
            items, lengths = top_m_items(scores.copy(), np.arange(5), exclude, m)
            got = [row[:n] for row, n in zip(items.tolist(), lengths)]
            assert got == top_m_bruteforce(scores, dense, m)


class TestRankingMemory:
    # evaluate_ranking's traced peak, in score blocks of BLOCK_CELLS float64
    # cells: ~2.3 measured (the block being ranked and the one scored after
    # it, the argpartition index block, bool masks); 4.4 with a dense int64
    # class block each for train and test
    MAX_BLOCKS = 3.0

    @staticmethod
    def sparse(n_users, n_items, nnz, rng):
        cells = rng.choice(n_users * n_items, nnz, replace=False)
        return OrdinalMatrix(n_users, n_items, 3, cells // n_items,
                             cells % n_items, rng.integers(1, 4, nnz))

    def peak_blocks(self, n_users, n_items):
        rng = np.random.default_rng(12)
        train = self.sparse(n_users, n_items, 500, rng)
        test = self.sparse(n_users, n_items, 500, rng)
        state = random_state_like(train, 2, rng)
        tracemalloc.start()
        try:
            evaluate_ranking(state, train, test, [1, 2, 3], list_length=10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / (evaluation.BLOCK_CELLS * 8)

    def test_peak_bounded_by_block_cells(self):
        with mock.patch.object(evaluation, "BLOCK_CELLS", 1 << 16):
            self.peak_blocks(4, 300)  # imports and first-call caches
            # U x I from 2 to 32 blocks at a fixed number of entries
            for n_users, n_items in ((64, 2048), (256, 8192), (1024, 2048)):
                assert self.peak_blocks(n_users, n_items) < self.MAX_BLOCKS


class TestLogLikNonzeros:
    def test_binary_case_is_zero(self):
        rng = np.random.default_rng(6)
        test = random_matrix(4, 4, 1, rng)
        state = random_state_like(test, 2, rng)
        state.thresholds = ThresholdSequence([1.0])
        assert log_lik_nonzeros(test, state) == pytest.approx(0.0, abs=1e-12)

    def test_analytic_single_entry(self):
        test = OrdinalMatrix(1, 1, 2, [0], [0], [1])
        state = random_state_like(test, 1, np.random.default_rng(7))
        state.thresholds = ThresholdSequence([2.0, 1.0])
        # fix E[w] E[h] = 1
        state.W.set(np.array([[2.0]]), np.array([[2.0]]))
        state.H.set(np.array([[3.0]]), np.array([[3.0]]))
        expected = np.log((np.exp(-1.0) - np.exp(-2.0)) / (1 - np.exp(-2.0)))
        got = log_lik_nonzeros(test, state)
        assert got == pytest.approx(expected, rel=1e-12)
        assert abs(got - (-1.31326)) < 1e-5

    def test_zero_intensity_names_the_entry(self):
        test = OrdinalMatrix(3, 2, 2, [0, 1, 2], [1, 0, 1], [1, 2, 1])
        state = random_state_like(test, 2, np.random.default_rng(10))
        # E[w] = 1e-200 / 1e200 underflows to 0 for user 1 only
        shape, rate = state.W.shape.copy(), state.W.rate.copy()
        shape[1], rate[1] = 1e-200, 1e200
        state.W.set(shape, rate)
        with pytest.raises(NumericalError, match=(
                r"^intensity 0.0 at \(u=1, i=0\) is not finite and positive$")):
            log_lik_nonzeros(test, state)

    def test_never_positive(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            test = random_matrix(5, 4, 3, rng, density=0.5)
            state = random_state_like(test, 2, rng)
            assert log_lik_nonzeros(test, state) <= 0.0

    def test_conditional_normalization(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            V = int(rng.integers(2, 7))
            thr = ThresholdSequence.from_delta(rng.uniform(0.1, 1.0, V))
            lam = rng.uniform(0.05, 8.0)
            p = pmf_all(thr, lam)
            cond = p[1:] / (1 - p[0])
            assert abs(cond.sum() - 1.0) < 1e-12


class TestPPC:
    def fitted(self):
        rng = np.random.default_rng(10)
        thr = default_thresholds(3)
        data, _ = generate_dataset(40, 30, 3, thr, rng, scale=0.5)
        res = fit(data, FitConfig(n_components=3, max_iter=60, seed=0))
        return data, res.state

    def test_frequencies_sum_to_one(self):
        data, state = self.fitted()
        report = ppc_histogram(state, data, np.random.default_rng(0),
                               n_cells=20_000)
        assert report.observed_freq.sum() == pytest.approx(1.0, abs=1e-9)
        assert report.simulated_freq.sum() == pytest.approx(1.0, abs=1e-9)
        assert report.simulated_nonzero_pct == pytest.approx(
            100 * (1 - report.simulated_freq[0]))

    def test_deterministic_given_seed(self):
        data, state = self.fitted()
        a = ppc_histogram(state, data, np.random.default_rng(42), n_cells=5000)
        b = ppc_histogram(state, data, np.random.default_rng(42), n_cells=5000)
        np.testing.assert_array_equal(a.simulated_freq, b.simulated_freq)

    @pytest.mark.parametrize("n_cells", [0, -5])
    def test_non_positive_budget_rejected(self, n_cells):
        data = random_matrix(4, 3, 2, np.random.default_rng(3))
        state = random_state_like(data, 2, np.random.default_rng(4))
        with pytest.raises(ConfigError,
                           match=rf"^n_cells must be >= 1, got {n_cells}$"):
            ppc_histogram(state, data, np.random.default_rng(0),
                          n_cells=n_cells)

    def test_report_text_shapes(self):
        data, state = self.fitted()
        report = ppc_histogram(state, data, np.random.default_rng(1),
                               n_cells=5000)
        text = ppc_report_text(report)
        # one line per class 0..V plus header and summary
        assert len(text.strip().splitlines()) == data.n_classes + 3
        rank_text = ranking_report_text(
            evaluate_ranking(state, data, random_matrix(
                40, 30, 3, np.random.default_rng(2), density=0.1),
                [1, 2], list_length=10))
        assert rank_text.startswith("threshold")
