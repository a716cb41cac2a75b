"""Ranking metric, held-out likelihood, and predictive-check reports."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ordnmf import evaluation, inference
from ordnmf.data import OrdinalMatrix
from ordnmf.errors import ConfigError, DataError, NumericalError
from ordnmf.evaluation import (_ndcg_reports, evaluate_ranking,
                               log_lik_nonzeros, ppc_histogram,
                               ppc_report_text, ranking_report_text,
                               top_lists, top_m_items)
from ordnmf.inference import FitConfig, fit
from ordnmf.model import ThresholdSequence, log1mexp

from oracles import (ndcg_bruteforce, pmf_all, ppc_counts_unscreened,
                     random_matrix, random_state_like, top_m_bruteforce)
from synthetic import default_thresholds, generate_dataset


def ndcg_at_m(scores, train, test, threshold, list_length):
    """NDCG report of a dense users x items score matrix (copied, since
    ranking writes -inf over train items), by evaluate_ranking's kernel."""
    scores = np.array(scores, dtype=float)
    assert scores.shape == (train.n_users, train.n_items)
    users = np.arange(train.n_users)
    items, lengths = top_m_items(scores, users, train, list_length)
    return _ndcg_reports([(users, items, lengths, None)], test, [threshold],
                         list_length)[0]


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
        scores = res.state.W.mean @ res.state.H.mean.T
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
    """Small train/test class matrices, a state with integer scores and
    the users to list: all in order, or any, repeats allowed."""
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
                users=draw(st.just(list(range(U)))
                           | st.lists(st.integers(0, U - 1), max_size=2 * U)),
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
        scores = state.W.mean @ state.H.mean.T
        exclude = train if case["exclude"] else None
        full = top_m_bruteforce(
            scores, case["train"] if case["exclude"] else None, m)

        with mock.patch.object(evaluation, "BLOCK_CELLS", case["block_cells"]):
            got, listed_users = [], []
            for users, items, lengths, top in top_lists(state, case["users"],
                                                        exclude, m):
                listed_users += users.tolist()
                for u, row, vals, n in zip(users, items, top, lengths):
                    got.append(row[:n].tolist())
                    assert vals[:n].tolist() == scores[u, row[:n]].tolist()
            reports = evaluate_ranking(state, train, test, range(1, V + 1),
                                       list_length=m)
        assert listed_users == case["users"]
        assert got == [full[u] for u in case["users"]]
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
    # cells: 2.18-2.33 measured (the score buffer, its partitioned copy, a
    # bool mask and the 64 KB buffer of its row counts); 4.4 with a dense
    # int64 class block each for train and test
    MAX_BLOCKS = 2.6

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

    def test_blocks_scored_into_one_buffer(self):
        rng = np.random.default_rng(13)
        train = self.sparse(50, 40, 200, rng)
        state = random_state_like(train, 2, rng)
        seen = []

        def spy(scores, *args, **buffers):
            seen.append((scores, buffers["copy"], buffers["mask"]))
            return top_m_items(scores, *args, **buffers)

        with mock.patch.object(evaluation, "BLOCK_CELLS", 400), \
                mock.patch.object(evaluation, "top_m_items", spy):
            lists = list(top_lists(state, np.arange(50), train, 5))
        assert [len(users) for users, *_ in lists] == [10] * 5
        # the scores, their copy and the mask: three buffers, each shared by
        # every block
        first = [a.base for a in seen[0]]
        assert all(b is not None for b in first)
        assert len({id(b) for b in first}) == 3
        assert all(a.base is b for arrays in seen
                   for a, b in zip(arrays, first))
        # the yielded scores are copies, not views of the buffer
        for users, items, _, top in lists:
            np.testing.assert_array_equal(
                top, np.take_along_axis(state.W.mean[users] @ state.H.mean.T,
                                        items, axis=1))

    def test_selection_peak_with_buffers_given(self):
        # top_m_items with its copy and mask given allocates the lists, their
        # flat indices and the 64 KB buffer of the broadcast compare alone:
        # 0.026 score blocks measured, 1.15 where np.argpartition took an
        # int64 index block of the whole block
        rng = np.random.default_rng(14)
        train = self.sparse(100, 4000, 1000, rng)
        scores = rng.random((100, 4000))
        copy = np.empty_like(scores)
        mask = np.empty(scores.shape, dtype=bool)
        users = np.arange(100)
        top_m_items(scores.copy(), users, train, 10, copy=copy,
                    mask=mask)  # first-call caches
        tracemalloc.start()
        try:
            top_m_items(scores, users, train, 10, copy=copy, mask=mask)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.1 * scores.nbytes


class TestLogLikNonzeros:
    def test_binary_case_is_zero(self):
        rng = np.random.default_rng(6)
        test = random_matrix(4, 4, 1, rng)
        state = random_state_like(test, 2, rng)
        state.thresholds = ThresholdSequence([1.0])
        assert log_lik_nonzeros(test, state) == pytest.approx(0.0, abs=1e-12)

    def test_empty_test_matrix_rejected(self):
        test = OrdinalMatrix(3, 4, 2, [], [], [])
        state = random_state_like(test, 2, np.random.default_rng(6))
        with pytest.raises(DataError, match="^test matrix is empty$"):
            log_lik_nonzeros(test, state)

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

    def test_blocks_sum_the_full_length_terms(self, monkeypatch):
        # 16 entries per block: several blocks and a ragged last one
        monkeypatch.setattr(inference, "GATHER_CELLS", 16)
        rng = np.random.default_rng(11)
        test = random_matrix(12, 9, 4, rng)
        state = random_state_like(test, 3, rng)
        lam = np.einsum("jk,jk->j", state.W.mean[test.rows],
                        state.H.mean[test.cols])
        thr = state.thresholds
        want = (thr.log_pmf(test.vals, lam)
                - log1mexp(lam * thr.theta[0])).sum()
        assert test.nnz > 3 * 16
        assert log_lik_nonzeros(test, state) == pytest.approx(want,
                                                              rel=1e-12)

    def test_floor_names_the_first_entry_of_a_later_block(self,
                                                          monkeypatch):
        # users 5 and 9 have lambda = 1e-300 at class 2, whose delta is
        # 1e-10, so lambda * delta is subnormal; user 5 is in the second
        # block of four entries
        monkeypatch.setattr(inference, "GATHER_CELLS", 4)
        vals = np.ones(12, dtype=int)
        vals[[5, 9]] = 2
        test = OrdinalMatrix(12, 1, 2, np.arange(12), np.zeros(12), vals)
        state = random_state_like(test, 1, np.random.default_rng(12))
        state.thresholds = ThresholdSequence([1.0, 1e-10])
        rate = np.ones((12, 1))
        rate[[5, 9]] = 1e300
        state.W.set(np.ones((12, 1)), rate)
        state.H.set(np.ones((1, 1)), np.ones((1, 1)))
        with pytest.raises(NumericalError, match=(
                r"^lambda \* delta \S+ at \(u=5, i=0\) is below "
                r"2\.225e-308$")):
            log_lik_nonzeros(test, state)

    def test_peak_bytes_per_entry(self, monkeypatch):
        # the intensities (8 bytes per entry) and buffers of one block
        # (~2 bytes per entry here); forming each term at full length
        # took 49
        monkeypatch.setattr(inference, "GATHER_CELLS", 1 << 12)
        rng = np.random.default_rng(13)
        cells = rng.choice(500 * 400, 100_000, replace=False)
        test = OrdinalMatrix(500, 400, 5, cells // 400, cells % 400,
                             rng.integers(1, 6, cells.size))
        state = random_state_like(test, 2, rng)
        log_lik_nonzeros(test, state)
        tracemalloc.start()
        try:
            log_lik_nonzeros(test, state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * test.nnz

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

    def test_peak_memory_per_cell(self):
        # a chunk of a million cells holds its users and items as uint32
        # (8 bytes per cell) and sub-blocks of inference.blocks, of
        # GATHER_CELLS cells: ~9.6 bytes per cell measured (11.2 in
        # sub-blocks of 2^16 cells); six int64/float64 arrays of the chunk
        # (users, items, intensities, uniforms, cuts, classes) took ~56
        data = random_matrix(37, 23, 4, np.random.default_rng(30))
        state = random_state_like(data, 3, np.random.default_rng(31))
        ppc_histogram(state, data, np.random.default_rng(0), n_cells=1000)
        tracemalloc.start()
        try:
            ppc_histogram(state, data, np.random.default_rng(0),
                          n_cells=1_000_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 1_000_000

    def test_sampled_counts_pinned(self):
        # two full chunks and a partial one, counted before the sampling
        # ran in sub-blocks: a change to what is drawn, in what dtype or in
        # what order changes these
        rng = np.random.default_rng(31)
        data = random_matrix(37, 23, 4, rng)
        state = random_state_like(data, 3, rng)
        n = 2_100_000
        report = ppc_histogram(state, data, np.random.default_rng(2024),
                               n_cells=n)
        counts = np.rint(report.simulated_freq * n).astype(np.int64)
        assert counts.tolist() == [475012, 99017, 424421, 452828, 648722]
        np.testing.assert_array_equal(counts / n, report.simulated_freq)

    @staticmethod
    def screening_state(case):
        rng = np.random.default_rng(50)
        V = 1 if case == "one-class" else 4
        K = 1 if case == "one-component" else 3
        data = random_matrix(37, 23, V, rng)
        state = random_state_like(data, K, rng)
        if case == "dense":
            for f in (state.W, state.H):
                f.set(f.shape, f.rate / 2)
        elif case == "zero-intensity":
            # gamma draws at shape 1e-3 are 0.0 about half the time
            for f in (state.W, state.H):
                f.set(np.full_like(f.shape, 1e-3), f.rate * 1e-6)
        elif case == "overflowing-bound":
            # w ~ (1e200, 1e-200, 1e-200) and h the reverse: lambda ~ 1 but
            # wmax * hsum and wsum * hmax overflow to inf
            big = np.where(np.arange(K) == 0, 1e200, 1e-200)
            for f, scale in ((state.W, big), (state.H, big[::-1])):
                f.set(np.full_like(f.shape, 1e4), 1e4 / (f.mean * scale))
        elif case == "nan-bound":
            # most w rows all 0 (shape 1e-3), the rest below 1e-300, and
            # h ~ 7e307, whose row sums overflow: 0 * inf makes the bound
            # NaN where lambda = 0, and such cells must be formed
            state.W.set(np.full_like(state.W.shape, 1e-3),
                        state.W.rate * 1e300)
            with np.errstate(over="ignore"):  # the mean's column sums
                state.H.set(np.full_like(state.H.shape, 1e4),
                            np.full_like(state.H.rate, 1e4 / 7e307))
        return data, state

    @pytest.mark.parametrize("case, n_cells", [
        ("dense", 100_000), ("zero-intensity", 100_000),
        ("one-component", 1_000_100), ("one-class", 100_000),
        ("overflowing-bound", 100_000), ("nan-bound", 100_000)])
    def test_screened_counts_match_unscreened_oracle(self, case, n_cells):
        data, state = self.screening_state(case)
        with np.errstate(over="raise"):  # as the CLI runs it
            report = ppc_histogram(state, data, np.random.default_rng(7),
                                   n_cells=n_cells)
        counts = np.rint(report.simulated_freq * n_cells).astype(np.int64)
        want, n_zero = ppc_counts_unscreened(state, np.random.default_rng(7),
                                             n_cells)
        assert counts.tolist() == want.tolist()
        formed = report.n_intensities_formed
        assert report.n_cells_sampled == n_cells
        assert n_cells - counts[0] <= formed <= n_cells
        if case == "dense":
            assert formed > 0.99 * n_cells
        elif case == "zero-intensity":
            assert n_zero > 0.4 * n_cells and formed < 0.01 * n_cells
        elif case == "overflowing-bound":
            assert formed == n_cells and 0 < counts[0] < n_cells
        elif case == "nan-bound":
            assert n_zero <= formed < n_cells and 0 < counts[0] < n_cells
        else:
            assert formed < n_cells

    def test_report_text_shapes(self):
        data, state = self.fitted()
        report = ppc_histogram(state, data, np.random.default_rng(1),
                               n_cells=5000)
        text = ppc_report_text(report)
        # one line per class 0..V plus header and summary
        assert len(text.strip().splitlines()) == data.n_classes + 3
        assert text.startswith(
            f"# simulated non-zero: {report.simulated_nonzero_pct:.3f}%, "
            f"cells sampled: 5000, intensities formed: "
            f"{report.n_intensities_formed}\n")
        rank_text = ranking_report_text(
            evaluate_ranking(state, data, random_matrix(
                40, 30, 3, np.random.default_rng(2), density=0.1),
                [1, 2], list_length=10))
        assert rank_text.startswith("threshold")
