"""Coordinate-ascent updates against dense references, plus loop behavior."""

import copy
import importlib.machinery
import importlib.metadata
import importlib.util
import json
import os
import re
import subprocess
import sys
import tracemalloc
import types
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import ordnmf
from ordnmf import inference
from ordnmf.baselines import binarize
from ordnmf.cli import main
from ordnmf.data import OrdinalMatrix
from ordnmf.errors import ConfigError, DataError, NumericalError, OrdnmfError
from ordnmf.evaluation import ppc_histogram, top_lists
from ordnmf.inference import (FitConfig, GammaVariationalMatrix, class_sums,
                              compute_elbo, entry_intensities, fit, init_state,
                              init_thresholds, iterate, load_state,
                              local_update, save_state, update_factors,
                              update_rate_hyperparams, update_thresholds,
                              ztp_mean)
from ordnmf.model import ThresholdSequence

from oracles import (dense, dense_iteration, expected_class, local_step,
                     random_matrix, random_state_like, threshold_objective,
                     widened, ztp_mean_series)
from synthetic import default_thresholds, generate_dataset


class TestZtpMean:
    def test_small_argument_limit(self):
        assert ztp_mean(1e-14) == pytest.approx(1.0, abs=1e-10)

    def test_truncated_sum_oracle(self):
        for x in (0.1, 0.5, 1.0, 2.0, 5.0):
            np.testing.assert_allclose(ztp_mean(x), ztp_mean_series(x),
                                       rtol=1e-10)
        assert abs(ztp_mean(1.0) - 1.581977) < 1e-6

    def test_large_argument_asymptote(self):
        assert ztp_mean(50.0) == pytest.approx(50.0, rel=1e-12)

    def test_always_at_least_one(self):
        x = np.random.default_rng(0).uniform(1e-8, 30, size=1000)
        assert np.all(ztp_mean(x) >= 1.0)

    def test_domain(self):
        with pytest.raises(ValueError):
            ztp_mean(0.0)


class TestGammaVariationalMatrix:
    @pytest.mark.parametrize("which", ["shape", "rate"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -0.0],
                             ids=["nan", "inf", "zero", "negative-zero"])
    def test_set_rejects_non_finite_or_non_positive(self, which, bad):
        # away from index 0, and alone in an otherwise valid array: the
        # check is two reductions, and NaN must fail them
        rng = np.random.default_rng(40)
        factor = GammaVariationalMatrix(rng.uniform(0.5, 2, (4, 3)),
                                        rng.uniform(0.5, 2, (4, 3)), 0.3,
                                        np.ones(4))
        arrays = {"shape": factor.shape.copy(), "rate": factor.rate.copy()}
        arrays[which][2, 1] = bad
        with pytest.raises(NumericalError, match="^gamma variational "
                           "parameters must be finite and positive$"):
            factor.set(arrays["shape"], arrays["rate"])

    def test_set_rewrites_cached_arrays_in_place(self):
        from scipy import special

        rng = np.random.default_rng(41)
        shape, rate = rng.uniform(0.5, 2, (2, 5, 3))
        factor = GammaVariationalMatrix(shape, rate, 0.3, np.ones(5))
        held = factor.mean, factor.geo_mean
        new_shape, new_rate = rng.uniform(0.5, 2, (2, 5, 3))
        factor.set(new_shape, new_rate)
        assert factor.mean is held[0]
        assert factor.mean.tobytes() == (new_shape / new_rate).tobytes()
        # G follows the new shape and rate, in the old array, and no
        # digamma array is cached beside it
        psi = special.digamma(new_shape)
        assert factor.geo_mean is held[1]
        assert factor.geo_mean.tobytes() == (np.exp(psi) / new_rate).tobytes()
        assert not hasattr(factor, "digamma")

    @staticmethod
    def _prior_minus_entropy(shape, rate, a, beta, e_log):
        from scipy import special

        b = beta[:, None]
        return float((a * np.log(b) - special.gammaln(a)
                      + (a - shape) * e_log - b * (shape / rate)
                      - shape * np.log(rate) + special.gammaln(shape)
                      + shape).sum())

    def test_prior_minus_entropy_matches_one_shot_expression(self):
        # the in-place form gives the bits of the one-shot expression, with
        # E[log x] = log G where G is normal
        from scipy import special

        rng = np.random.default_rng(42)
        shape, rate = rng.uniform(0.05, 5, (2, 11, 3))
        beta = rng.uniform(0.5, 2, 11)
        factor = GammaVariationalMatrix(shape, rate, 0.7, beta)
        e_log = np.log(np.exp(special.digamma(shape)) / rate)
        assert factor.prior_minus_entropy() == self._prior_minus_entropy(
            shape, rate, 0.7, beta, e_log)

    def test_prior_minus_entropy_where_g_underflows(self):
        # under a tiny prior shape, G = exp(digamma(shape)) / rate is 0 or
        # subnormal in some cells while every row keeps a normal G, so
        # Lambda stays normal; log G would be -inf or lose its digits
        from scipy import special

        rng = np.random.default_rng(47)
        shape = np.array([[1e-3, 0.5, 1.0], [1.36e-3, 0.3, 2.0],
                          [1.2e-3, 1.1e-3, 0.7], [0.8, 1.38e-3, 1.1]])
        rate = rng.uniform(0.5, 2, shape.shape)
        beta = rng.uniform(0.5, 2, 4)
        factor = GammaVariationalMatrix(shape, rate, 1e-3, beta)
        G, tiny = factor.geo_mean, np.finfo(float).tiny
        assert np.any(G == 0) and np.any((G > 0) & (G < tiny))
        data = OrdinalMatrix(4, 2, 1, [0, 1, 2, 3], [0, 1, 0, 1], [1] * 4)
        h = GammaVariationalMatrix(np.ones((2, 3)), np.ones((2, 3)), 0.3,
                                   np.ones(2))
        state = inference.VariationalState(W=factor, H=h,
                                           thresholds=ThresholdSequence([1.0]))
        assert entry_intensities(state, data).min() >= tiny
        got = factor.prior_minus_entropy()
        want = self._prior_minus_entropy(
            shape, rate, 1e-3, beta, special.digamma(shape) - np.log(rate))
        assert np.isfinite(got)
        assert got == pytest.approx(want, rel=1e-12, abs=0)


class TestInitState:
    def test_deterministic(self):
        rng = np.random.default_rng(1)
        data = random_matrix(6, 5, 3, rng)
        cfg = FitConfig(n_components=3, seed=11)
        a = init_state(cfg, data)
        b = init_state(cfg, data)
        np.testing.assert_array_equal(a.W.shape, b.W.shape)
        np.testing.assert_array_equal(a.H.rate, b.H.rate)
        np.testing.assert_array_equal(a.thresholds.theta, b.thresholds.theta)

    def test_initial_thresholds_decreasing(self):
        rng = np.random.default_rng(2)
        data = random_matrix(8, 7, 5, rng)
        state = init_state(FitConfig(n_components=2), data)
        assert np.all(np.diff(state.thresholds.theta) < 0)
        assert state.thresholds.n_classes == 5

    def test_binary_mode_pins_threshold(self):
        rng = np.random.default_rng(3)
        data = random_matrix(5, 4, 1, rng)
        state = init_state(FitConfig(n_components=2, variant="bepof"), data)
        assert state.thresholds.theta.tolist() == [1.0]

    @pytest.mark.parametrize("n_users, n_items, vals", [
        (6, 5, [1, 1, 2, 4, 4, 4, 1]),  # class 3 is empty
        # U * I near 2^40: class 1's decrement is just above DELTA_FLOOR,
        # those of classes 2 and 3 are far below it
        ((1 << 20) + 3, (1 << 20) - 5, [1] * 200 + [2, 3, 3]),
    ], ids=["empty-class", "sparse-2^40"])
    def test_initial_thresholds_mirror_update(self, monkeypatch, n_users,
                                              n_items, vals):
        # init_thresholds' stated rule, bit for bit: update_thresholds'
        # decrements at E[n] = the class counts and E[lambda] = 1 in every
        # cell, floored at DELTA_FLOOR and rescaled to sum to 1 (theta_0
        # = 1 up to rounding: 1 - 2^-53 in the sparse case)
        n = len(vals)
        data = OrdinalMatrix(n_users, n_items, max(vals), np.arange(n) % 6,
                             np.arange(n) // 6, vals)
        counts = data.class_counts.astype(float)
        # the all-cells total of E[lambda] is U * I: here E[W] = U and
        # E[H] = I in a 1 x 1 state, for update_thresholds reads only that
        flat = inference.VariationalState(
            W=GammaVariationalMatrix([[float(n_users)]], [[1.0]], 1.0, [1.0]),
            H=GammaVariationalMatrix([[float(n_items)]], [[1.0]], 1.0, [1.0]),
            thresholds=default_thresholds(data.n_classes))
        passed = []
        real = ThresholdSequence.from_delta.__func__

        def record(cls, delta):
            passed.append(np.array(delta))
            return real(cls, delta)
        with monkeypatch.context() as patch:
            patch.setattr(ThresholdSequence, "from_delta", classmethod(record))
            update_thresholds(flat, counts, counts)
        delta = np.maximum(passed[0], inference.DELTA_FLOOR)
        want = ThresholdSequence.from_delta(delta / delta.sum())
        np.testing.assert_array_equal(init_thresholds(data).theta, want.theta)
        assert want.theta[0] == pytest.approx(1.0, rel=1e-15)

    def test_errors(self):
        rng = np.random.default_rng(4)
        data = random_matrix(5, 4, 3, rng)
        with pytest.raises(ConfigError):
            FitConfig(n_components=0)
        with pytest.raises(ConfigError):
            init_state(FitConfig(n_components=2, variant="bepof"), data)
        empty = OrdinalMatrix(3, 3, 2, [], [], [])
        with pytest.raises(DataError):
            init_state(FitConfig(n_components=2), empty)

    @pytest.mark.parametrize("field, value, message", [
        ("alpha_w", float("nan"), "alpha_w must be finite and positive, "
                                  "got nan"),
        ("alpha_h", float("inf"), "alpha_h must be finite and positive, "
                                  "got inf"),
        ("alpha_w", 0.0, "alpha_w must be finite and positive, got 0.0"),
        ("tol", float("nan"), "tol must be positive, got nan"),
        ("tol", -1e-3, "tol must be positive, got -0.001"),
        ("seed", -1, "seed must be >= 0, got -1"),
    ])
    def test_config_names_bad_field(self, field, value, message):
        with pytest.raises(ConfigError) as info:
            FitConfig(n_components=2, **{field: value})
        assert str(info.value) == message


class TestLocalUpdate:
    def test_single_component_allocates_everything(self):
        rng = np.random.default_rng(5)
        data = random_matrix(5, 4, 3, rng)
        state = random_state_like(data, 1, rng)
        _, e_n, _ = local_step(state, data)
        np.testing.assert_allclose(state.W.shape.sum(), e_n.sum(), rtol=1e-12)

    def test_multinomial_totals(self):
        rng = np.random.default_rng(6)
        data = random_matrix(6, 5, 4, rng)
        state = random_state_like(data, 3, rng)
        _, e_n, _ = local_step(state, data)
        # per-entry totals hold, so do the (u, k) and (i, k) aggregates
        np.testing.assert_allclose(state.W.shape.sum(), e_n.sum(), rtol=1e-12)
        np.testing.assert_allclose(state.H.shape.sum(), e_n.sum(), rtol=1e-12)

    @pytest.mark.parametrize("point_mass", [False, True])
    @pytest.mark.parametrize("gather_cells", [None, 4],
                             ids=["one-block", "blocks-of-4"])
    def test_class_sums_of_counts_match_bincount(self, monkeypatch,
                                                 point_mass, gather_cells):
        if gather_cells is not None:
            monkeypatch.setattr(inference, "GATHER_CELLS", gather_cells)
        rng = np.random.default_rng(9)
        data = random_matrix(7, 6, 4, rng, density=0.6)
        state = random_state_like(data, 3, rng)
        n_by_class, e_n, _ = local_step(state, data, point_mass)
        want = np.bincount(data.vals, weights=e_n, minlength=5)[1:]
        assert n_by_class.tobytes() == want.tobytes()

    def test_truncated_count_mean_at_least_one(self):
        rng = np.random.default_rng(7)
        data = random_matrix(6, 5, 4, rng)
        state = random_state_like(data, 3, rng)
        assert np.all(local_step(copy.deepcopy(state), data)[1] >= 1.0)
        # local_step checks that 1 / Lambda was written over Lambda
        n_by_class, _, _ = local_step(state, data, point_mass=True)
        np.testing.assert_array_equal(n_by_class, data.class_counts)

    def test_aggregates_match_dense_reference(self):
        rng = np.random.default_rng(8)
        data = random_matrix(2, 2, 2, rng, density=0.9)
        state = random_state_like(data, 2, rng)
        GW, GH = state.W.geo_mean.copy(), state.H.geo_mean.copy()
        local_step(state, data)
        y = dense(data)
        cw_ref = np.zeros_like(state.W.shape)
        for u in range(2):
            for i in range(2):
                if y[u, i] == 0:
                    continue
                lam_k = GW[u] * GH[i]
                lam = lam_k.sum()
                x = lam * state.thresholds.delta[y[u, i] - 1]
                e_n = x / (1 - np.exp(-x))
                cw_ref[u] += e_n * lam_k / lam
        np.testing.assert_allclose(state.W.shape, cw_ref, rtol=1e-12)


class TestFactorUpdates:
    def test_all_zero_row_keeps_prior(self):
        dense = np.array([[1, 2], [0, 0]])
        data = OrdinalMatrix(2, 2, 2, *_triplets(dense))
        rng = np.random.default_rng(9)
        state = random_state_like(data, 2, rng)
        theta0 = state.thresholds.theta[0]
        expect_rate = state.W.beta[1] + theta0 * state.H.mean.sum(axis=0)
        iterate(state, data, entry_intensities(state, data), "ordinal")
        np.testing.assert_allclose(state.W.shape[1], state.W.alpha, rtol=1e-12)
        np.testing.assert_allclose(state.W.rate[1], expect_rate, rtol=1e-12)

    def test_binary_rate_independent_of_classes(self):
        # with V = 1 every cell's rate weight is theta_0
        rng = np.random.default_rng(10)
        data = random_matrix(5, 4, 1, rng)
        state = random_state_like(data, 2, rng)
        state.thresholds = ThresholdSequence([1.0])
        expected = state.W.beta[:, None] + state.H.mean.sum(axis=0)[None, :]
        iterate(state, data, entry_intensities(state, data), "bepof")
        np.testing.assert_allclose(state.W.rate, expected, rtol=1e-12)

    def test_sparse_matches_dense_oracle(self):
        for seed in range(20):
            rng = np.random.default_rng(100 + seed)
            data = random_matrix(6, 5, int(rng.integers(1, 5)), rng,
                                 density=0.5)
            state = random_state_like(data, int(rng.integers(1, 4)), rng)
            ref = dense_iteration(copy.deepcopy(state), data)
            iterate(state, data, entry_intensities(state, data), "ordinal")
            np.testing.assert_allclose(state.W.shape, ref[0], rtol=1e-10)
            np.testing.assert_allclose(state.W.rate, ref[1], rtol=1e-10)
            np.testing.assert_allclose(state.H.shape, ref[2], rtol=1e-10)
            np.testing.assert_allclose(state.H.rate, ref[3], rtol=1e-10)
            np.testing.assert_allclose(state.thresholds.theta, ref[4],
                                       rtol=1e-10)

    def test_transpose_symmetry(self):
        # the item step equals the user step on the transposed data, taken
        # against the fresh user factor
        rng = np.random.default_rng(11)
        dense = rng.integers(0, 3, size=(5, 5))
        data = OrdinalMatrix(5, 5, 2, *_triplets(dense))
        data_t = OrdinalMatrix(5, 5, 2, *_triplets(dense.T))
        state = random_state_like(data, 2, np.random.default_rng(42))
        state_t = copy.deepcopy(state)
        state_t.W, state_t.H = state_t.H, state_t.W
        lam, lam_t = (entry_intensities(s, d)
                      for s, d in ((state, data), (state_t, data_t)))
        local_update(state, data, lam)
        local_update(state_t, data_t, lam_t)
        update_factors(state, data, lam)
        state_t.H = copy.deepcopy(state.W)
        update_factors(state_t, data_t, lam_t)
        np.testing.assert_allclose(state_t.W.shape, state.H.shape, rtol=1e-12)
        np.testing.assert_allclose(state_t.W.rate, state.H.rate, rtol=1e-12)

    @pytest.mark.parametrize("variant, n_classes, products", [
        ("ordinal", 3, 4), ("ordinal", 1, 2), ("bepof", 1, 2), ("pf", 1, 2)])
    def test_rate_products_only_above_one_class(self, monkeypatch, variant,
                                                n_classes, products):
        # the rate weights theta_{y-1} - theta_0 are 0 at every entry when
        # V = 1, so an iteration forms the local step's two sparse products
        # and not the factor update's two
        rng = np.random.default_rng(49)
        data = random_matrix(8, 6, n_classes, rng)
        state = random_state_like(data, 2, rng)
        lam = entry_intensities(state, data)
        spy = mock.Mock(wraps=inference._sparse_product)
        monkeypatch.setattr(inference, "_sparse_product", spy)
        for _ in range(2):
            iterate(state, data, lam, variant)
        assert spy.call_count == 2 * products


class TestThresholdUpdate:
    def test_single_cell_closed_form(self):
        data = OrdinalMatrix(1, 1, 1, [0], [0], [1])
        rng = np.random.default_rng(12)
        state = random_state_like(data, 2, rng)
        n_by_class, e_n, _ = local_step(state, data)
        lam_by_class = class_sums(state, data)
        thr, floored = update_thresholds(state, n_by_class, lam_by_class)
        e_lam = float(state.W.mean[0] @ state.H.mean[0])
        assert thr.theta[0] == pytest.approx(e_n[0] / e_lam, rel=1e-12)
        assert not floored

    def test_numerator_restricted_to_exact_class(self):
        rng = np.random.default_rng(13)
        data = random_matrix(6, 5, 3, rng)
        state = random_state_like(data, 2, rng)
        n_by_class, e_n, _ = local_step(state, data)
        lam_by_class = class_sums(state, data)
        thr, _ = update_thresholds(state, n_by_class, lam_by_class)
        for l in range(1, 4):
            num = e_n[data.vals == l].sum()
            assert thr.delta[l - 1] * _denominator(state, data, l) == \
                pytest.approx(num, rel=1e-10)

    def test_update_is_local_maximum(self):
        rng = np.random.default_rng(14)
        data = random_matrix(6, 5, 3, rng)
        state = random_state_like(data, 2, rng)
        n_by_class, e_n_entries, _ = local_step(state, data)
        lam_by_class = class_sums(state, data)
        thr, _ = update_thresholds(state, n_by_class, lam_by_class)
        y = dense(data)
        e_n = np.zeros(y.shape)
        e_n[data.rows, data.cols] = e_n_entries
        e_lam = state.W.mean @ state.H.mean.T
        best = threshold_objective(thr.delta, y, e_n, e_lam)
        for l in range(3):
            for factor in (0.99, 1.01):
                delta = thr.delta.copy()
                delta[l] *= factor
                assert threshold_objective(delta, y, e_n, e_lam) < best

    def test_empty_class_floor(self):
        dense = np.array([[1, 0], [0, 3]])  # class 2 absent
        data = OrdinalMatrix(2, 2, 3, *_triplets(dense))
        rng = np.random.default_rng(15)
        state = random_state_like(data, 2, rng)
        n_by_class = local_update(state, data,
                                  entry_intensities(state, data))
        lam_by_class = class_sums(state, data)
        thr, floored = update_thresholds(state, n_by_class, lam_by_class)
        assert floored == [2]
        assert thr.delta[1] == pytest.approx(1e-10)


class TestClassSums:
    @pytest.mark.parametrize("U, I, V, empty", [
        (5, 9, 3, None), (9, 5, 3, None), (7, 7, 4, None), (9, 5, 4, 2),
        (5, 9, 4, 3), (6, 8, 1, None)],
        ids=["users-shorter", "items-shorter", "square", "empty-class-items",
             "empty-class-users", "binary"])
    def test_match_per_entry_bincount(self, U, I, V, empty):
        rng = np.random.default_rng(U * I * V)
        data = random_matrix(U, I, V, rng, density=0.6)
        if empty is not None:
            keep = data.vals != empty
            data = OrdinalMatrix(U, I, V, data.rows[keep], data.cols[keep],
                                 data.vals[keep])
        state = random_state_like(data, 3, rng)
        got = class_sums(state, data)
        e_lam = np.einsum("jk,jk->j", state.W.mean[data.rows],
                          state.H.mean[data.cols])
        want = np.bincount(data.vals, weights=e_lam, minlength=V + 1)[1:]
        assert got.shape == (V,)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
        if empty is not None:
            assert got[empty - 1] == 0.0


class TestRateUpdate:
    def test_fixed_point_at_prior(self):
        rng = np.random.default_rng(16)
        data = random_matrix(4, 3, 2, rng)
        state = random_state_like(data, 2, rng)
        # posterior mean equal to the prior mean for every component
        state.W.set(np.full((4, 2), 2.0),
                    np.full((4, 2), 2.0) * state.W.beta[:, None]
                    / state.W.alpha)
        before = state.W.beta.copy()
        update_rate_hyperparams(state)
        np.testing.assert_allclose(state.W.beta, before, rtol=1e-12)

    def test_scale_property(self):
        rng = np.random.default_rng(17)
        data = random_matrix(4, 3, 2, rng)
        state = random_state_like(data, 2, rng)
        update_rate_hyperparams(state)
        first = state.W.beta.copy()
        state.W.set(state.W.shape * 2.0, state.W.rate)
        update_rate_hyperparams(state)
        np.testing.assert_allclose(state.W.beta, first / 2.0, rtol=1e-12)

    def test_grid_search_confirms_maximizer(self):
        # 1 user, K = 2: closed form should beat a fine grid on
        # sum_k E[log Gamma(w_k; alpha, beta)]
        from scipy import special

        rng = np.random.default_rng(18)
        alpha = 0.7
        shape = rng.uniform(0.5, 2.0, size=2)
        rate = rng.uniform(0.5, 2.0, size=2)
        e_w = shape / rate
        e_log_w = special.digamma(shape) - np.log(rate)

        def objective(beta):
            beta = np.asarray(beta)[..., None]
            return np.sum(alpha * np.log(beta) - special.gammaln(alpha)
                          + (alpha - 1) * e_log_w - beta * e_w, axis=-1)

        closed = 2 * alpha / e_w.sum()
        grid = np.linspace(0.01, 10.0, 20000)
        assert objective(closed) >= objective(grid).max() - 1e-6
        assert abs(grid[np.argmax(objective(grid))] - closed) < 1e-2


class TestFitLoop:
    def test_infinite_tolerance_single_iteration(self):
        rng = np.random.default_rng(19)
        data = random_matrix(6, 5, 3, rng)
        res = fit(data, FitConfig(n_components=2, tol=np.inf, max_iter=50))
        assert res.iterations == 1 and res.converged

    @pytest.mark.parametrize("alpha_w, elbo", [(1e50, "2.16e+36"),
                                               (1e300, "2.45e+287")])
    def test_positive_elbo_stops_fit(self, alpha_w, elbo):
        # the ELBO bounds the log-probability of discrete data, so it is
        # never positive; a huge prior shape drives it far above 0
        data = OrdinalMatrix(2, 5, 3, [0, 0, 0, 0, 1], [0, 1, 2, 3, 0],
                             [1, 2, 3, 1, 2])
        cfg = FitConfig(n_components=2, alpha_w=alpha_w)
        with pytest.raises(NumericalError, match="^" + re.escape(
                f"ELBO {elbo} at iteration 1 is positive, but it bounds")):
            fit(data, cfg)
        # a large but sane shape still fits
        res = fit(data, replace(cfg, alpha_w=1e10))
        assert res.converged and np.all(res.elbo_trace < 0)

    def test_elbo_decrease_stops_fit(self, monkeypatch):
        # iteration 2's ELBO is twice the true one, far below iteration 1's
        data = random_matrix(6, 5, 3, np.random.default_rng(19))
        elbos, real_iterate = [], inference.iterate

        def dropping(*args):
            elbos.append(real_iterate(*args) * (1 + len(elbos)))
            return elbos[-1]
        monkeypatch.setattr(inference, "iterate", dropping)
        with pytest.raises(NumericalError) as info:
            fit(data, FitConfig(n_components=2, tol=1e-300))
        assert len(elbos) == 2
        assert str(info.value) == (
            f"ELBO decreased at iteration 2: {elbos[0]} -> {elbos[1]}")

    def test_non_finite_elbo_rejected(self):
        data = random_matrix(6, 5, 3, np.random.default_rng(19))
        state = random_state_like(data, 2, np.random.default_rng(0))
        lam_big = np.full(data.nnz, np.inf)
        with pytest.raises(NumericalError, match="^non-finite ELBO$"):
            compute_elbo(state, data, lam_big, np.zeros(data.n_classes))

    def test_deterministic(self):
        rng = np.random.default_rng(20)
        data = random_matrix(8, 6, 3, rng)
        cfg = FitConfig(n_components=3, max_iter=20, tol=1e-12, seed=5)
        a = fit(data, cfg)
        b = fit(data, cfg)
        np.testing.assert_array_equal(a.elbo_trace, b.elbo_trace)
        np.testing.assert_array_equal(a.state.W.shape, b.state.W.shape)

    def test_synthetic_convergence(self):
        rng = np.random.default_rng(21)
        thr = default_thresholds(5)
        data, _ = generate_dataset(200, 150, 5, thr, rng, scale=0.3)
        res = fit(data, FitConfig(n_components=5, max_iter=500, seed=0))
        assert res.converged and res.iterations <= 500
        diffs = np.diff(res.elbo_trace)
        slack = 1e-8 * np.abs(res.elbo_trace[:-1])
        assert np.all(diffs >= -slack)

    def test_elbo_monotone_on_random_data(self):
        for seed in range(5):
            rng = np.random.default_rng(300 + seed)
            data = random_matrix(10, 8, 3, rng, density=0.4)
            res = fit(data, FitConfig(n_components=3, max_iter=60, tol=1e-14,
                                      seed=seed))
            diffs = np.diff(res.elbo_trace)
            assert np.all(diffs >= -1e-8 * np.abs(res.elbo_trace[:-1]))


# ELBO traces of six-iteration fits (K=3, seed 1) on a 40x30, V=4 synthetic
# matrix and on its binarization at class 2, one per model corner.
PINNED_TRACES = {
    "ordinal": [-1406.3859009370756, -1392.6583064884662, -1390.6954279165204,
                -1390.1922053600697, -1389.9577298353001, -1389.7459786057805],
    "bepof": [-745.8028209489933, -730.0230630299785, -726.657201732934,
              -725.5377915808581, -725.035397872123, -724.7230012729025],
    "pf": [-801.4838263942779, -798.2560386425571, -797.5655949565762,
           -797.2476229548665, -797.033844488132, -796.8230158174961],
}


def _pinned_fit_inputs(corner):
    data, _ = generate_dataset(40, 30, 3, default_thresholds(4),
                               np.random.default_rng(0), scale=0.3)
    base = FitConfig(n_components=3, tol=1e-300, max_iter=6, seed=1)
    if corner == "ordinal":
        return data, base
    return binarize(data, 2), replace(base, variant=corner)


@pytest.mark.parametrize("corner", sorted(PINNED_TRACES))
def test_elbo_trace_pinned(corner):
    data, cfg = _pinned_fit_inputs(corner)
    res = fit(data, cfg)
    np.testing.assert_allclose(res.elbo_trace, PINNED_TRACES[corner],
                               rtol=1e-12, atol=0)


@pytest.mark.parametrize("corner", sorted(PINNED_TRACES))
def test_fit_same_bits_from_int64_entries(corner):
    # the dtype of the entry arrays changes no bit of the state or trace
    data, cfg = _pinned_fit_inputs(corner)
    assert data.rows.dtype == data.cols.dtype == data.vals.dtype == np.int32
    narrow, wide = fit(data, cfg), fit(widened(data), cfg)
    assert narrow.elbo_trace.tobytes() == wide.elbo_trace.tobytes()
    for side in ("W", "H"):
        a, b = getattr(narrow.state, side), getattr(wide.state, side)
        for name in ("shape", "rate", "beta"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes()
    assert (narrow.state.thresholds.theta.tobytes()
            == wide.state.thresholds.theta.tobytes())


# loads the fit's two SciPy extension modules through the loader, then
# SciPy's packages; prints the scipy modules registered in between, whether
# the packages have the extension modules as attributes, and whether
# SciPy's functions and products are the ones the loader loaded
KERNEL_PROBE = """
import json, sys
from ordnmf.inference import _scipy_extension
special = _scipy_extension("special", "_special_ufuncs")
sparsetools = _scipy_extension("sparse", "_sparsetools")
loaded = sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")
import scipy.special, scipy.sparse
print(json.dumps({
    "loaded": loaded,
    "attributes": [hasattr(scipy.sparse, "_sparsetools"),
                   hasattr(scipy.special, "_special_ufuncs")],
    "digamma": scipy.special.digamma is special.psi,
    "gammaln": scipy.special.gammaln is special.gammaln,
    "products": all(
        getattr(scipy.sparse._compressed._sparsetools, f)
        is getattr(sparsetools, f) for f in ("csr_matvecs", "csc_matvecs"))}))
"""
KERNEL_MODULES = ("scipy.sparse._sparsetools", "scipy.special._special_ufuncs")


class TestScipyKernels:
    @pytest.fixture()
    def fresh_loader(self):
        """The loader's cache, cleared before and after the test, so that
        the loader looks for the modules again under the test's patches."""
        inference._scipy_extension.cache_clear()
        yield
        inference._scipy_extension.cache_clear()

    def test_kernels_are_scipys_own(self):
        src = str(Path(ordnmf.__file__).resolve().parents[1])
        child = subprocess.run(
            [sys.executable, "-c", KERNEL_PROBE], capture_output=True,
            text=True, check=True, env={**os.environ, "PYTHONPATH": src})
        assert json.loads(child.stdout) == {
            "loaded": [], "attributes": [True, True], "digamma": True,
            "gammaln": True, "products": True}
        from scipy import sparse  # the oracle

        rng = np.random.default_rng(49)
        narrow = random_matrix(40, 30, 3, rng, density=0.3)
        for data in (narrow, widened(narrow)):
            U, I = data.n_users, data.n_items
            v = rng.random(data.nnz)
            X, Y = rng.random((I, 5)), rng.random((U, 5))
            A = sparse.csr_matrix((v, data.cols, data.indptr), shape=(U, I))
            # out is zeroed first
            product = inference._sparse_product(data, v, X,
                                                np.full((U, 5), np.nan))
            assert product.tobytes() == (A @ X).tobytes()
            product = inference._sparse_product(
                data, v, Y, np.full((I, 5), np.nan), transposed=True)
            assert product.tobytes() == (A.T @ Y).tobytes()

    def test_product_allocates_no_per_entry_array(self):
        # measured 0.01 B per entry (the int32 copy of indptr); with an
        # int64 indptr beside int32 cols, the kernels' wrapper copied cols
        # to int64 on every call, 8.0 B per entry
        data = TestScalability._matrix(400, 500, 150_000, 47)
        values = np.ones(data.nnz)
        for transposed in (False, True):
            n_out, n_in = ((data.n_items, data.n_users) if transposed
                           else (data.n_users, data.n_items))
            X, out = np.ones((n_in, 4)), np.empty((n_out, 4))
            # loads the kernels and caches indptr, as a fit's first product
            inference._sparse_product(data, values, X, out, transposed)
            tracemalloc.start()
            try:
                inference._sparse_product(data, values, X, out, transposed)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 0.1 * data.nnz, transposed

    @pytest.mark.usefixtures("fresh_loader")
    @pytest.mark.parametrize("case", ["no-scipy", "empty-dir", "bad-file",
                                      "missing-function"])
    def test_missing_kernel_is_an_ordnmf_error(self, monkeypatch, tmp_path,
                                               case):
        for name in KERNEL_MODULES:
            monkeypatch.delitem(sys.modules, name, raising=False)
        version = f"SciPy {importlib.metadata.version('scipy')}"
        if case == "no-scipy":
            def not_installed(name):
                raise importlib.metadata.PackageNotFoundError(name)
            monkeypatch.setattr(importlib.util, "find_spec", lambda name: None)
            monkeypatch.setattr(importlib.metadata, "version", not_installed)
            version = "SciPy not installed"
        elif case in ("empty-dir", "bad-file"):
            spec = importlib.machinery.ModuleSpec("scipy", None,
                                                  is_package=True)
            spec.submodule_search_locations = [str(tmp_path)]
            monkeypatch.setattr(importlib.util, "find_spec", lambda name: spec)
            if case == "bad-file":  # found, but not a shared library
                for name in KERNEL_MODULES:
                    _, package, module = name.split(".")
                    (tmp_path / package).mkdir()
                    (tmp_path / package / (
                        module + importlib.machinery.EXTENSION_SUFFIXES[0])
                     ).write_bytes(b"not a shared library")
        else:  # as if SciPy had loaded a module without the kernels
            for name in KERNEL_MODULES:
                monkeypatch.setitem(sys.modules, name, types.ModuleType(name))
        with pytest.raises(OrdnmfError, match=re.escape(
                "cannot load csr_matvecs, csc_matvecs from "
                f"scipy.sparse._sparsetools ({version}); the fit needs "
                "scipy>=1.17")):
            inference._scipy_extension("sparse", "_sparsetools")
        with pytest.raises(OrdnmfError, match=re.escape(
                "cannot load psi, gammaln from scipy.special._special_ufuncs "
                f"({version})")):
            inference._scipy_extension("special", "_special_ufuncs")

    @pytest.mark.usefixtures("fresh_loader")
    def test_missing_kernel_ends_train_with_one_error_line(
            self, monkeypatch, tmp_path, capsys):
        for name in KERNEL_MODULES:
            monkeypatch.delitem(sys.modules, name, raising=False)
        spec = importlib.machinery.ModuleSpec("scipy", None, is_package=True)
        spec.submodule_search_locations = [str(tmp_path)]
        monkeypatch.setattr(importlib.util, "find_spec", lambda name: spec)
        random_matrix(6, 5, 3, np.random.default_rng(50)).save(
            tmp_path / "train.ordmat")
        model = tmp_path / "model.npz"
        assert main(["train", "--input", str(tmp_path / "train.ordmat"),
                     "--output", str(model), "--k", "2"]) == 1
        err = capsys.readouterr().err
        assert err.splitlines() == [
            "error: cannot load psi, gammaln from "
            "scipy.special._special_ufuncs (SciPy "
            f"{importlib.metadata.version('scipy')}); the fit needs "
            "scipy>=1.17"]
        assert not model.exists()


def test_fit_forms_two_entry_products_per_iteration(monkeypatch):
    calls = []
    real = inference.entry_dot

    def spy(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(inference, "entry_dot", spy)
    data, cfg = _pinned_fit_inputs("ordinal")
    res = fit(data, cfg)
    assert res.iterations == 6
    # Lambda and the class sums' E[lambda], once more before the loop
    assert len(calls) == 2 * (res.iterations + 1)


@pytest.mark.parametrize("width", [1, 7, inference.GATHER_CELLS + 3],
                         ids=["entries", "rows-of-7", "rows-above-block"])
@pytest.mark.parametrize("n", [0, 1, inference.GATHER_CELLS - 1,
                               inference.GATHER_CELLS + 1],
                         ids=["empty", "one", "block-less-one",
                              "block-plus-one"])
def test_blocks_cover_once_in_order(n, width):
    step = max(1, inference.GATHER_CELLS // width)
    slices = list(inference.blocks(n, width))
    bounds = [(s.start, s.stop) for s in slices]
    assert all(s.step is None for s in slices)
    # contiguous from 0 to n, each full but the last, which is not empty
    starts = [start for start, _ in bounds]
    assert [0] + [stop for _, stop in bounds] == starts + [n]
    assert all(stop - start == step for start, stop in bounds[:-1])
    assert all(0 < stop - start <= step for start, stop in bounds[-1:])
    assert len(slices) == -(-n // step)


class TestEntryDot:
    @pytest.mark.parametrize("gather_cells, nnz, K", [
        (16, 0, 4), (16, 3, 4), (16, 12, 4), (16, 13, 4), (16, 5, 20),
        (None, 5000, 1), (None, 20000, 20), (None, 3000, 100), (None, 0, 20)],
        ids=["empty", "below-one-block", "exact-multiple", "ragged-last-block",
             "k-above-block", "default-k1", "default-k20", "default-k100",
             "default-empty"])
    def test_blocks_match_one_shot_einsum(self, monkeypatch, gather_cells,
                                          nnz, K):
        # 16 cells per block: 4 entries at K = 4, one entry at K = 20; the
        # default constant gives several full blocks and a ragged last one
        if gather_cells is not None:
            monkeypatch.setattr(inference, "GATHER_CELLS", gather_cells)
        rng = np.random.default_rng(nnz + K)
        A, B = rng.gamma(0.3, size=(50, K)), rng.gamma(0.3, size=(40, K))
        rows, cols = rng.integers(0, 50, nnz), rng.integers(0, 40, nnz)
        got = inference.entry_dot(A, B, rows, cols)
        want = np.einsum("jk,jk->j", A[rows], B[cols])
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_k_above_gather_cells_one_entry_per_block(self):
        K = inference.GATHER_CELLS + 3
        rng = np.random.default_rng(26)
        A, B = rng.gamma(0.3, size=(5, K)), rng.gamma(0.3, size=(4, K))
        rows, cols = np.array([0, 4, 2]), np.array([3, 3, 0])
        got = inference.entry_dot(A, B, rows, cols)
        for j in range(3):
            one = np.einsum("jk,jk->j", A[rows[j:j + 1]], B[cols[j:j + 1]])
            assert got[j:j + 1].tobytes() == one.tobytes()
        # above numpy's 8192-element iterator buffer, einsum's own sums
        # depend on how many rows it is given, so a one-shot einsum over
        # all three entries may differ in the last bits
        np.testing.assert_allclose(
            got, np.einsum("jk,jk->j", A[rows], B[cols]), rtol=1e-13)

    @pytest.mark.parametrize("side, bad, message", [
        ("rows", -1, "row index -1 outside 0..8"),
        ("rows", 9, "row index 9 outside 0..8"),
        ("cols", -11, "column index -11 outside 0..10"),
        ("cols", 11, "column index 11 outside 0..10")],
        ids=["row-negative", "row-past-end", "col-negative", "col-past-end"])
    def test_index_out_of_range_raises(self, side, bad, message):
        # gathers clamp indices, so the range is checked first; a negative
        # index would otherwise wrap round to the end of the factor
        rng = np.random.default_rng(25)
        A, B = rng.random((9, 3)), rng.random((11, 3))
        idx = {"rows": np.array([0, 8, 2]), "cols": np.array([10, 0, 3])}
        idx[side][1] = bad
        with pytest.raises(IndexError, match=f"^{message}$"):
            inference.entry_dot(A, B, idx["rows"], idx["cols"])

    def test_extra_memory_bounded_by_blocks(self, monkeypatch):
        block_cells, K = 1 << 12, 8
        monkeypatch.setattr(inference, "GATHER_CELLS", block_cells)
        nnz = 64 * block_cells // K  # nnz * K spans 64 blocks
        rng = np.random.default_rng(5)
        A, B = rng.random((300, K)), rng.random((200, K))
        rows, cols = rng.integers(0, 300, nnz), rng.integers(0, 200, nnz)
        tracemalloc.start()
        try:
            out = inference.entry_dot(A, B, rows, cols)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # two one-shot gathers would hold 2 * 64 blocks of cells
        assert peak < out.nbytes + 4 * block_cells * 8

    @staticmethod
    def _csr_cells(n_rows, n_cols, nnz, rng, dtype=np.int32):
        """rows, cols of nnz distinct cells in CSR order."""
        cells = np.sort(rng.choice(n_rows * n_cols, nnz, replace=False))
        return (cells // max(n_cols, 1)).astype(dtype), \
            (cells % max(n_cols, 1)).astype(dtype)

    @staticmethod
    def _strategies(monkeypatch):
        """Counts of entry_dot's BLAS strategy runs, by a spy."""
        calls = []
        real = inference._dense_entry_dot

        def spy(*args):
            calls.append(1)
            return real(*args)
        monkeypatch.setattr(inference, "_dense_entry_dot", spy)
        return calls

    @pytest.mark.parametrize("n_rows, n_cols, nnz, K, dense_cells, dtype", [
        (50, 40, 300, 1, None, np.int32), (50, 40, 300, 3, None, np.int32),
        (50, 40, 300, 100, None, np.int32), (1, 40, 12, 5, None, np.int32),
        (50, 40, 300, 5, 16, np.int32), (50, 40, 300, 5, 160, np.int32),
        (50, 40, 30, 5, 160, np.int64), (50, 40, 0, 5, None, np.int32),
        (0, 40, 0, 5, None, np.int32), (50, 0, 0, 5, None, np.int64)],
        ids=["k1", "k3", "k100", "one-user", "one-row-per-block",
             "four-rows-per-block", "int64-sparse", "no-entries",
             "no-rows", "no-columns"])
    def test_dense_blocks_match_one_shot_einsum(
            self, monkeypatch, n_rows, n_cols, nnz, K, dense_cells, dtype):
        # the rule is forced: every CSR-ordered input takes the BLAS
        # strategy, whose sums differ from einsum's in the last bits
        monkeypatch.setattr(inference, "_dense_cheaper", lambda *args: True)
        if dense_cells is not None:
            monkeypatch.setattr(inference, "DENSE_CELLS", dense_cells)
        calls = self._strategies(monkeypatch)
        rng = np.random.default_rng(n_rows + n_cols + nnz + K)
        A = rng.gamma(0.3, size=(n_rows, K))
        B = rng.gamma(0.3, size=(n_cols, K))
        rows, cols = self._csr_cells(n_rows, n_cols, nnz, rng, dtype)
        got = inference.entry_dot(A, B, rows, cols)
        want = np.einsum("jk,jk->j", A[rows], B[cols])
        assert calls == [1]
        assert got.dtype == want.dtype and got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=1e-13)

    # at 1024 x 1024 cells and K = 20 the rule's boundary is
    # ceil(2^20 * 36 / (16 * 28)) = 84261 entries; the last three inputs
    # store 10-20% of their cells, above that share, and fail only K >= 3,
    # at least 8 blocks of cells and at least 16 rows per block
    @pytest.mark.parametrize("n_rows, n_cols, nnz, K, in_order, dense", [
        (1024, 1024, 84261, 20, True, True),
        (1024, 1024, 84260, 20, True, False),
        (1024, 1024, 84261, 20, False, False),
        (1024, 1024, 209716, 2, True, False),
        (1000, 1000, 100000, 20, True, False),
        (128, 8200, 104960, 20, True, False)],
        ids=["at-boundary", "below-boundary", "out-of-order", "k2",
             "below-8-blocks", "under-16-rows-per-block"])
    def test_rule_picks_strategy(self, monkeypatch, n_rows, n_cols, nnz, K,
                                 in_order, dense):
        calls = self._strategies(monkeypatch)
        rng = np.random.default_rng(27)
        A, B = rng.random((n_rows, K)), rng.random((n_cols, K))
        rows, cols = self._csr_cells(n_rows, n_cols, nnz, rng)
        if not in_order:  # the first and last cells swapped
            rows[[0, -1]], cols[[0, -1]] = rows[[-1, 0]], cols[[-1, 0]]
        got = inference.entry_dot(A, B, rows, cols)
        assert calls == ([1] if dense else [])
        some = slice(None, None, 97)
        np.testing.assert_allclose(
            got[some], np.einsum("jk,jk->j", A[rows[some]], B[cols[some]]),
            rtol=1e-13)

    def test_dense_extra_memory_bounded_by_blocks(self, monkeypatch):
        # one score buffer and one offset scratch of DENSE_CELLS cells each,
        # whatever nnz and U x I (64 blocks of cells here)
        dense_cells, K = 1 << 12, 8
        monkeypatch.setattr(inference, "DENSE_CELLS", dense_cells)
        monkeypatch.setattr(inference, "_dense_cheaper", lambda *args: True)
        calls = self._strategies(monkeypatch)
        rng = np.random.default_rng(28)
        A, B = rng.random((1024, K)), rng.random((256, K))
        rows, cols = self._csr_cells(1024, 256, 1 << 17, rng)
        tracemalloc.start()
        try:
            out = inference.entry_dot(A, B, rows, cols)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert calls == [1]
        assert peak < out.nbytes + 3 * dense_cells * 8

    @pytest.mark.parametrize("side, bad, message", [
        ("rows", -1, "row index -1 outside 0..8"),
        ("rows", 9, "row index 9 outside 0..8"),
        ("cols", -11, "column index -11 outside 0..10"),
        ("cols", 11, "column index 11 outside 0..10")],
        ids=["row-negative", "row-past-end", "col-negative", "col-past-end"])
    def test_index_out_of_range_raises_before_dense_strategy(
            self, monkeypatch, side, bad, message):
        monkeypatch.setattr(inference, "_dense_cheaper", lambda *args: True)
        rng = np.random.default_rng(25)
        A, B = rng.random((9, 3)), rng.random((11, 3))
        idx = {"rows": np.array([0, 2, 8]), "cols": np.array([10, 0, 3])}
        idx[side][0 if bad < 0 else 2] = bad  # rows stay in order
        with pytest.raises(IndexError, match=f"^{message}$"):
            inference.entry_dot(A, B, idx["rows"], idx["cols"])


class TestPredictAndSerialize:
    def test_rank_one_ordering(self):
        rng = np.random.default_rng(22)
        data = random_matrix(4, 6, 2, rng)
        state = random_state_like(data, 1, rng)
        scores = state.W.mean @ state.H.mean.T
        for u in range(4):
            assert np.argsort(scores[u]).tolist() == \
                np.argsort(state.H.mean[:, 0]).tolist()

    def test_expected_class_link_preserves_ordering(self):
        rng = np.random.default_rng(23)
        data = random_matrix(3, 8, 3, rng)
        state = random_state_like(data, 2, rng)
        scores = (state.W.mean @ state.H.mean.T)[0]
        expected = expected_class(state.thresholds, scores)
        assert np.argsort(scores).tolist() == np.argsort(expected).tolist()

    def test_exact_product(self):
        data = OrdinalMatrix(2, 2, 1, [0], [0], [1])
        state = random_state_like(data, 2, np.random.default_rng(24))
        state.W.set(np.array([[1.0, 2.0], [3.0, 4.0]]), np.ones((2, 2)))
        state.H.set(np.array([[1.0, 1.0], [2.0, 0.5]]), np.ones((2, 2)))
        # scores [[3, 3], [7, 8]]: ties listed by ascending item
        [(users, items, lengths, top)] = top_lists(state, [0, 1], None, 2)
        assert users.tolist() == [0, 1] and lengths.tolist() == [2, 2]
        assert items.tolist() == [[0, 1], [1, 0]]
        np.testing.assert_allclose(top, [[3.0, 3.0], [8.0, 7.0]])

    def test_unknown_user_rejected(self):
        data = OrdinalMatrix(2, 2, 1, [0], [0], [1])
        state = random_state_like(data, 2, np.random.default_rng(25))
        with pytest.raises(ConfigError, match=r"^user index 5 outside 0\.\.1$"):
            next(top_lists(state, [0, 5], None, 2))

    @pytest.mark.parametrize("kind", ["text", "empty", "npy", "other-npz",
                                      "truncated", "missing-key", "bad-theta",
                                      "w-rate-shape", "h-rate-shape",
                                      "k-mismatch", "beta-w-length",
                                      "beta-h-length", "nan-w-shape",
                                      "inf-h-rate", "inf-theta"])
    def test_load_state_rejects_other_files(self, tmp_path, kind):
        path = tmp_path / f"model.{kind}"
        if kind in ("text", "empty"):
            path.write_text("a,x,3\n" if kind == "text" else "")
        elif kind in ("npy", "other-npz"):
            with open(path, "wb") as fh:
                (np.save if kind == "npy" else np.savez)(fh, np.ones(3))
        else:
            data = OrdinalMatrix(2, 2, 1, [0], [0], [1])
            with open(path, "wb") as fh:
                save_state(fh, random_state_like(data, 2,
                                                 np.random.default_rng(0)))
            if kind == "truncated":
                path.write_bytes(path.read_bytes()[:200])
            else:
                fields = dict(np.load(path))
                if kind == "missing-key":
                    del fields["w_rate"]
                else:
                    # the saved model has 2 users, 2 items and K = 2
                    fields.update({
                        "bad-theta": {"theta": np.array([0.5, 1.0])},
                        "w-rate-shape": {"w_rate": np.ones((2, 1))},
                        "h-rate-shape": {"h_rate": np.ones(2)},
                        "k-mismatch": {"w_shape": np.ones((2, 3)),
                                       "w_rate": np.ones((2, 3))},
                        "beta-w-length": {"beta_w": np.ones(3)},
                        "beta-h-length": {"beta_h": np.ones(1)},
                        "nan-w-shape": {"w_shape": np.array([[np.nan, 1.0],
                                                             [1.0, 1.0]])},
                        "inf-h-rate": {"h_rate": np.array([[np.inf, 1.0],
                                                           [1.0, 1.0]])},
                        "inf-theta": {"theta": np.array([np.inf])},
                    }[kind])
                with open(path, "wb") as fh:
                    np.savez(fh, **fields)
        with pytest.raises(DataError) as info:
            load_state(path)
        assert str(info.value) == f"{path}: not a valid ordnmf model file"

    def test_roundtrip_reproduces_scores_bit_exactly(self, tmp_path):
        rng = np.random.default_rng(26)
        data = random_matrix(6, 5, 3, rng)
        # distinct prior shapes, so a swapped alpha shows
        res = fit(data, FitConfig(n_components=3, alpha_w=0.4, alpha_h=0.25,
                                  max_iter=10, tol=1e-12))
        path = tmp_path / "model.npz"
        save_state(path, res.state, metadata={"note": "test"})
        loaded, meta = load_state(path)
        assert meta["note"] == "test"
        np.testing.assert_array_equal(loaded.W.mean @ loaded.H.mean.T,
                                      res.state.W.mean @ res.state.H.mean.T)

        def arrays(state):
            return {"theta": state.thresholds.theta,
                    "w_shape": state.W.shape, "w_rate": state.W.rate,
                    "h_shape": state.H.shape, "h_rate": state.H.rate,
                    "beta_w": state.W.beta, "beta_h": state.H.beta,
                    "alpha_w": np.float64(state.W.alpha),
                    "alpha_h": np.float64(state.H.alpha)}

        # schema 1: these keys and no others, each array bit for bit
        want = arrays(res.state)
        with np.load(path) as z:
            assert sorted(z.files) == sorted(
                [*want, "schema_version", "metadata"])
            saved = {key: z[key] for key in want}
        for got in (saved, arrays(loaded)):
            for key, arr in want.items():
                assert got[key].dtype == arr.dtype == np.float64, key
                assert got[key].shape == arr.shape, key
                assert got[key].tobytes() == arr.tobytes(), key


def test_per_iteration_cost_scales_with_nnz():
    # doubling the number of zero cells (same non-zeros) must not blow up
    # the per-iteration cost
    import time

    rng = np.random.default_rng(27)
    base = random_matrix(60, 50, 3, rng, density=0.3)
    wide = OrdinalMatrix(60, 100, 3, base.rows, base.cols, base.vals)

    def time_iteration(data):
        state = random_state_like(data, 5, np.random.default_rng(0))
        best = np.inf
        for _ in range(7):
            s = copy.deepcopy(state)
            t0 = time.perf_counter()
            iterate(s, data, entry_intensities(s, data), "ordinal")
            best = min(best, time.perf_counter() - t0)
        return best

    t_base = time_iteration(base)
    t_wide = time_iteration(wide)
    assert t_wide < 1.3 * t_base + 2e-3


@pytest.mark.parametrize("first, second, what", [
    (0.0, np.nan, "not finite and positive"),
    (np.nan, 0.0, "not finite and positive"),
    (np.inf, -1.0, "not finite and positive"),
    (5e-324, 0.0, "below 2.225e-308")],
    ids=["zero-nan", "nan-zero", "inf-negative", "subnormal-zero"])
def test_require_positive_names_first_bad_entry(first, second, what):
    # min/max say that some entry is bad; the error still names the first
    data = OrdinalMatrix(3, 4, 2, [0, 1, 2, 2], [3, 0, 1, 2], [1, 2, 1, 2])
    lam = np.array([1.0, first, second, 2.0])
    with pytest.raises(NumericalError, match=re.escape(
            f"intensity {first} at (u=1, i=0) is {what}")):
        inference.require_positive(lam, data)
    ok = np.array([1.0, np.finfo(float).tiny, 2.0, 1e308])
    assert inference.require_positive(ok, data) is ok


class TestScalability:
    """The abstract's "preserves the scalability of PF", as memory: the
    tracemalloc peak of a fit is within A * nnz * 8 + B * (U + I) * K * 8
    bytes, so it holds no nnz x K and no U x I array.  Measured: peak ~=
    5.3 nnz * 8 + 7.2 (U + I) K * 8 (fits of 2 iterations, K = 100, nnz
    10k to 110k, U + I 350 to 2800), so A = 8 and B = 12 leave ~1.5x."""

    A, B, K = 8, 12, 100

    @staticmethod
    def _matrix(n_users, n_items, nnz, seed):
        rng = np.random.default_rng(seed)
        cells = rng.choice(n_users * n_items, size=nnz, replace=False)
        return OrdinalMatrix(n_users, n_items, 5, cells // n_items,
                             cells % n_items, rng.integers(1, 6, nnz))

    def _peak(self, data):
        cfg = FitConfig(n_components=self.K, max_iter=2, tol=1e-300)
        fit(self._matrix(6, 5, 20, 0), replace(cfg, n_components=2))
        tracemalloc.start()
        try:
            fit(data, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        bound = (self.A * data.nnz * 8
                 + self.B * (data.n_users + data.n_items) * self.K * 8)
        assert peak < bound
        return peak

    def test_peak_linear_in_nnz_and_rows(self):
        # one nnz x K float64 array (64 MB) would exceed the bound (~12 MB)
        # five times over
        data = self._matrix(400, 300, 80_000, 43)
        assert data.nnz * self.K * 8 > 5 * (
            self.A * data.nnz * 8
            + self.B * (data.n_users + data.n_items) * self.K * 8)
        self._peak(data)

    # bounds on a 3-iteration fit's traced peak above its final state, in
    # units of (U + I) K * 8 bytes where few entries leave the dense work
    # to set it, and of nnz * 8 bytes where many entries at K = 2 leave it
    # to the per-entry work; README.md states both
    DENSE_TRANSIENT, ENTRY_TRANSIENT = 1.1, 2.2

    def _transient(self, data, K):
        cfg = FitConfig(n_components=K, max_iter=3, tol=1e-300)
        fit(self._matrix(6, 5, 20, 0), replace(cfg, n_components=2))
        tracemalloc.start()
        try:
            result = fit(data, cfg)  # kept: its state is the final memory
            final, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.iterations == 3
        return peak - final

    def test_transient_peak_over_final_state(self):
        # measured ~0.82: the ELBO's fixed scratch (three row blocks of
        # GATHER_CELLS cells, 0.66 here) and block buffers, now that the
        # sparse products write into the state's arrays.  With SciPy's
        # fresh product of one side it was ~0.85, with the allocation
        # totals beside the old shapes ~1.9, and ~2.7 with a fresh rate
        # array per update and the ELBO's gamma terms over whole factors
        data = self._matrix(4000, 1000, 4000, 46)
        K = 30
        assert self._transient(data, K) < (
            self.DENSE_TRANSIENT * (data.n_users + data.n_items) * K * 8)

    # the functions iterate calls, one per phase
    PHASES = ("local_update", "update_factors", "class_sums",
              "entry_intensities", "update_thresholds",
              "update_rate_hyperparams", "compute_elbo")

    def test_no_phase_allocates_a_factor_array(self, monkeypatch):
        # each phase's traced peak above what it starts with, in units of
        # one factor's (rows x K) array: measured ~0.31 at most (the ELBO's
        # gamma-term scratch and block buffers), 0.12 in the local step and
        # 0.04 in the factor update; when SciPy's products returned fresh
        # arrays, these two took ~1.01 each
        data = self._matrix(10_000, 10_000, 20_000, 48)
        K = 50
        state = init_state(FitConfig(n_components=K), data)
        lam_big = np.empty(data.nnz)
        class_sums(state, data, out=lam_big)
        entry_intensities(state, data, out=lam_big)
        iterate(state, data, lam_big, "ordinal")  # loads the kernels
        peaks = {}

        def traced(name):
            real = getattr(inference, name)

            def run(*args, **kwargs):
                start = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                try:
                    return real(*args, **kwargs)
                finally:
                    peaks[name] = tracemalloc.get_traced_memory()[1] - start
            monkeypatch.setattr(inference, name, run)

        for name in self.PHASES:
            traced(name)
        tracemalloc.start()
        try:
            iterate(state, data, lam_big, "ordinal")
        finally:
            tracemalloc.stop()
        factor = data.n_users * K * 8
        assert {name: peak / factor < 0.5 for name, peak in peaks.items()} \
            == dict.fromkeys(self.PHASES, True), peaks

    def test_transient_peak_over_final_state_in_entries(self):
        # measured ~1.7: Lambda, the one length-nnz array of an iteration,
        # plus the ELBO's block buffers (GATHER_CELLS entries, 0.22 nnz * 8
        # each here).  With fresh length-nnz arrays for vals - 1, E[n], the
        # rate weights, the new Lambda and the ELBO's terms it was ~5.1
        data = self._matrix(400, 500, 150_000, 47)
        assert self._transient(data, 2) < self.ENTRY_TRANSIENT * data.nnz * 8

    def test_peak_flat_in_cells(self):
        # U x I grows 50x at the same nnz and U + I; one dense U x I
        # float64 array (8 MB) would add ~60% to the first peak
        skewed = self._peak(self._matrix(1990, 10, 10_000, 44))
        square = self._peak(self._matrix(1000, 1000, 10_000, 44))
        assert square < 1.1 * skewed


class TestClassScaling:
    """A fit's work grows with the occupied classes, not with V: the same
    entries, labelled with V = 3 and relabelled 1, 2, 3 -> 1, V/2, V at
    V = 2000, make the same calls, and the larger V adds at most
    C * V * 8 bytes to the tracemalloc peak of a 2-iteration fit and a
    ppc_histogram (length-V arrays: thresholds, class sums, histograms,
    the list of floored classes).  Measured: ~14 V * 8, so C = 32 leaves
    ~2x; one 0/1 CSR per class added ~126 V * 8 and 2000 sparse products."""

    C, V = 32, 2000

    @staticmethod
    def _run(data, monkeypatch):
        calls = {}

        def spy(patch, owner, name):
            real = getattr(owner, name)

            def counted(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return real(*args, **kwargs)
            patch.setattr(owner, name, counted)

        cfg = FitConfig(n_components=3, max_iter=2, tol=1e-300)
        with monkeypatch.context() as patch:
            spy(patch, inference, "_sparse_product")
            spy(patch, inference, "entry_dot")
            spy(patch, ThresholdSequence, "inverse_cdf")
            tracemalloc.start()
            try:
                state = fit(data, cfg).state
                ppc_histogram(state, data, np.random.default_rng(0),
                              n_cells=1000)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        return calls, peak

    def test_calls_and_peak_flat_in_v(self, monkeypatch):
        small = random_matrix(30, 20, 3, np.random.default_rng(45))
        relabel = np.array([0, 1, self.V // 2, self.V])
        large = OrdinalMatrix(30, 20, self.V, small.rows, small.cols,
                              relabel[small.vals])
        self._run(small, monkeypatch)  # imports are not the fit's memory
        calls_small, peak_small = self._run(small, monkeypatch)
        calls_large, peak_large = self._run(large, monkeypatch)
        assert calls_small["inverse_cdf"] == 1  # ppc's one sub-block
        assert calls_large == calls_small
        assert peak_large - peak_small <= self.C * self.V * 8


def _triplets(dense):
    dense = np.asarray(dense)
    rows, cols = np.nonzero(dense)
    return rows, cols, dense[rows, cols]


def _denominator(state, data, l):
    e_lam = state.W.mean @ state.H.mean.T
    y = dense(data)
    return e_lam[y <= l].sum()
