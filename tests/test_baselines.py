"""Binary special cases: binarization and the restricted configurations."""

import numpy as np
import pytest

from ordnmf.baselines import binarize
from ordnmf.errors import ConfigError
from ordnmf.inference import FitConfig, entry_intensities, fit, local_update
from ordnmf.model import ThresholdSequence

from oracles import bepof_iteration, random_matrix, random_state_like


class TestBinarize:
    def test_lowest_threshold_keeps_all(self):
        rng = np.random.default_rng(0)
        mat = random_matrix(6, 5, 4, rng)
        out = binarize(mat, 1)
        assert out.nnz == mat.nnz and out.n_classes == 1
        assert np.all(out.vals == 1)

    def test_counts_surviving_threshold(self):
        from ordnmf.data import OrdinalMatrix

        mat = OrdinalMatrix(3, 3, 9, [0, 1, 2], [0, 1, 2], [1, 8, 9])
        out = binarize(mat, 8)
        assert out.nnz == 2

    def test_out_of_range_threshold(self):
        rng = np.random.default_rng(1)
        mat = random_matrix(4, 4, 3, rng)
        with pytest.raises(ConfigError):
            binarize(mat, 4)
        with pytest.raises(ConfigError):
            binarize(mat, 0)

    def test_idempotent_on_binary(self):
        rng = np.random.default_rng(2)
        mat = random_matrix(5, 5, 1, rng)
        out = binarize(mat, 1)
        np.testing.assert_array_equal(out.to_dense(), mat.to_dense())


class TestConfigs:
    def test_unknown_variant_rejected(self):
        with pytest.raises(ConfigError, match=r"variant 'BePoF' not in "
                                              r"\('ordinal', 'bepof', 'pf'\)"):
            FitConfig(n_components=2, variant="BePoF")

    @pytest.mark.parametrize("variant", ["bepof", "pf"])
    def test_binary_variant_needs_binary_data(self, variant):
        data = random_matrix(5, 4, 3, np.random.default_rng(3))
        with pytest.raises(ConfigError, match=f"variant '{variant}' needs "
                                              r"binary data \(V = 1\), got V = 3"):
            fit(data, FitConfig(n_components=2, variant=variant))

    def test_binary_pmf_is_bernoulli_complement(self):
        thr = ThresholdSequence([1.0])
        for lam in (0.2, 1.0, 4.0):
            assert thr.pmf(1, lam) == pytest.approx(-np.expm1(-lam), rel=1e-14)

    def test_thresholds_frozen_during_fit(self):
        rng = np.random.default_rng(4)
        data = random_matrix(8, 6, 1, rng)
        cfg = FitConfig(n_components=2, max_iter=100, tol=1e-14,
                        variant="bepof")
        res = fit(data, cfg)
        assert res.state.thresholds.theta.tolist() == [1.0]

    def test_point_mass_counts_during_fit(self):
        rng = np.random.default_rng(5)
        data = random_matrix(8, 6, 1, rng)
        cfg = FitConfig(n_components=2, max_iter=20, tol=1e-14, variant="pf")
        res = fit(data, cfg)
        stats = local_update(res.state, data,
                             entry_intensities(res.state, data),
                             point_mass=True)
        np.testing.assert_array_equal(stats.e_n, 1.0)


class TestReductions:
    def _one_library_iteration(self, data, cfg, seed=7):
        from ordnmf.inference import update_factors

        state = random_state_like(data, cfg.n_components,
                                  np.random.default_rng(seed),
                                  alpha_w=cfg.alpha_w, alpha_h=cfg.alpha_h)
        state.thresholds = ThresholdSequence([1.0])
        stats = local_update(state, data, entry_intensities(state, data),
                             cfg.variant == "pf")
        update_factors(state, data, stats)
        return state

    @pytest.mark.parametrize("point_mass", [False, True])
    def test_factor_updates_match_standalone_binary_model(self, point_mass):
        rng = np.random.default_rng(8)
        data = random_matrix(4, 3, 1, rng, density=0.6)
        cfg = FitConfig(n_components=2, variant="pf" if point_mass else "bepof")

        ref_state = random_state_like(data, 2, np.random.default_rng(7),
                                      alpha_w=cfg.alpha_w, alpha_h=cfg.alpha_h)
        ref = bepof_iteration(
            ref_state.W.shape.copy(), ref_state.W.rate.copy(),
            ref_state.H.shape.copy(), ref_state.H.rate.copy(),
            data.to_dense(), cfg.alpha_w, cfg.alpha_h,
            ref_state.W.beta, ref_state.H.beta,
            point_mass_counts=point_mass)

        state = self._one_library_iteration(data, cfg)
        np.testing.assert_allclose(state.W.shape, ref[0], rtol=1e-12)
        np.testing.assert_allclose(state.W.rate, ref[1], rtol=1e-12)
        np.testing.assert_allclose(state.H.shape, ref[2], rtol=1e-12)
        np.testing.assert_allclose(state.H.rate, ref[3], rtol=1e-12)
