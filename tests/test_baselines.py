"""Binary special cases: binarization and the restricted configurations."""

import tracemalloc

import numpy as np
import pytest

from ordnmf.baselines import binarize
from ordnmf.data import OrdinalMatrix
from ordnmf.errors import ConfigError
from ordnmf.inference import FitConfig, fit
from ordnmf.model import ThresholdSequence

from oracles import dense, local_step, pmf, random_matrix


class TestBinarize:
    def test_lowest_threshold_keeps_all(self):
        rng = np.random.default_rng(0)
        mat = random_matrix(6, 5, 4, rng)
        out = binarize(mat, 1)
        assert out.nnz == mat.nnz and out.n_classes == 1
        assert np.all(out.vals == 1)

    def test_counts_surviving_threshold(self):
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
        np.testing.assert_array_equal(dense(out), dense(mat))

    def test_binarize_peak_within_its_arrays(self):
        # the kept arrays (12 bytes per kept entry, read-only, so the matrix
        # keeps them), the mask and one cell key per kept entry: ~1.9x the
        # arrays measured.  Values from a list of ints, and copies of the
        # gathered arrays, took ~2.7x the then 24-byte arrays
        rng = np.random.default_rng(4)
        nnz = 200_000
        cells = np.sort(rng.choice(2000 * 1500, size=nnz, replace=False))
        mat = OrdinalMatrix(2000, 1500, 5, cells // 1500, cells % 1500,
                            rng.integers(1, 6, nnz))
        tracemalloc.start()
        try:
            out = binarize(mat, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        keep = mat.vals >= 3
        np.testing.assert_array_equal(out.rows, mat.rows[keep])
        np.testing.assert_array_equal(out.cols, mat.cols[keep])
        assert out.vals.dtype == np.int32 and np.all(out.vals == 1)
        stored = sum(a.nbytes for a in (out.rows, out.cols, out.vals))
        assert peak < 2 * stored + nnz


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
            assert pmf(thr, 1, lam) == pytest.approx(-np.expm1(-lam), rel=1e-14)

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
        # local_step checks that 1 / Lambda was written over Lambda
        stats, _, _ = local_step(res.state, data, point_mass=True)
        np.testing.assert_array_equal(stats.n_by_class, data.class_counts)
