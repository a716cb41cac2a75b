"""Observation-model checks: thresholds, p.m.f., c.d.f., sampling."""

import tracemalloc

import numpy as np
import pytest

from ordnmf.model import ThresholdSequence, log1mexp

from oracles import (cdf, expected_class, pmf, pmf_all, quantize,
                     sample_class_table)


def random_thresholds(n_classes, rng):
    return ThresholdSequence.from_delta(rng.uniform(0.1, 1.0, size=n_classes))


class TestThresholdSequence:
    def test_validation(self):
        with pytest.raises(ValueError):
            ThresholdSequence([1.0, 1.5])  # increasing
        with pytest.raises(ValueError):
            ThresholdSequence([1.0, -0.5])
        with pytest.raises(ValueError, match="finite"):
            ThresholdSequence([np.inf, 1.0])
        with pytest.raises(ValueError):
            ThresholdSequence.from_delta([0.5, 0.0])

    def test_argument_stays_writeable(self):
        theta = np.array([1.0, 0.5])
        thr = ThresholdSequence(theta)
        assert theta.flags.writeable
        theta[0] = 2.0
        assert thr.theta[0] == 1.0
        for frozen in (thr.theta, thr.delta):
            with pytest.raises(ValueError, match="read-only"):
                frozen[0] = 3.0

    def test_delta_reconstruction_roundtrip(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            thr = random_thresholds(int(rng.integers(1, 9)), rng)
            back = ThresholdSequence.from_delta(thr.delta)
            np.testing.assert_allclose(back.theta, thr.theta, rtol=1e-14)

    def test_b_increasing(self):
        thr = random_thresholds(6, np.random.default_rng(1))
        assert np.all(np.diff(1.0 / thr.theta) > 0)


class TestQuantize:
    # theta = (1, 1/2, 1/5) gives raw thresholds b = (1, 2, 5)
    thr = ThresholdSequence([1.0, 0.5, 0.2])

    def test_below_first(self):
        assert quantize(self.thr, 0.5) == 0
        assert quantize(self.thr, 0.0) == 0

    def test_left_closed(self):
        # x exactly on a threshold belongs to the upper class
        assert quantize(self.thr, 2.0) == 2

    def test_above_last(self):
        assert quantize(self.thr, 7.0) == 3

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            quantize(self.thr, -1.0)


class TestCdf:
    def test_top_class_is_one(self):
        thr = random_thresholds(4, np.random.default_rng(2))
        for lam in (0.01, 1.0, 50.0):
            assert cdf(thr, 4, lam) == 1.0

    def test_small_lambda_limit(self):
        thr = random_thresholds(4, np.random.default_rng(3))
        for v in range(5):
            assert cdf(thr, v, 1e-14) == pytest.approx(1.0, abs=1e-12)

    def test_analytic_value(self):
        thr = ThresholdSequence([1.0])
        assert cdf(thr, 0, np.log(2.0)) == pytest.approx(0.5, rel=1e-14)

    def test_monotone_in_class_and_lambda(self):
        rng = np.random.default_rng(4)
        thr = random_thresholds(5, rng)
        for lam in rng.uniform(0.01, 5.0, size=10):
            vals = [cdf(thr, v, lam) for v in range(6)]
            assert np.all(np.diff(vals) >= 0)
        lams = np.linspace(0.01, 5, 40)
        for v in range(5):
            assert np.all(np.diff([cdf(thr, v, l) for l in lams]) < 0)

    def test_range_check(self):
        thr = random_thresholds(3, np.random.default_rng(5))
        with pytest.raises(ValueError):
            cdf(thr, 4, 1.0)


class TestPmf:
    def test_normalization(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            thr = random_thresholds(int(rng.integers(1, 8)), rng)
            lam = rng.uniform(1e-3, 20.0)
            assert abs(pmf_all(thr, lam).sum() - 1.0) < 1e-12

    def test_binary_special_case(self):
        thr = ThresholdSequence([1.0])
        for lam in (0.1, 1.0, 3.0):
            assert pmf(thr, 1, lam) == pytest.approx(-np.expm1(-lam), rel=1e-14)

    def test_analytic_middle_class(self):
        thr = ThresholdSequence([2.0, 1.0])
        expected = np.exp(-1.0) - np.exp(-2.0)
        assert pmf(thr, 1, 1.0) == pytest.approx(expected, rel=1e-14)
        assert abs(expected - 0.23254) < 1e-5

    def test_values_in_unit_interval(self):
        rng = np.random.default_rng(7)
        thr = random_thresholds(5, rng)
        for lam in rng.uniform(1e-4, 30, size=20):
            p = pmf_all(thr, lam)
            assert np.all(p >= 0) and np.all(p <= 1)


class TestLogPmf:
    def test_matches_pmf(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            thr = random_thresholds(int(rng.integers(1, 7)), rng)
            lam = rng.uniform(0.05, 10.0)
            for v in range(thr.n_classes + 1):
                np.testing.assert_allclose(np.exp(thr.log_pmf(v, lam)),
                                           pmf(thr, v, lam), rtol=1e-12)

    def test_class_zero_exact(self):
        thr = ThresholdSequence([0.7, 0.3])
        lam = 1.37
        assert thr.log_pmf(0, lam) == -lam * 0.7

    def test_tiny_argument_stable(self):
        import mpmath

        mpmath.mp.dps = 50
        thr = ThresholdSequence.from_delta([1e-12, 1.0])
        lam = 1.0
        x = lam * thr.delta[0]  # ~1e-12 up to float64 representation
        got = thr.log_pmf(1, lam)
        ref = float(-lam * thr.theta[1]
                    + mpmath.log(1 - mpmath.exp(-mpmath.mpf(x))))
        assert np.isfinite(got)
        np.testing.assert_allclose(got, ref, rtol=1e-12)
        # magnitude sanity: dominated by log of the tiny decrement
        assert got == pytest.approx(-lam * thr.theta[1] + np.log(x), abs=1e-6)

    def test_vectorized(self):
        thr = ThresholdSequence([1.0, 0.4])
        v = np.array([0, 1, 2])
        lam = np.array([0.5, 1.0, 2.0])
        out = thr.log_pmf(v, lam)
        assert out.shape == (3,)
        for j in range(3):
            assert out[j] == pytest.approx(thr.log_pmf(int(v[j]), float(lam[j])))


class TestExpectedClass:
    def test_zero_at_zero(self):
        thr = random_thresholds(4, np.random.default_rng(9))
        assert expected_class(thr, 0.0) == 0.0

    def test_limit_at_infinity(self):
        thr = random_thresholds(4, np.random.default_rng(10))
        assert expected_class(thr, 1e9) == pytest.approx(4.0, abs=1e-9)

    def test_analytic_value(self):
        thr = ThresholdSequence([1.0])
        assert expected_class(thr, 1.0) == pytest.approx(1 - np.exp(-1), rel=1e-12)

    def test_strictly_increasing_on_grid(self):
        thr = random_thresholds(5, np.random.default_rng(11))
        grid = np.linspace(0.0, 20.0, 200)
        vals = expected_class(thr, grid)
        assert np.all(np.diff(vals) > 0)
        assert np.all(vals >= 0) and np.all(vals <= 5)


class TestSampleClass:
    def test_deterministic_given_seed(self):
        thr = random_thresholds(4, np.random.default_rng(12))
        lam = np.full(100, 1.3)
        a = thr.sample_class(lam, np.random.default_rng(99))
        b = thr.sample_class(lam, np.random.default_rng(99))
        np.testing.assert_array_equal(a, b)

    def test_tiny_lambda_gives_zero(self):
        thr = random_thresholds(3, np.random.default_rng(13))
        for lam in (1e-12, 0.0):
            draws = thr.sample_class(np.full(1000, lam),
                                     np.random.default_rng(0))
            assert np.all(draws == 0)

    def test_subnormal_lambda_gives_zero_without_overflow(self):
        # -log(u) / lambda overflows to +inf here; the CLI raises on
        # overflow, so the sampler must not
        thr = random_thresholds(3, np.random.default_rng(13))
        lam = np.array([1e-310, 5e-324, 1e-300])
        with np.errstate(over="raise"):
            got = thr.sample_class(lam, np.random.default_rng(14))
            for x in lam:
                assert thr.sample_class(x, np.random.default_rng(14)) == 0
        u = np.random.default_rng(14).random(size=lam.shape)
        np.testing.assert_array_equal(got, [0, 0, 0])
        np.testing.assert_array_equal(got, sample_class_table(thr, lam, u))

    @pytest.mark.parametrize("lam", [-1e-12, np.nan])
    def test_negative_or_nan_lambda_rejected(self, lam):
        thr = random_thresholds(3, np.random.default_rng(13))
        with pytest.raises(ValueError, match="requires lambda >= 0"):
            thr.sample_class(np.array([1.0, lam]), np.random.default_rng(0))

    def test_matches_cdf_table_draw_for_draw(self):
        thr = random_thresholds(10, np.random.default_rng(15))
        lam = np.random.default_rng(16).gamma(0.5, 2.0, size=20_000) + 1e-9
        got = thr.sample_class(lam, np.random.default_rng(17))
        u = np.random.default_rng(17).random(size=lam.shape)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, sample_class_table(thr, lam, u))
        # one scalar draw at a time takes the same path
        sampler = np.random.default_rng(18)
        uniforms = np.random.default_rng(18)
        for x in lam[:150]:
            v = thr.sample_class(x, sampler)
            assert type(v) is int
            assert v == sample_class_table(thr, x, uniforms.random(size=()))

    def test_large_v_matches_cdf_table(self):
        # one binary search per cell, not one pass per class
        thr = ThresholdSequence(np.geomspace(50.0, 1e-3, 20_000))
        lam = np.random.default_rng(22).gamma(0.5, 2.0, size=100) + 1e-9
        got = thr.sample_class(lam, np.random.default_rng(23))
        u = np.random.default_rng(23).random(size=lam.shape)
        np.testing.assert_array_equal(got, sample_class_table(thr, lam, u))
        assert len(np.unique(got)) > 10

    def test_extra_memory_linear_in_cells(self):
        # a (n, V+1) float64 table alone would take 88 bytes per cell here
        thr = random_thresholds(10, np.random.default_rng(19))
        n = 100_000
        lam = np.random.default_rng(20).gamma(0.5, 2.0, size=n) + 1e-9
        tracemalloc.start()
        try:
            thr.sample_class(lam, np.random.default_rng(21))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * n

    def test_frequencies_match_pmf(self):
        rng = np.random.default_rng(14)
        thr = random_thresholds(4, rng)
        lam = 1.7
        n = 1_000_000
        draws = thr.sample_class(np.full(n, lam), rng)
        freq = np.bincount(draws, minlength=5) / n
        p = pmf_all(thr, lam)
        se = np.sqrt(p * (1 - p) / n)
        assert np.all(np.abs(freq - p) < 4 * se + 1e-12)


class TestLog1mexp:
    def test_both_branches(self):
        import mpmath

        mpmath.mp.dps = 50
        for x in (1e-10, 0.1, 0.5, np.log(2.0), 1.0, 5.0, 40.0):
            ref = float(mpmath.log(1 - mpmath.exp(-mpmath.mpf(x))))
            np.testing.assert_allclose(log1mexp(x), ref, rtol=1e-13)

    def test_domain(self):
        with pytest.raises(ValueError):
            log1mexp(0.0)
