"""Acceptance gate: one test per release criterion, each printing a
PASS/FAIL line (run with -s to see them on success).

The generative-recovery and ranking-ordering criteria share one synthetic
dataset (500 x 400, K=10, V=5, ~16% dense) whose normalized thresholds the
fit recovers to about 1%.  Because the model is scale-invariant under
(lambda, theta) -> (c*lambda, theta/c), recovered thresholds are compared
after normalizing theta_0 = 1, and distribution-level statistics (expected
class curve, class histogram) are the recovery targets.
"""

import copy
import functools
import time
from dataclasses import replace

import numpy as np
import pytest

from ordnmf.baselines import binarize
from ordnmf.data import train_test_split
from ordnmf.evaluation import evaluate_ranking, ppc_histogram
from ordnmf.inference import (FitConfig, class_sums, compute_elbo,
                              entry_intensities, fit, iterate, local_update,
                              update_factors, update_thresholds, ztp_mean)
from ordnmf.model import ThresholdSequence
from ordnmf.synthetic import default_thresholds, generate_dataset

from oracles import (bepof_iteration, cdf, dense, dense_iteration,
                     elbo_bruteforce, expected_class, pmf, pmf_all, quantize,
                     random_matrix, random_state_like, threshold_objective,
                     ztp_mean_series)


def _report(number, label):
    """Decorator printing a single PASS/FAIL line per criterion."""
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number} [{label}]: FAIL")
                raise
            print(f"criterion {number} [{label}]: PASS")
        return run
    return wrap


@pytest.fixture(scope="module")
def recovery_setup():
    """Shared 500x400 synthetic dataset plus a converged fit on it."""
    rng = np.random.default_rng(42)
    thr = default_thresholds(5)
    data, truth = generate_dataset(500, 400, 10, thr, rng, scale=0.02)
    t0 = time.perf_counter()
    result = fit(data, FitConfig(n_components=10, tol=1e-8, max_iter=500,
                                 seed=0))
    return dict(data=data, truth=truth, thresholds=thr, result=result,
                fit_seconds=time.perf_counter() - t0)


@_report(1, "elbo brute-force equivalence")
def test_criterion_1_elbo_bruteforce():
    rng = np.random.default_rng(11)
    data = random_matrix(4, 3, 3, rng)
    state = random_state_like(data, 2, rng)
    t0 = time.perf_counter()
    fast = compute_elbo(state, data, entry_intensities(state, data),
                        class_sums(state, data))
    slow = elbo_bruteforce(state, data, n_max=500)
    elapsed = time.perf_counter() - t0
    np.testing.assert_allclose(fast, slow, rtol=1e-8)
    assert elapsed < 1.0, f"elbo oracle comparison took {elapsed:.2f}s"


def _criterion_2_cases():
    """(variant, data, state): ordinal on 6 x 5 matrices, seeds 0-19 at
    V 2-4, K = 3; bepof and pf on V = 1 matrices, seeds 200-209, K = 3."""
    for seed in range(20):
        rng = np.random.default_rng(seed)
        data = random_matrix(6, 5, int(rng.integers(2, 5)), rng)
        yield "ordinal", data, random_state_like(data, 3, rng)
    for seed in range(200, 210):
        for variant in ("bepof", "pf"):
            rng = np.random.default_rng(seed)
            data = random_matrix(6, 5, 1, rng)
            yield variant, data, random_state_like(data, 3, rng)


@_report(2, "sparse/dense update equivalence")
def test_criterion_2_sparse_dense():
    t0 = time.perf_counter()
    for variant, data, state in _criterion_2_cases():
        ref = dense_iteration(copy.deepcopy(state), data,
                              pf_approximation=variant == "pf",
                              learn_thresholds=variant == "ordinal")
        iterate(state, data, entry_intensities(state, data), variant)
        for got, want in zip((state.W.shape, state.W.rate, state.H.shape,
                              state.H.rate, state.thresholds.theta,
                              state.W.beta, state.H.beta), ref):
            np.testing.assert_allclose(got, want, rtol=1e-10)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"40-case equivalence sweep took {elapsed:.2f}s"


@_report(3, "elbo monotone for 200 iterations on 5 datasets")
def test_criterion_3_monotonicity():
    t0 = time.perf_counter()
    for seed in range(5):
        rng = np.random.default_rng(100 + seed)
        data, _ = generate_dataset(200, 150, 5, default_thresholds(5), rng,
                                   scale=0.05)
        result = fit(data, FitConfig(n_components=5, tol=1e-300,
                                     max_iter=201, seed=seed))
        trace = np.asarray(result.elbo_trace)
        assert trace.size >= 201, "stalled before 200 iterations"
        drops = np.diff(trace) + 1e-8 * np.abs(trace[:-1])
        assert np.all(drops >= 0.0)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"monotonicity sweep took {elapsed:.2f}s"


@_report(4, "binary-model and point-mass reductions")
def test_criterion_4_reductions():
    rng = np.random.default_rng(8)
    data = random_matrix(4, 3, 1, rng, density=0.6)
    for variant in ("bepof", "pf"):
        cfg = FitConfig(n_components=2, variant=variant)
        state = random_state_like(data, 2, np.random.default_rng(7),
                                  alpha_w=cfg.alpha_w, alpha_h=cfg.alpha_h)
        state.thresholds = ThresholdSequence([1.0])
        ref = bepof_iteration(
            state.W.shape.copy(), state.W.rate.copy(),
            state.H.shape.copy(), state.H.rate.copy(),
            dense(data), cfg.alpha_w, cfg.alpha_h,
            state.W.beta, state.H.beta,
            point_mass_counts=variant == "pf")
        # W and H are final before the rate refit, which the oracle omits
        iterate(state, data, entry_intensities(state, data), variant)
        np.testing.assert_allclose(state.W.shape, ref[0], rtol=1e-12)
        np.testing.assert_allclose(state.W.rate, ref[1], rtol=1e-12)
        np.testing.assert_allclose(state.H.shape, ref[2], rtol=1e-12)
        np.testing.assert_allclose(state.H.rate, ref[3], rtol=1e-12)


@_report(5, "class-probability core suite")
def test_criterion_5_model_core():
    # the reference model (oracles.cdf, pmf, quantize) against its
    # generative definition, then the library's log_pmf and sample_class
    # against the reference
    rng = np.random.default_rng(21)
    sampler = np.random.default_rng(22)
    grid = np.linspace(0.01, 20, 200)
    for _ in range(3):
        delta = rng.uniform(0.05, 1.0, size=4)
        thr = ThresholdSequence.from_delta(delta)
        lam = float(rng.uniform(0.1, 4.0))
        classes = np.arange(thr.n_classes + 1)

        probs = pmf_all(thr, lam)
        np.testing.assert_allclose(probs.sum(), 1.0, atol=1e-12)
        for v in range(thr.n_classes):
            c = cdf(thr, v, grid)
            assert np.all(np.diff(c) <= 0)  # decreasing in lambda
            assert np.all(c <= cdf(thr, v + 1, grid) + 1e-15)

        # Monte-Carlo check of pmf against the multiplicative-noise
        # generative definition: quantize lambda/gamma(1) draws.
        n = 1_000_000
        eps = 1.0 / rng.gamma(1.0, size=n)
        counts = np.bincount(quantize(thr, lam * eps),
                             minlength=thr.n_classes + 1)
        freq = counts / n
        sigma = np.sqrt(probs * (1 - probs) / n)
        assert np.all(np.abs(freq - probs) <= 4.0 * sigma + 1e-12)

        # log_pmf, used by the held-out likelihood, over every class
        np.testing.assert_allclose(
            thr.log_pmf(classes[:, None], grid),
            np.log(pmf(thr, classes[:, None], grid)), rtol=1e-10, atol=1e-10)

        # sample_class, used by ppc and generate_dataset
        draws = thr.sample_class(np.full(n, lam), sampler)
        assert draws.min() >= 0 and draws.max() <= thr.n_classes
        freq = np.bincount(draws, minlength=thr.n_classes + 1) / n
        assert np.all(np.abs(freq - probs) <= 4.0 * sigma + 1e-12)

    for x in (1e-6, 0.05, 0.7, 3.0, 12.0):
        np.testing.assert_allclose(ztp_mean(x), ztp_mean_series(x),
                                   rtol=1e-10)


@_report(6, "threshold update stationarity")
def test_criterion_6_threshold_stationarity():
    for seed in range(10):
        rng = np.random.default_rng(40 + seed)
        data = random_matrix(8, 7, int(rng.integers(2, 6)), rng, density=0.7)
        state = random_state_like(data, 3, rng)
        stats = local_update(state, data, entry_intensities(state, data))
        update_factors(state, data, stats)
        lam_by_class = class_sums(state, data)
        thr, floored = update_thresholds(state, data, stats, lam_by_class)
        assert not floored

        y = dense(data)
        e_n = np.zeros(y.shape)
        e_n[y > 0] = stats.e_n
        e_lam = state.W.mean @ state.H.mean.T
        delta = thr.delta
        f0 = threshold_objective(delta, y, e_n, e_lam)
        for l in range(delta.size):
            h = 1e-5 * delta[l]
            up, down = delta.copy(), delta.copy()
            up[l] += h
            down[l] -= h
            grad = (threshold_objective(up, y, e_n, e_lam)
                    - threshold_objective(down, y, e_n, e_lam)) / (2 * h)
            scaled = abs(grad) * delta[l] / max(1.0, abs(f0))
            assert scaled < 1e-6, f"seed {seed} class {l + 1}: {scaled:.2e}"


@_report(7, "generative recovery of thresholds and class histogram")
def test_criterion_7_generative_recovery(recovery_setup):
    t0 = time.perf_counter()
    thr = recovery_setup["thresholds"]
    truth = recovery_setup["truth"]
    state = recovery_setup["result"].state
    theta_fit = state.thresholds.theta
    norm = ThresholdSequence(theta_fit / theta_fit[0])

    # Expected-class curve: analytic curve of the fitted (normalized)
    # thresholds versus a Monte-Carlo estimate under the generating ones.
    rng = np.random.default_rng(7)
    eps = 1.0 / rng.gamma(1.0, size=10_000)
    for lam in (0.05, 0.2, 0.8, 3.0):
        samples = quantize(thr, lam * eps)
        mc = samples.mean()
        se = samples.std(ddof=1) / np.sqrt(samples.size)
        fitted = expected_class(norm, np.array([lam]))[0]
        assert abs(fitted - mc) <= 4.0 * se, \
            f"lambda={lam}: |{fitted:.5f} - {mc:.5f}| > 4*{se:.5f}"

    # Class histogram: posterior predictive draw versus the exact marginal
    # class frequencies of the generating model, per class, within the
    # sampling error of the predictive draw.
    lam_true = (truth.W @ truth.H.T).ravel()
    freq_true = np.array([pmf(thr, v, lam_true).mean()
                          for v in range(thr.n_classes + 1)])
    budget = 100_000
    report = ppc_histogram(state, recovery_setup["data"],
                           np.random.default_rng(0), n_cells=budget)
    sigma = np.sqrt(freq_true * (1 - freq_true) / budget)
    dev = np.abs(report.simulated_freq - freq_true)
    assert np.all(dev <= 4.0 * sigma), \
        f"per-class deviations {np.round(dev / sigma, 2)} sigma"

    elapsed = recovery_setup["fit_seconds"] + time.perf_counter() - t0
    assert elapsed < 300.0, f"recovery check took {elapsed:.1f}s"


@_report(8, "ordinal fit out-ranks binarized Poisson baseline")
def test_criterion_8_ranking_ordering(recovery_setup):
    data = recovery_setup["data"]
    train, test = train_test_split(data, 0.2, 0)
    bin_train = binarize(train, 1)
    ordinal, poisson = [], []
    for seed in range(5):
        cfg = FitConfig(n_components=10, tol=1e-6, max_iter=200, seed=seed)
        full = fit(train, cfg)
        ordinal.append(evaluate_ranking(full.state, train, test, [1],
                                        list_length=100)[0].mean_ndcg)
        flat = fit(bin_train, replace(cfg, variant="pf"))
        poisson.append(evaluate_ranking(flat.state, train, test, [1],
                                        list_length=100)[0].mean_ndcg)
    assert np.mean(ordinal) > np.mean(poisson), \
        f"ndcg ordinal {np.mean(ordinal):.5f} <= poisson {np.mean(poisson):.5f}"
