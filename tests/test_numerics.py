"""The scalar numerics against 50-digit references over the float range.

Each bound follows from the conditioning of the expression as the code
evaluates it, given two facts about floating point: +, -, *, / round
correctly (relative error at most eps = 2^-53), and numpy's exp, expm1,
log and log1p are within 4 ulps (relative error at most 8 eps; absolute
at most 4 * 2^-1074 on a subnormal result).

* log1mexp(x) = log(1 - e^{-x}).  Up to log 2 it is log(z) with
  z = -expm1(-x) in (0, 1/2]: a relative error r in z moves log z by r,
  which is at most r / log 2 of |log z| >= log 2, and log adds 8 eps.
  Above log 2 it is log1p(-s) with s = e^{-x} in (0, 1/2): the relative
  condition number of log1p(-s) in s, s / ((1 - s) |log(1 - s)|), grows
  with s to 1 / log 2 < 1.45 at s = 1/2, and log1p adds 8 eps.  Both give
  8 eps / log 2 + 8 eps < 20 eps relative; when e^{-x} is subnormal
  (x > 708) add 2^-1071 absolute for the two subnormal roundings.
* ztp_mean(x) = x / -expm1(-x): expm1's 8 eps plus the division's eps,
  so 10 eps relative; the quotient is at least 1, never subnormal.
* x + log1mexp(x), the ELBO's per-entry term: the sum of x (exact) and
  L = log1mexp(x) (within 20 eps |L| + a, a = 2^-1071) is off by at most
  20 eps |L| + a + eps (|x| + (1 + 20 eps) |L| + a), below
  22 eps (|x| + |L|) + 2 a.  Relative to the result that is the sum's
  condition number (|x| + |L|) / |x + L|, which is unbounded at
  x = log 2, where x + L = 0.
* ThresholdSequence.log_pmf(v, lambda) = -lambda theta_v + L(x), with
  L = log1mexp, x = fl(lambda * delta_v) and delta_v = fl(theta_{v-1} -
  theta_v); the reference takes the exact difference.  So x is within
  3 eps relative of the exact lambda (theta_{v-1} - theta_v), which moves L
  by at most 3 eps * x L'(x) = 3 eps * x / (e^x - 1) (that is at most
  3 eps, and 0 at v = 0, where x = +inf and L = 0); log1mexp adds
  20 eps |L| + a.  fl(lambda * theta_v) is within eps lambda theta_v, plus
  2^-1075 when subnormal.  Both terms are <= 0, so their sum has condition
  number 1, and the subtraction adds eps (|L| + lambda theta_v).  In all:
  21 eps |L| + 2 eps lambda theta_v + 3 eps x / (e^x - 1) + 2 a.  Where x
  is below the least normal float it has lost digits (or is 0), and
  log_pmf raises NumericalError instead.
"""

import mpmath
import numpy as np
import pytest

from ordnmf.errors import NumericalError
from ordnmf.inference import ztp_mean
from ordnmf.model import ThresholdSequence, log1mexp

from oracles import elbo_entry_mp, log1mexp_mp, log_pmf_mp, ztp_mean_mp

EPS = 2.0 ** -53
SUBNORMAL = 2.0 ** -1071  # two 4-ulp errors on a subnormal result
LOG2 = float(np.log(2.0))
# log-spaced from 1e-300 to 1e300, plus both sides of log1mexp's switch at
# log 2, the oracle's at 1 and the start of exp's subnormal range
GRID = np.unique(np.concatenate((
    np.logspace(-300, 300, 1201),
    [np.nextafter(LOG2, 0), LOG2, np.nextafter(LOG2, 1), 0.69, 0.7,
     np.nextafter(1.0, 0), 1.0, 36.0, 708.0, 708.5, 709.0, 745.0, 746.0])))


def check(got, ref, bound):
    """|got - ref| <= bound at every grid point, for float results and mpf
    references; the message names the worst point."""
    err = np.array([float(abs(mpmath.mpf(float(g)) - r))
                    for g, r in zip(got, ref)])
    j = np.argmax(err / bound)
    assert np.all(err <= bound), (f"x = {GRID[j]!r}: error {err[j]:.3g} "
                                  f"> bound {bound[j]:.3g}")


def test_log1mexp_within_its_conditioning():
    ref = [log1mexp_mp(x) for x in GRID]
    bound = 20 * EPS * np.abs(np.array([float(r) for r in ref])) + SUBNORMAL
    check(log1mexp(GRID), ref, bound)


def test_ztp_mean_within_its_conditioning():
    ref = [ztp_mean_mp(x) for x in GRID]
    check(ztp_mean(GRID), ref, 10 * EPS * np.array([float(r) for r in ref]))


def test_elbo_entry_within_its_conditioning():
    # as compute_elbo forms it: log1mexp, then x added in place
    got = log1mexp(GRID)
    got += GRID
    ref = [elbo_entry_mp(x) for x in GRID]
    L = np.abs(np.array([float(log1mexp_mp(x)) for x in GRID]))
    check(got, ref, 22 * EPS * (GRID + L) + 2 * SUBNORMAL)



# decrements down to 2^-52, and V = 10 spans theta from 4 to 2^-52
THRESHOLDS = {1: [1.0], 3: [1.0, 1 - 2.0 ** -52, 0.5],
              10: [4.0, 2.0, 1.0, 1 - 2.0 ** -52, 0.75, 0.5, 2.0 ** -10,
                   2.0 ** -30, 2.0 ** -40, 2.0 ** -52]}


@pytest.mark.parametrize("V", sorted(THRESHOLDS))
def test_log_pmf_within_its_conditioning(V):
    thr = ThresholdSequence(THRESHOLDS[V])
    theta = np.append(thr.theta, 0.0)
    delta = np.append(np.inf, thr.delta)
    tiny = np.finfo(float).tiny
    # a log grid, and each class's lambda at x = lambda * delta_v of log 2,
    # of exp's subnormal range and on both sides of the least normal float
    lams = np.unique(np.concatenate((np.logspace(-300, 300, 241), [
        c / d for d in thr.delta
        for c in (LOG2, 708.0, 746.0, tiny / 2, tiny, 2 * tiny)])))
    for v in range(V + 1):
        below = lams * delta[v] < tiny
        for lam in lams[below]:
            with pytest.raises(NumericalError, match="is below 2.225e-308"):
                thr.log_pmf(v, lam)
        ok = lams[~below]
        got = thr.log_pmf(np.full(ok.size, v), ok)
        ref = [log_pmf_mp(thr.theta, v, lam) for lam in ok]
        if v == 0:  # x = +inf: L = 0, and so is its change with x
            L = shrink = np.zeros(ok.size)
        else:
            x = ok * delta[v]
            L = np.abs(np.array([float(log1mexp_mp(xj)) for xj in x]))
            # x / (e^x - 1) as x e^{-x} / (1 - e^{-x}), which cannot overflow
            shrink = x * np.exp(-x) / -np.expm1(-x)
        bound = (21 * EPS * L + 2 * EPS * ok * theta[v] + 3 * EPS * shrink
                 + 2 * SUBNORMAL)
        err = np.array([float(abs(mpmath.mpf(float(g)) - r))
                        for g, r in zip(got, ref)])
        j = np.argmax(err / bound)
        assert np.all(err <= bound), (f"v = {v}, lambda = {ok[j]!r}: error "
                                      f"{err[j]:.3g} > bound {bound[j]:.3g}")


@pytest.mark.parametrize("lam, theta", [
    (3e-308, [1.0, 1 - 2.0 ** -52]), (2.0 ** -1022, [1.0, 1 - 2.0 ** -53])],
    ids=["subnormal-product", "product-rounds-to-zero"])
def test_log_pmf_rejects_product_below_normal(lam, theta):
    # lambda itself is normal; lambda * delta_1 is subnormal (6.7e-324, so
    # the result lost its digits) or rounds to 0 (log1mexp's ValueError)
    with pytest.raises(NumericalError, match=r"^lambda \* delta .* is below "
                       r"2\.225e-308$"):
        ThresholdSequence(theta).log_pmf(1, lam)
